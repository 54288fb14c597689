// Reinforcement-learning memory scheduler, after Ipek et al., "Self
// Optimizing Memory Controllers: A Reinforcement Learning Approach",
// ISCA 2008 [39] — the paper's flagship example of the data-driven
// principle.
//
// Formulation: each scheduling decision is an RL step.
//   state  = hashed controller attributes (queue occupancy, row-hit count,
//            issuable count, distinct banks with pending work, load skew)
//   action = which request class to serve next
//   reward = data bursts issued since the previous decision (bus
//            utilization, the same reward Ipek et al. use)
#include <algorithm>
#include <bit>

#include "common/ckpt.hh"
#include "learn/qlearn.hh"
#include "mem/sched.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace ima::mem {

namespace {

enum RlAction : std::uint32_t {
  kServeRowHit = 0,      // FR-FCFS-like: oldest issuable row hit
  kServeOldest = 1,      // FCFS-like: oldest issuable
  kServeLeastServed = 2, // fairness: core with least attained service
  kServeLoadedBank = 3,  // throughput: request on the deepest bank queue
  kNumActions = 4,
};

constexpr const char* kActionNames[kNumActions] = {"row_hit", "oldest", "least_served",
                                                   "loaded_bank"};

class RlScheduler final : public Scheduler {
 public:
  RlScheduler(std::uint32_t num_cores, std::uint64_t seed, double alpha, double epsilon)
      : num_cores_(num_cores) {
    learn::QAgent::Config cfg;
    cfg.num_actions = kNumActions;
    cfg.table_entries = 1 << 14;
    cfg.alpha = alpha;
    cfg.gamma = 0.95;
    cfg.epsilon = epsilon;
    cfg.init_q = 0.5;  // optimistic: encourages early exploration of all arms
    cfg.seed = seed;
    agent_ = std::make_unique<learn::QAgent>(cfg);
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    if (q.empty()) return kNoPick;
    // The unit table answers every feature and action exactly as the scans
    // do (DESIGN.md "Unit-table pick"), provided it counts every core this
    // policy weighs; otherwise the scans run.
    const bool by_unit = v.units != nullptr && v.units->cores >= num_cores_;
    const std::uint64_t s = by_unit ? state_hash_by_unit(v) : state_hash(q, v);

    if (have_prev_) {
      const double reward = static_cast<double>(served_since_decision_);
      reward_.add(reward);
      agent_->learn(prev_state_, prev_action_, reward, s);
      // Decay exploration once learning is underway (GLIE-style schedule):
      // early decisions explore, steady state exploits.
      if (!frozen_)
        agent_->set_epsilon(std::max(0.005, agent_->epsilon() * 0.9997));
    }
    served_since_decision_ = 0;

    const std::uint32_t a = frozen_ ? agent_->act_greedy(s) : agent_->act(s);
    prev_state_ = s;
    prev_action_ = a;
    have_prev_ = true;
    ++decisions_;
    ++action_counts_[a];
    IMA_TRACE(trace_, .cycle = v.now, .kind = obs::EventKind::SchedDecision,
              .tid = static_cast<std::uint16_t>(a), .arg0 = a, .arg1 = s,
              .name = kActionNames[a]);

    if (by_unit) return select_by_unit(q, v, static_cast<RlAction>(a));
    std::size_t i = select(q, v, static_cast<RlAction>(a));
    if (i != kNoPick) return i;
    // Fallback chain keeps the controller busy even when the chosen class
    // is empty — the agent still pays/earns via the reward signal.
    i = oldest_where(q, [&](const QueuedRequest& r) { return v.issuable(r); });
    if (i != kNoPick) return i;
    return oldest_where(q, [](const QueuedRequest&) { return true; });
  }

  void on_service(const QueuedRequest&, const SchedView&) override {
    ++served_since_decision_;
  }

  // Every pick() is an RL step: it learns from the previous decision,
  // decays epsilon and draws from the RNG. Skipping a busy cycle would
  // drop a step and desynchronize the RNG stream between clock modes, so
  // the RL scheduler stays on the per-cycle cadence; each step reads the
  // controller's unit table instead of scanning the queue.
  Cycle next_event(Cycle now) const override { return now + 1; }

  std::string name() const override { return "RL"; }

  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    reg.counter(obs::join_path(prefix, "decisions"), &decisions_);
    for (std::uint32_t a = 0; a < kNumActions; ++a)
      reg.counter(obs::join_path(prefix, std::string("action.") + kActionNames[a]),
                  &action_counts_[a]);
    reg.gauge(obs::join_path(prefix, "epsilon"), [this] { return agent_->epsilon(); });
    reg.running(obs::join_path(prefix, "reward"), &reward_);
  }

  void set_trace(obs::TraceSink* sink) override { trace_ = sink; }

  /// Freeze learning/exploration (evaluation mode).
  void freeze() { frozen_ = true; }

  const learn::QAgent& agent() const { return *agent_; }

  // The scan path's stamped scratch (bank_count_/core_load_) is rebuilt on
  // every pick and the table path keeps none, so only the learning state
  // and decision counters persist.
  void save_state(ckpt::Sink& s) const override {
    agent_->save_state(s);
    s.u64(prev_state_);
    s.u32(prev_action_);
    s.b(have_prev_);
    s.b(frozen_);
    s.u64(served_since_decision_);
    s.u64(decisions_);
    for (std::uint64_t c : action_counts_) s.u64(c);
    reward_.save_state(s);
  }
  void load_state(ckpt::Source& s) override {
    agent_->load_state(s);
    prev_state_ = s.u64();
    prev_action_ = s.u32();
    have_prev_ = s.b();
    frozen_ = s.b();
    served_since_decision_ = s.u64();
    decisions_ = s.u64();
    for (std::uint64_t& c : action_counts_) c = s.u64();
    reward_.load_state(s);
  }

 private:
  // Scan path (views without a unit table). The state features and the
  // loaded-bank histogram use stamped flat scratch instead of per-call
  // unordered containers: a slot is "present" iff its stamp matches the
  // current token, so clearing is one counter bump. Slots grow on first
  // sight of a key and are reused forever after — steady state allocates
  // nothing. Values are identical to the container versions (distinct-key
  // count, per-key increment counts).
  std::uint32_t& bank_slot(std::uint64_t key) const {
    if (key >= bank_count_.size()) {
      bank_count_.resize(key + 1, 0);
      bank_stamp_.resize(key + 1, 0);
    }
    if (bank_stamp_[key] != stamp_token_) {
      bank_stamp_[key] = stamp_token_;
      bank_count_[key] = 0;
    }
    return bank_count_[key];
  }

  std::uint64_t state_hash(const std::vector<QueuedRequest>& q, const SchedView& v) const {
    std::uint32_t live = 0, hits = 0, issuable = 0, distinct_banks = 0;
    std::uint32_t max_core_load = 0;
    ++stamp_token_;
    core_load_.assign(num_cores_, 0);
    for (const auto& r : q) {
      if (!r.live) continue;
      ++live;
      if (v.row_hit(r)) ++hits;
      if (v.issuable(r)) ++issuable;
      std::uint32_t& seen =
          bank_slot((static_cast<std::uint64_t>(r.coord.rank) << 8) | r.coord.bank);
      if (seen == 0) ++distinct_banks;
      seen = 1;
      if (r.req.core < num_cores_) max_core_load = std::max(max_core_load, ++core_load_[r.req.core]);
    }
    return hash_features(live, hits, issuable, distinct_banks, max_core_load);
  }

  static std::uint64_t hash_features(std::uint32_t live, std::uint32_t hits,
                                     std::uint32_t issuable, std::uint32_t distinct_banks,
                                     std::uint32_t max_core_load) {
    auto bucket = [](std::uint32_t x) -> std::uint64_t {  // log2-ish buckets
      return std::min<std::uint64_t>(std::bit_width(x), 7);
    };
    learn::StateHash h;
    h.add(bucket(live))
        .add(bucket(hits))
        .add(bucket(issuable))
        .add(bucket(distinct_banks))
        .add(bucket(max_core_load));
    return h.value();
  }

  // Table path: the five features from the occupied units alone. Only an
  // open unit's `match` is current (a closed unit's is stale until its next
  // ACT), and an entry is issuable when its class — RD/WR on the open row,
  // else ACT or PRE — is legal now. Units run in id order, so the SALP
  // subarrays of one bank are adjacent and distinct banks are bank-id
  // changes.
  std::uint64_t state_hash_by_unit(const SchedView& v) const {
    const UnitTable& t = *v.units;
    std::uint32_t live = 0, hits = 0, issuable = 0, distinct_banks = 0;
    std::uint32_t max_core_load = 0;
    std::uint32_t last_bank = ~0u;
    for (std::size_t k = 0; k < t.count; ++k) {
      const std::uint32_t u = t.units[k];
      const UnitSlot& us = t.slots[u];
      live += us.total;
      const bool ready_ok = us.ready_at <= v.now;
      if (v.chan->unit_open(u)) {
        hits += us.match;
        if (us.hit_at <= v.now) issuable += us.match;
        if (ready_ok) issuable += us.total - us.match;
      } else if (ready_ok) {
        issuable += us.total;
      }
      const std::uint32_t bank = v.chan->bank_of_unit(u);
      if (bank != last_bank) {
        ++distinct_banks;
        last_bank = bank;
      }
    }
    for (std::uint32_t c = 0; c < num_cores_; ++c)
      max_core_load = std::max(max_core_load, t.core_live[c]);
    return hash_features(live, hits, issuable, distinct_banks, max_core_load);
  }

  // Calls f(i) for every live entry i of unit `u` whose required command is
  // legal now; walks nothing when neither of the unit's classes is.
  template <typename F>
  static void for_each_issuable(const SchedView& v, std::uint32_t u, F&& f) {
    const UnitSlot& us = v.units->slots[u];
    const bool hit_ok = us.hit_at <= v.now;
    const bool ready_ok = us.ready_at <= v.now;
    if (!hit_ok && !ready_ok) return;
    const bool open = v.chan->unit_open(u);
    const std::uint32_t row = v.chan->unit_row(u);
    for (std::uint32_t i = us.head; i != QueueScanMeta::kChainEnd; i = v.meta[i].next) {
      const QueueScanMeta& m = v.meta[i];
      if (!(m.flags & QueueScanMeta::kLive)) continue;
      if (open && m.row == row ? hit_ok : ready_ok) f(i);
    }
  }

  // The scan's decisions off the unit table, index for index: the chosen
  // class, else (the row-hit action only) the oldest issuable, else the
  // oldest live. Every argmin/argmax compares (key, index) like the scans'
  // strict comparisons over ascending indices.
  std::size_t select_by_unit(const std::vector<QueuedRequest>& q, const SchedView& v,
                             RlAction a) const {
    const UnitTable& t = *v.units;
    std::size_t best = kNoPick;
    switch (a) {
      case kServeRowHit:
      case kServeOldest: {
        const FirstReady fr =
            first_ready_by_unit(q, v, [](const QueuedRequest&) { return true; });
        best = a == kServeRowHit && fr.hit != kNoPick ? fr.hit : fr.ready;
        break;
      }
      case kServeLeastServed: {
        auto service = [&](std::uint32_t core) -> std::uint64_t {
          if (!v.cores || core >= v.cores->size()) return 0;
          return (*v.cores)[core].attained_service;
        };
        std::uint64_t best_service = 0;
        for (std::size_t k = 0; k < t.count; ++k) {
          for_each_issuable(v, t.units[k], [&](std::size_t i) {
            const std::uint64_t sv = service(q[i].req.core);
            if (best == kNoPick || sv < best_service || (sv == best_service && i < best)) {
              best = i;
              best_service = sv;
            }
          });
        }
        break;
      }
      case kServeLoadedBank: {
        // A bank's load is the live entries over its units, which sit next
        // to each other in the unit list: units [k, e) share one bank.
        std::uint32_t best_load = 0;
        for (std::size_t k = 0; k < t.count;) {
          const std::uint32_t bank = v.chan->bank_of_unit(t.units[k]);
          std::size_t e = k;
          std::uint32_t load = 0;
          for (; e < t.count && v.chan->bank_of_unit(t.units[e]) == bank; ++e)
            load += t.slots[t.units[e]].total;
          for (; k < e; ++k) {
            for_each_issuable(v, t.units[k], [&](std::size_t i) {
              if (best == kNoPick || load > best_load || (load == best_load && i < best)) {
                best = i;
                best_load = load;
              }
            });
          }
        }
        break;
      }
      default:
        break;
    }
    if (best != kNoPick) return best;
    // Nothing legal: the oldest live entry. Heads are live and a chain
    // runs in index order, so on a sorted queue it is the lowest head.
    for (std::size_t k = 0; k < t.count; ++k) {
      const UnitSlot& us = t.slots[t.units[k]];
      if (v.arrive_sorted) {
        best = std::min<std::size_t>(best, us.head);
        continue;
      }
      for (std::uint32_t i = us.head; i != QueueScanMeta::kChainEnd; i = v.meta[i].next) {
        if (!(v.meta[i].flags & QueueScanMeta::kLive)) continue;
        if (best == kNoPick || q[i].req.arrive < q[best].req.arrive ||
            (q[i].req.arrive == q[best].req.arrive && i < best))
          best = i;
      }
    }
    return best;
  }

  std::size_t select(const std::vector<QueuedRequest>& q, const SchedView& v, RlAction a) const {
    switch (a) {
      case kServeRowHit:
        return oldest_where(q, [&](const QueuedRequest& r) { return v.row_hit(r) && v.issuable(r); });
      case kServeOldest:
        return oldest_where(q, [&](const QueuedRequest& r) { return v.issuable(r); });
      case kServeLeastServed: {
        std::size_t best = kNoPick;
        auto service = [&](std::uint32_t core) -> std::uint64_t {
          if (!v.cores || core >= v.cores->size()) return 0;
          return (*v.cores)[core].attained_service;
        };
        for (std::size_t i = 0; i < q.size(); ++i) {
          if (!q[i].live || !v.issuable(q[i])) continue;
          if (best == kNoPick || service(q[i].req.core) < service(q[best].req.core)) best = i;
        }
        return best;
      }
      case kServeLoadedBank: {
        ++stamp_token_;
        for (const auto& r : q) {
          if (!r.live) continue;
          ++bank_slot((static_cast<std::uint64_t>(r.coord.rank) << 8) | r.coord.bank);
        }
        std::size_t best = kNoPick;
        std::uint32_t best_load = 0;
        for (std::size_t i = 0; i < q.size(); ++i) {
          if (!q[i].live || !v.issuable(q[i])) continue;
          const auto load =
              bank_slot((static_cast<std::uint64_t>(q[i].coord.rank) << 8) | q[i].coord.bank);
          if (best == kNoPick || load > best_load) {
            best = i;
            best_load = load;
          }
        }
        return best;
      }
      default:
        return kNoPick;
    }
  }

  std::uint32_t num_cores_;
  std::unique_ptr<learn::QAgent> agent_;
  std::uint64_t prev_state_ = 0;
  std::uint32_t prev_action_ = 0;
  bool have_prev_ = false;
  bool frozen_ = false;
  std::uint64_t served_since_decision_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t action_counts_[kNumActions] = {};
  RunningStat reward_;
  obs::TraceSink* trace_ = nullptr;
  // Stamped scratch for state_hash/select — see bank_slot().
  mutable std::vector<std::uint32_t> bank_count_;
  mutable std::vector<std::uint64_t> bank_stamp_;
  mutable std::uint64_t stamp_token_ = 0;
  mutable std::vector<std::uint32_t> core_load_;
};

}  // namespace

std::unique_ptr<Scheduler> make_rl(std::uint32_t num_cores, std::uint64_t seed, double alpha,
                                   double epsilon) {
  return std::make_unique<RlScheduler>(num_cores, seed, alpha, epsilon);
}

const char* to_string(SchedKind k) {
  switch (k) {
    case SchedKind::Fcfs: return "FCFS";
    case SchedKind::FrFcfs: return "FR-FCFS";
    case SchedKind::FrFcfsCap: return "FR-FCFS-Cap";
    case SchedKind::ParBs: return "PAR-BS";
    case SchedKind::Atlas: return "ATLAS";
    case SchedKind::Tcm: return "TCM";
    case SchedKind::Bliss: return "BLISS";
    case SchedKind::Rl: return "RL";
  }
  return "?";
}

// Declared in the per-family translation units.
std::unique_ptr<Scheduler> make_fcfs();
std::unique_ptr<Scheduler> make_frfcfs();
std::unique_ptr<Scheduler> make_frfcfs_cap(std::uint32_t cap);
std::unique_ptr<Scheduler> make_bliss(std::uint32_t num_cores);
std::unique_ptr<Scheduler> make_parbs(std::uint32_t num_cores);
std::unique_ptr<Scheduler> make_atlas();
std::unique_ptr<Scheduler> make_tcm(std::uint32_t num_cores, std::uint64_t seed);

std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, std::uint32_t num_cores,
                                          std::uint64_t seed) {
  switch (kind) {
    case SchedKind::Fcfs: return make_fcfs();
    case SchedKind::FrFcfs: return make_frfcfs();
    case SchedKind::FrFcfsCap: return make_frfcfs_cap(4);
    case SchedKind::ParBs: return make_parbs(num_cores);
    case SchedKind::Atlas: return make_atlas();
    case SchedKind::Tcm: return make_tcm(num_cores, seed);
    case SchedKind::Bliss: return make_bliss(num_cores);
    case SchedKind::Rl: return make_rl(num_cores, seed, 0.1, 0.05);
  }
  return make_frfcfs();
}

}  // namespace ima::mem
