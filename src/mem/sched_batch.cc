// Application-aware ranking schedulers: PAR-BS (batching), ATLAS
// (least-attained-service), TCM (thread clustering). These represent the
// most sophisticated human-designed policies the paper contrasts with
// data-driven controllers.
#include <algorithm>
#include <numeric>

#include "common/ckpt.hh"
#include "common/rng.hh"
#include "mem/sched.hh"

namespace ima::mem {

namespace {

/// PAR-BS (Mutlu & Moscibroda, ISCA 2008): requests are grouped into
/// batches (up to `kMarkCap` oldest per core per bank); the whole batch is
/// serviced before newer requests, which bounds intra-batch starvation;
/// within a batch cores are ranked shortest-job-first.
class ParBsScheduler final : public Scheduler {
 public:
  explicit ParBsScheduler(std::uint32_t num_cores) : num_cores_(num_cores) {}

  void on_enqueue(const QueuedRequest& r) override { ++live_[queue_of(r)]; }

  void on_service(const QueuedRequest& r, const SchedView&) override {
    const std::size_t qi = queue_of(r);
    if (live_[qi] > 0) --live_[qi];
    if (r.marked && marked_[qi] > 0) --marked_[qi];
  }

  void tick(const SchedView& v, std::vector<QueuedRequest>& q) override {
    // A queue holds one direction, so its front (live or tombstone) names it.
    if (q.empty()) return;
    const std::size_t qi = queue_of(q.front());
    if (marked_[qi] == 0) form_batch(v, q, qi);  // the last batch has drained
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    // Priority: marked > row-hit > core rank > age; only issuable requests.
    if (v.units) {
      const std::size_t i = ranked_by_unit(q, v, [this](const QueuedRequest& r, bool hit) {
        return (std::uint64_t{!r.marked} << 33) | (std::uint64_t{!hit} << 32) |
               rank_of(r.req.core);
      });
      if (i != kNoPick) return i;
    }
    // The best element's key lives in locals so each candidate is scored
    // once (the old comparator re-derived row_hit/rank for both sides on
    // every element — measurably hot under saturated queues).
    std::size_t best = kNoPick, any = kNoPick;
    bool b_marked = false, b_hit = false;
    std::uint32_t b_rank = 0;
    Cycle b_arrive = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i, q)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick || r.req.arrive < q[any].req.arrive) any = i;
      const int cls = v.issue_class_at(i, q);
      if (cls == 0) continue;
      const bool hit = cls == 2;
      const std::uint32_t rank = rank_of(r.req.core);
      const bool better = best == kNoPick ||
          (r.marked != b_marked ? r.marked
           : hit != b_hit       ? hit
           : rank != b_rank     ? rank < b_rank
                                : r.req.arrive < b_arrive);
      if (better) {
        best = i;
        b_marked = r.marked;
        b_hit = hit;
        b_rank = rank;
        b_arrive = r.req.arrive;
      }
    }
    return best != kNoPick ? best : any;
  }

  // Batch formation is the only clocked state: it fires on the first tick
  // of a queue that has live entries and no marked one. While such a
  // formation is pending, tick every cycle, so the batch forms on the
  // cycle the per-cycle reference forms it, over the same requests;
  // otherwise picks depend only on marks, ranks and queue/bank state,
  // which cannot change across a gap where no command can issue
  // (DESIGN.md "PAR-BS batch formation").
  Cycle next_event(Cycle now) const override {
    for (std::size_t qi = 0; qi < 2; ++qi)
      if (live_[qi] > 0 && marked_[qi] == 0) return now + 1;
    return kCycleNever;
  }

  // Batch formation happens in tick; pick only reads marks and ranks.
  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "PAR-BS"; }

  // Batch membership (the `marked` bits) lives on the queue entries and is
  // gone at the quiescent checkpoint point, as are the live and marked
  // counts; only the core ranking persists.
  void save_state(ckpt::Sink& s) const override { ckpt::put_vec_u32(s, core_rank_); }
  void load_state(ckpt::Source& s) override { ckpt::get_vec_u32(s, core_rank_); }

 private:
  static constexpr std::uint32_t kMarkCap = 5;
  static std::size_t queue_of(const QueuedRequest& r) {
    return r.req.type == AccessType::Read ? 0 : 1;
  }
  std::uint32_t rank_of(std::uint32_t core) const {
    return core < core_rank_.size() ? core_rank_[core] : num_cores_;
  }
  // Row of `core` in the flat (core, bank) count table: cores the policy
  // ranks map to themselves, any other id to a row after them.
  std::uint32_t core_slot(std::uint32_t core) {
    if (core < num_cores_) return core;
    const auto it = std::find(other_cores_.begin(), other_cores_.end(), core);
    if (it != other_cores_.end())
      return num_cores_ + static_cast<std::uint32_t>(it - other_cores_.begin());
    other_cores_.push_back(core);
    return num_cores_ + static_cast<std::uint32_t>(other_cores_.size() - 1);
  }

  // Mark the kMarkCap oldest live requests per (core, bank), then rank
  // cores by their largest per-bank marked load (shortest job first).
  void form_batch(const SchedView& v, std::vector<QueuedRequest>& q, std::size_t qi) {
    const auto& g = v.chan->config().geometry;
    const std::size_t banks = std::size_t{g.ranks} * g.banks;
    order_.clear();
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i, q)) continue;
      const QueuedRequest& r = q[i];
      const std::uint32_t slot = core_slot(r.req.core);
      if ((slot + 1) * banks > mark_count_.size()) mark_count_.resize((slot + 1) * banks, 0);
      if (slot >= max_load_.size()) max_load_.resize(slot + 1, 0);
      // A bank, not a SALP unit: rank * banks + bank.
      order_.push_back(
          Member{r.req.arrive, i, slot * banks + r.coord.rank * g.banks + r.coord.bank, slot});
    }
    if (order_.empty()) return;
    // Oldest first. Sorting (arrive, index) records makes the same
    // comparisons and moves as sorting bare indices by arrive, so equal
    // arrivals land where they always did.
    std::sort(order_.begin(), order_.end(),
              [](const Member& a, const Member& b) { return a.arrive < b.arrive; });
    std::uint32_t marked = 0;
    for (const Member& e : order_) {
      std::uint32_t& n = mark_count_[e.cell];
      if (n < kMarkCap) {
        q[e.index].marked = true;
        ++marked;
        max_load_[e.slot] = std::max(max_load_[e.slot], ++n);
      }
    }
    marked_[qi] = marked;

    const auto load = [&](std::uint32_t c) { return c < max_load_.size() ? max_load_[c] : 0u; };
    core_rank_.assign(num_cores_, 0);
    cores_.resize(num_cores_);
    std::iota(cores_.begin(), cores_.end(), 0u);
    std::sort(cores_.begin(), cores_.end(),
              [&](std::uint32_t a, std::uint32_t b) { return load(a) < load(b); });
    for (std::uint32_t rank = 0; rank < cores_.size(); ++rank) core_rank_[cores_[rank]] = rank;

    // Leave the count tables zeroed for the next formation.
    for (const Member& e : order_) mark_count_[e.cell] = 0;
    std::fill(max_load_.begin(), max_load_.end(), 0u);
  }

  // One live request of a forming batch: its arrival, queue index, cell
  // of mark_count_ and core slot.
  struct Member {
    Cycle arrive;
    std::size_t index;
    std::size_t cell;
    std::uint32_t slot;
  };

  std::uint32_t num_cores_;
  std::vector<std::uint32_t> core_rank_;
  // Per queue (0 = reads, 1 = writes): live entries, and the live marked
  // ones. A formation is pending while live > 0 and marked == 0.
  std::size_t live_[2] = {0, 0};
  std::size_t marked_[2] = {0, 0};
  // Batch-formation scratch, reused across formations.
  std::vector<Member> order_;
  std::vector<std::uint32_t> mark_count_;  // (core slot, bank) -> marked
  std::vector<std::uint32_t> max_load_;    // core slot -> max marked per bank
  std::vector<std::uint32_t> other_cores_;
  std::vector<std::uint32_t> cores_;
};

/// ATLAS (Kim et al., HPCA 2010): over long quanta, rank cores by total
/// attained service; least-attained-service first.
class AtlasScheduler final : public Scheduler {
 public:
  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    auto service = [&](std::uint32_t core) -> std::uint64_t {
      if (!v.cores || core >= v.cores->size()) return 0;
      return (*v.cores)[core].attained_service;
    };
    if (v.units) {
      const std::size_t i = ranked_by_unit(
          q, v, [&](const QueuedRequest& r, bool) { return service(r.req.core); });
      if (i != kNoPick) return i;
    }
    // Single scan, best key in locals (service asc, row-hit desc, age asc).
    std::size_t best = kNoPick, any = kNoPick;
    std::uint64_t b_service = 0;
    bool b_hit = false;
    Cycle b_arrive = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i, q)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick || r.req.arrive < q[any].req.arrive) any = i;
      const int cls = v.issue_class_at(i, q);
      if (cls == 0) continue;
      const std::uint64_t s = service(r.req.core);
      const bool hit = cls == 2;
      const bool better = best == kNoPick ||
          (s != b_service ? s < b_service
           : hit != b_hit ? hit
                          : r.req.arrive < b_arrive);
      if (better) {
        best = i;
        b_service = s;
        b_hit = hit;
        b_arrive = r.req.arrive;
      }
    }
    return best != kNoPick ? best : any;
  }

  // Attained service changes on service only (the controller updates it);
  // nothing here is clocked.
  Cycle next_event(Cycle) const override { return kCycleNever; }

  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "ATLAS"; }
};

/// TCM (Kim et al., MICRO 2010): periodically cluster cores into a
/// latency-sensitive group (low bandwidth demand — always prioritized) and
/// a bandwidth-heavy group whose internal ranking is shuffled to spread
/// interference.
class TcmScheduler final : public Scheduler {
 public:
  TcmScheduler(std::uint32_t num_cores, std::uint64_t seed)
      : num_cores_(num_cores),
        quantum_service_(num_cores, 0),
        cluster_(num_cores, 0),
        shuffle_rank_(num_cores, 0),
        rng_(seed) {
    for (std::uint32_t c = 0; c < num_cores; ++c) shuffle_rank_[c] = c;
  }

  void on_service(const QueuedRequest& r, const SchedView&) override {
    if (r.req.core < num_cores_) ++quantum_service_[r.req.core];
  }

  void tick(const SchedView& v, std::vector<QueuedRequest>&) override {
    if (v.now >= next_quantum_) {
      recluster();
      next_quantum_ = v.now + kQuantum;
    }
    if (v.now >= next_shuffle_) {
      shuffle();
      next_shuffle_ = v.now + kShuffle;
    }
  }

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    if (v.units) {
      const std::size_t i = ranked_by_unit(q, v, [this](const QueuedRequest& r, bool) {
        const std::uint8_t c = cluster_of(r.req.core);
        return (std::uint64_t{c} << 32) | (c == 1 ? shuffle_of(r.req.core) : 0);
      });
      if (i != kNoPick) return i;
    }
    // Single scan with the best key in locals. Within the latency cluster
    // the shuffle rank never participates in the old comparator, so the
    // key maps cluster-0 cores to shuffle 0 — identical ordering.
    std::size_t best = kNoPick, any = kNoPick;
    std::uint8_t b_cluster = 0;
    std::uint32_t b_shuffle = 0;
    bool b_hit = false;
    Cycle b_arrive = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!v.live(i, q)) continue;
      const QueuedRequest& r = q[i];
      if (any == kNoPick || r.req.arrive < q[any].req.arrive) any = i;
      const int cls = v.issue_class_at(i, q);
      if (cls == 0) continue;
      const std::uint8_t c = cluster_of(r.req.core);
      const std::uint32_t s = c == 1 ? shuffle_of(r.req.core) : 0;
      const bool hit = cls == 2;
      const bool better = best == kNoPick ||
          (c != b_cluster   ? c < b_cluster  // latency cluster (0) first
           : s != b_shuffle ? s < b_shuffle  // bandwidth cluster: shuffled
           : hit != b_hit   ? hit
                            : r.req.arrive < b_arrive);
      if (better) {
        best = i;
        b_cluster = c;
        b_shuffle = s;
        b_hit = hit;
        b_arrive = r.req.arrive;
      }
    }
    return best != kNoPick ? best : any;
  }

  // Quantum recluster and rank shuffle fire at fixed boundaries; the
  // shuffle consumes RNG draws, so both clock modes must run it at the
  // exact same cycles. Values <= now (boundary passed, tick starved of the
  // slot) degrade to per-cycle via the controller's clamp.
  Cycle next_event(Cycle) const override {
    return std::min(next_quantum_, next_shuffle_);
  }

  // Recluster/shuffle (and their RNG draws) happen in tick; pick only
  // reads the cluster and shuffle tables.
  bool pick_is_pure() const override { return true; }

  std::string name() const override { return "TCM"; }

  void save_state(ckpt::Sink& s) const override {
    ckpt::put_vec_u64(s, quantum_service_);
    ckpt::put_vec_u8(s, cluster_);
    ckpt::put_vec_u32(s, shuffle_rank_);
    rng_.save_state(s);
    s.u64(next_quantum_);
    s.u64(next_shuffle_);
  }
  void load_state(ckpt::Source& s) override {
    ckpt::get_vec_u64(s, quantum_service_);
    ckpt::get_vec_u8(s, cluster_);
    ckpt::get_vec_u32(s, shuffle_rank_);
    rng_.load_state(s);
    next_quantum_ = s.u64();
    next_shuffle_ = s.u64();
  }

 private:
  static constexpr Cycle kQuantum = 100000;
  static constexpr Cycle kShuffle = 800;
  static constexpr double kLatencyClusterShare = 0.15;

  std::uint8_t cluster_of(std::uint32_t core) const {
    return core < num_cores_ ? cluster_[core] : 1;
  }
  std::uint32_t shuffle_of(std::uint32_t core) const {
    return core < num_cores_ ? shuffle_rank_[core] : num_cores_;
  }

  void recluster() {
    const std::uint64_t total =
        std::accumulate(quantum_service_.begin(), quantum_service_.end(), std::uint64_t{0});
    // Cores are latency-sensitive until their cumulative demand exceeds the
    // latency-cluster bandwidth share.
    std::vector<std::uint32_t> order(num_cores_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return quantum_service_[a] < quantum_service_[b];
    });
    std::uint64_t used = 0;
    const auto budget = static_cast<std::uint64_t>(kLatencyClusterShare * static_cast<double>(total));
    for (std::uint32_t c : order) {
      used += quantum_service_[c];
      cluster_[c] = (used <= budget) ? 0 : 1;
    }
    std::fill(quantum_service_.begin(), quantum_service_.end(), 0);
  }

  void shuffle() {
    for (std::uint32_t i = num_cores_; i > 1; --i) {
      const auto j = static_cast<std::uint32_t>(rng_.next_below(i));
      std::swap(shuffle_rank_[i - 1], shuffle_rank_[j]);
    }
  }

  std::uint32_t num_cores_;
  std::vector<std::uint64_t> quantum_service_;
  std::vector<std::uint8_t> cluster_;
  std::vector<std::uint32_t> shuffle_rank_;
  Rng rng_;
  Cycle next_quantum_ = kQuantum;
  Cycle next_shuffle_ = kShuffle;
};

}  // namespace

std::unique_ptr<Scheduler> make_parbs(std::uint32_t num_cores) {
  return std::make_unique<ParBsScheduler>(num_cores);
}
std::unique_ptr<Scheduler> make_atlas() { return std::make_unique<AtlasScheduler>(); }
std::unique_ptr<Scheduler> make_tcm(std::uint32_t num_cores, std::uint64_t seed) {
  return std::make_unique<TcmScheduler>(num_cores, seed);
}

}  // namespace ima::mem
