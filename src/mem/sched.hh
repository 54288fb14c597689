// Memory-request scheduling policies.
//
// The paper's data-driven principle is anchored on the observation that a
// memory controller executes one fixed human-designed heuristic for the
// machine's whole lifetime. This module provides that heuristic zoo —
// FCFS, FR-FCFS (+cap), PAR-BS, ATLAS, TCM, BLISS — and a reinforcement-
// learning scheduler (sched_rl.cc) that learns its policy online, in the
// spirit of Ipek et al., ISCA 2008 [39].
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/channel.hh"
#include "mem/request.hh"

namespace ima::obs {
class StatRegistry;
class TraceSink;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::mem {

/// A request waiting in the controller queue, plus its decoded coordinates
/// and scheduling metadata.
struct QueuedRequest {
  Request req;
  dram::Coord coord;
  bool live = true;         // false = served tombstone awaiting compaction
  bool marked = false;      // PAR-BS batch membership
  bool classified = false;  // row hit/miss/conflict recorded at first command
  CompletionCallback cb;    // fires when the data burst completes
};

/// Compact scan metadata the controller maintains index-parallel to each
/// request queue (tombstones included): exactly the values a legality /
/// row-hit query needs plus the unit-chain link, 16 bytes per entry instead
/// of a whole QueuedRequest, so the hot scheduler and next_event scans
/// touch a fraction of the cache lines. `unit` is immutable per request
/// (Channel::unit_of depends only on the geometry); `flags` go dead when
/// the request is served. `next` threads the entries of one unit into a
/// chain in index (= arrival) order, from the controller's per-unit head
/// (UnitSlot::head) to kChainEnd; a chain may still hold served
/// tombstones until the next compaction, which walkers skip via `flags`.
struct QueueScanMeta {
  std::uint32_t unit;
  std::uint32_t row;
  std::uint32_t flags;  // kLive | kWrite
  std::uint32_t next;   // next entry of this unit's chain, or kChainEnd
  static constexpr std::uint32_t kLive = 1;
  static constexpr std::uint32_t kWrite = 2;
  static constexpr std::uint32_t kChainEnd = ~0u;
};

/// One unit of one request queue, as the controller tracks it.
/// `total` counts the live entries at the unit and `match` those on its
/// open row. `head`/`tail` are the ends of the unit's chain
/// (QueueScanMeta::next). `hit_at` and `ready_at` are when the unit's two
/// command classes become legal, as the controller's next_event kernel last
/// computed them: `hit_at` for the RD/WR of entries on the open row
/// (kCycleNever if the unit is closed or no queued row matches),
/// `ready_at` for the ACT of a closed unit or the PRE of an open one some
/// queued row mismatches. Each time is max(now, h) with h fixed while the
/// channel's state_version holds, so `t <= now` classifies exactly like
/// Channel::earliest() does.
struct UnitSlot {
  std::uint32_t total = 0;
  std::uint32_t match = 0;
  std::uint32_t head = QueueScanMeta::kChainEnd;
  std::uint32_t tail = QueueScanMeta::kChainEnd;
  Cycle hit_at = kCycleNever;
  Cycle ready_at = kCycleNever;
};

/// The active queue's occupied units and their slots (see DESIGN.md
/// "Unit-table pick"). Offered only while the controller's kernel stash is
/// valid; the first-ready and ranked pickers and RL then fold over units
/// and walk the chains of units with a legal command instead of
/// classifying every queue entry.
/// `core_live[c]` counts the queue's live entries from core `c` for every
/// core the controller accounts (`cores` of them).
struct UnitTable {
  const std::uint32_t* units = nullptr;  // occupied units, ascending
  std::size_t count = 0;
  const UnitSlot* slots = nullptr;       // indexed by unit
  const std::uint32_t* core_live = nullptr;
  std::size_t cores = 0;
};

/// Per-core accounting the fairness-oriented schedulers need.
struct CoreState {
  std::uint64_t attained_service = 0;  // bus cycles of service (ATLAS LAS)
  std::uint64_t served = 0;            // requests completed
  std::uint64_t served_in_quantum = 0; // TCM cluster formation input
  std::uint64_t outstanding = 0;       // currently queued requests
  std::uint32_t consecutive_served = 0;  // BLISS streak
  bool blacklisted = false;            // BLISS
  std::uint8_t cluster = 0;            // TCM: 0 = latency-sensitive, 1 = bandwidth
  std::uint32_t shuffle_rank = 0;      // TCM bandwidth-cluster shuffle order
};

/// Per-rank memoization of the timing queries a scheduling decision makes.
/// Within one decision epoch — a fixed cycle with no intervening command
/// issue — everything a legality query needs splits into (a) per-unit
/// values that are direct loads from the channel's SoA timing arrays
/// (open flag, open row, per-class next-legal cycles) and (b) rank-level
/// gates (tRRD/tFAW ACT gate, bus turnaround, power state) shared by every
/// unit of the rank. Only (b) is worth memoizing: this cache folds
/// scan_gates() once per rank per epoch and answers every query as two or
/// three dense loads plus a max() against the cached gates — exactly the
/// values Channel::earliest() computes, by shared construction
/// (earliest_*_at IS earliest()'s arithmetic). Validity is keyed on
/// (cycle, Channel::state_version()): `begin()` bumps the epoch whenever
/// either moved, so the cache can never serve a value the channel would
/// not return itself this cycle.
///
/// An earlier incarnation cached per-bank entries (open/open_row plus all
/// four class-earliest slots). With the SoA arrays those per-bank values
/// are plain loads, and refilling entries on every epoch — every issued
/// command — cost more than it saved; only the rank gates survived.
///
/// Disabled under SALP: historically one entry per bank was not a sound
/// granularity there. The gates rewrite would be sound under SALP too
/// (gates are per rank, unit_of resolves the subarray), but the dense
/// uncached path is just as fast, so it stays self-disabled rather than
/// re-validating every SALP golden for zero win.
class SchedTimingCache {
 public:
  void attach(const dram::Channel& chan) {
    chan_ = &chan;
    enabled_ = !chan.config().timings.salp;
    gates_.assign(chan.config().geometry.ranks, dram::Channel::ScanGates{});
    gate_epoch_.assign(chan.config().geometry.ranks, 0);
  }
  bool enabled() const { return chan_ != nullptr && enabled_; }

  /// Enter the decision epoch for `now`. Cheap when nothing changed since
  /// the last call; otherwise invalidates every rank's gates (lazily).
  void begin(Cycle now) {
    const std::uint64_t v = chan_->state_version();
    if (now != now_ || v != version_) {
      now_ = now;
      version_ = v;
      ++epoch_;
    }
  }

  bool row_hit(const dram::Coord& c) const {
    const std::size_t u = chan_->unit_of(c);
    return chan_->unit_open(u) && chan_->unit_row(u) == c.row;
  }
  dram::Cmd required_cmd(const dram::Coord& c, AccessType type) const {
    return chan_->required_cmd(c, type);
  }
  /// Earliest legal cycle of this access's required command (kCycleNever
  /// when the rank is asleep, matching Channel::earliest()).
  Cycle earliest_required(const dram::Coord& c, AccessType type) const {
    const dram::Channel::ScanGates& g = gates(c.rank);
    if (!g.active) return kCycleNever;
    const std::size_t u = chan_->unit_of(c);
    if (!chan_->unit_open(u)) return chan_->earliest_act_at(u, g);
    if (chan_->unit_row(u) == c.row)
      return type == AccessType::Read ? chan_->earliest_rd_at(u, g)
                                      : chan_->earliest_wr_at(u, g);
    return chan_->earliest_pre_at(u, g);
  }
  /// Fused legality + row-hit classification: 0 = the required command is
  /// not legal at now_, 1 = legal, 2 = legal and a row hit. One unit lookup
  /// where the issuable()/row_hit() pair cost two.
  int issue_class(const dram::Coord& c, AccessType type) const {
    const dram::Channel::ScanGates& g = gates(c.rank);
    if (!g.active) return 0;
    const std::size_t u = chan_->unit_of(c);
    if (!chan_->unit_open(u)) return chan_->earliest_act_at(u, g) <= now_ ? 1 : 0;
    if (chan_->unit_row(u) == c.row) {
      const Cycle e = type == AccessType::Read ? chan_->earliest_rd_at(u, g)
                                               : chan_->earliest_wr_at(u, g);
      return e <= now_ ? 2 : 0;
    }
    return chan_->earliest_pre_at(u, g) <= now_ ? 1 : 0;
  }
  /// issue_class off a QueueScanMeta entry: identical classification (the
  /// meta carries this request's precomputed unit_of, row and direction)
  /// without touching the QueuedRequest itself. Force-inlined: this runs
  /// per queue entry inside every scheduler's pick scan, and the call
  /// frame otherwise costs as much as the classification.
  [[gnu::always_inline]] inline int issue_class(const QueueScanMeta& m) const {
    const std::size_t u = m.unit;
    const dram::Channel::ScanGates& g = gates(chan_->unit_rank(u));
    if (!g.active) return 0;
    if (!chan_->unit_open(u)) return chan_->earliest_act_at(u, g) <= now_ ? 1 : 0;
    if (chan_->unit_row(u) == m.row) {
      const Cycle e = (m.flags & QueueScanMeta::kWrite) ? chan_->earliest_wr_at(u, g)
                                                        : chan_->earliest_rd_at(u, g);
      return e <= now_ ? 2 : 0;
    }
    return chan_->earliest_pre_at(u, g) <= now_ ? 1 : 0;
  }

 private:
  const dram::Channel::ScanGates& gates(std::uint32_t rank) const {
    if (gate_epoch_[rank] != epoch_) {
      gate_epoch_[rank] = epoch_;
      gates_[rank] = chan_->scan_gates(rank, now_);
    }
    return gates_[rank];
  }

  const dram::Channel* chan_ = nullptr;
  bool enabled_ = false;
  Cycle now_ = kCycleNever;
  std::uint64_t version_ = ~std::uint64_t{0};
  std::uint64_t epoch_ = 1;  // gate slots start at 0 => initially stale
  mutable std::vector<dram::Channel::ScanGates> gates_;
  mutable std::vector<std::uint64_t> gate_epoch_;
};

/// Read-only view of controller state offered to a scheduler each decision.
struct SchedView {
  const dram::Channel* chan = nullptr;
  Cycle now = 0;
  const std::vector<CoreState>* cores = nullptr;
  SchedTimingCache* cache = nullptr;  // optional per-cycle timing memo
  // True when the active queue's live entries have non-decreasing
  // req.arrive (the controller tracks this per queue on enqueue; requests
  // are stamped with the enqueue cycle, so it holds in practice). Then
  // "oldest in class" = "first in class", and first-ready schedulers may
  // return at the first match instead of completing an argmin scan.
  // Hand-built views default to false and take the order-agnostic path.
  bool arrive_sorted = false;
  // Index-parallel scan metadata for the active queue (null for hand-built
  // views; the controller wires its per-queue array in). When present with
  // the cache, live(i)/issue_class_at(i) answer off 16-byte entries without
  // touching the queue structs — byte-identical results by construction.
  const QueueScanMeta* meta = nullptr;
  // Per-unit legality, chains and per-core counts of the active queue
  // (requires meta). The controller sets it on every pick; null in
  // hand-built views, where pickers scan.
  const UnitTable* units = nullptr;

  [[gnu::always_inline]] inline bool live(std::size_t i,
                                          const std::vector<QueuedRequest>& q) const {
    return meta ? (meta[i].flags & QueueScanMeta::kLive) != 0 : q[i].live;
  }
  [[gnu::always_inline]] inline int issue_class_at(
      std::size_t i, const std::vector<QueuedRequest>& q) const {
    if (meta && cache) return cache->issue_class(meta[i]);
    return issue_class(q[i]);
  }

  bool row_hit(const QueuedRequest& q) const {
    if (cache) return cache->row_hit(q.coord);
    return chan->bank_open(q.coord) && chan->open_row(q.coord) == q.coord.row;
  }
  /// The command this request needs next (Act / Pre / Rd / Wr).
  dram::Cmd required_cmd(const QueuedRequest& q) const {
    if (cache) return cache->required_cmd(q.coord, q.req.type);
    return chan->required_cmd(q.coord, q.req.type);
  }
  /// Earliest legal cycle of that command (kCycleNever if the rank is in a
  /// low-power state — the controller must wake it first).
  Cycle earliest(const QueuedRequest& q) const {
    if (cache) return cache->earliest_required(q.coord, q.req.type);
    return chan->earliest(chan->required_cmd(q.coord, q.req.type), q.coord, now);
  }
  /// True if the next command this request needs can issue this cycle.
  bool issuable(const QueuedRequest& q) const { return earliest(q) <= now; }
  /// Fused issuable()/row_hit() truth table in one bank lookup:
  /// 0 = not issuable this cycle, 1 = issuable, 2 = issuable row hit.
  /// (Row hits on non-issuable requests classify as 0 — the first-ready
  /// scan loops only ever consult row_hit after issuable passes.)
  int issue_class(const QueuedRequest& q) const {
    if (cache) return cache->issue_class(q.coord, q.req.type);
    if (earliest(q) > now) return 0;
    return row_hit(q) ? 2 : 1;
  }
};

inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Chooses the index of the request to advance, or kNoPick to idle.
  /// `q` is the active queue (reads or writes, chosen by the controller).
  virtual std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& view) = 0;

  /// Called when a request's data burst is issued (service granted).
  virtual void on_service(const QueuedRequest&, const SchedView&) {}

  /// Called when the controller admits a request into a queue (reads into
  /// the read queue, writes into the write queue), after it is appended.
  /// A policy whose next_event depends on queue occupancy counts arrivals
  /// here: an enqueue can happen between two of the controller's ticks.
  virtual void on_enqueue(const QueuedRequest&) {}

  /// Periodic housekeeping (quantum boundaries etc.); called every cycle.
  virtual void tick(const SchedView&, std::vector<QueuedRequest>&) {}

  /// Earliest cycle at which this policy's *time-triggered* state needs a
  /// tick (quantum/shuffle boundaries, blacklist clears, sampling windows,
  /// per-decision learning). One term of the controller's busy-queue
  /// skip-ahead lower bound; values <= now mean "tick me next cycle" (the
  /// controller clamps), kCycleNever means the policy has no time-triggered
  /// state — its decisions depend only on queue/bank/service state, which
  /// cannot change across a gap where no command can issue. The default
  /// keeps unported schedulers on the always-safe per-cycle cadence.
  virtual Cycle next_event(Cycle now) const { return now + 1; }

  /// True when pick() is a pure function of its arguments and the policy's
  /// current state — no internal mutation, no RNG draw. The controller may
  /// then elide pick() calls it can prove cannot lead to an issue (no
  /// queued request's command is legal this cycle): for a pure pick the
  /// elided call is observably identical, because a pick that is not
  /// issuable is rejected by the controller before any state changes.
  /// Impure policies (the RL scheduler learns and advances its RNG inside
  /// pick) must keep the default so their decision stream is untouched.
  /// Defaults to false: unknown external policies keep exact call cadence.
  virtual bool pick_is_pure() const { return false; }

  /// Exposes policy-internal statistics (decision counts, learning state)
  /// under `prefix`. Default: none.
  virtual void register_stats(obs::StatRegistry&, const std::string& /*prefix*/) const {}

  /// Routes per-decision trace events into `sink` (null detaches). Default:
  /// no tracing; the controller still traces command issue.
  virtual void set_trace(obs::TraceSink*) {}

  /// Checkpoint the policy's mutable state (learned tables, streak/quantum
  /// counters, RNG streams). The restore target is constructed by the same
  /// factory with the same arguments, so configuration is not serialized —
  /// the controller writes and verifies name() around these calls to catch
  /// kind mismatches. Stateless policies keep the empty defaults.
  virtual void save_state(ckpt::Sink&) const {}
  virtual void load_state(ckpt::Source&) {}

  virtual std::string name() const = 0;
};

enum class SchedKind : std::uint8_t {
  Fcfs,
  FrFcfs,
  FrFcfsCap,
  ParBs,
  Atlas,
  Tcm,
  Bliss,
  Rl,
};

const char* to_string(SchedKind k);

/// Factory. `num_cores` sizes per-core bookkeeping; `seed` feeds stochastic
/// policies (TCM shuffle, RL exploration).
std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, std::uint32_t num_cores,
                                          std::uint64_t seed = 1);

/// RL scheduler with explicit hyperparameters (for the learning-rate and
/// feature ablations in bench_c5).
std::unique_ptr<Scheduler> make_rl(std::uint32_t num_cores, std::uint64_t seed,
                                   double alpha, double epsilon);

/// MISE slowdown-estimating scheduler (Subramanian et al., HPCA 2013
/// [117]): FR-FCFS plus a rotating highest-priority sampler that measures
/// each app's alone service rate online.
std::unique_ptr<Scheduler> make_mise(std::uint32_t num_cores, Cycle epoch = 50'000);

/// Reads the estimates off a scheduler created by make_mise.
std::vector<double> mise_estimated_slowdowns(const Scheduler& sched);

// --- shared helpers for scheduler implementations ---

/// The two first-ready candidates, read off a SchedView's unit table:
/// `hit` is the oldest live request whose RD/WR is legal now and whose
/// unit `accept_hit` admits; `ready` is the oldest live request whose
/// required command is legal now, hits included. "Oldest" is the scan's
/// argmin: lowest index on an arrive-sorted queue, else lowest
/// (arrive, index). Both kNoPick when no queued command is legal.
struct FirstReady {
  std::size_t hit = kNoPick;
  std::size_t ready = kNoPick;
};

/// Folds over the occupied units of `v.units` and walks only the chains of
/// units with a legal command. The RD/WR class of a unit is its entries on
/// the open row; `accept_hit(r)` is asked once per unit, on its first such
/// entry (every one shares rank, bank and row), and a refused unit's hits
/// still count as ready.
template <typename AcceptHit>
FirstReady first_ready_by_unit(const std::vector<QueuedRequest>& q, const SchedView& v,
                               AcceptHit&& accept_hit) {
  const UnitTable& t = *v.units;
  const QueueScanMeta* meta = v.meta;
  const bool sorted = v.arrive_sorted;
  const auto before = [&](std::size_t i, std::size_t best) {
    if (best == kNoPick) return true;
    if (sorted) return i < best;
    const Cycle a = q[i].req.arrive, b = q[best].req.arrive;
    return a < b || (a == b && i < best);
  };
  FirstReady r;
  for (std::size_t k = 0; k < t.count; ++k) {
    const std::uint32_t u = t.units[k];
    const bool hit_ok = t.slots[u].hit_at <= v.now;
    const bool ready_ok = t.slots[u].ready_at <= v.now;
    if (!hit_ok && !ready_ok) continue;
    const bool open = v.chan->unit_open(u);
    const std::uint32_t row = v.chan->unit_row(u);
    // Whether this unit's hits may still win: unknown (-1) until the first
    // one is put to accept_hit.
    int accepted = -1;
    for (std::uint32_t i = t.slots[u].head; i != QueueScanMeta::kChainEnd; i = meta[i].next) {
      const QueueScanMeta& m = meta[i];
      if (!(m.flags & QueueScanMeta::kLive)) continue;
      // Sorted chains run in index order, and ready <= hit: nothing past
      // the best hit can change either answer.
      if (sorted && r.hit <= i) break;
      const bool match = open && m.row == row;
      if (match ? !hit_ok : !ready_ok) continue;
      if (before(i, r.ready)) r.ready = i;
      if (match) {
        if (accepted < 0) accepted = accept_hit(q[i]) ? 1 : 0;
        if (accepted) {
          if (before(i, r.hit)) r.hit = i;
          if (sorted) break;  // later entries of this chain are younger
        }
      }
      // Sorted: this unit's first legal entry is its ready candidate; walk
      // on only while an admitted hit may still follow.
      if (sorted && !(hit_ok && accepted != 0)) break;
    }
  }
  return r;
}

/// The ranked policies' pick off a SchedView's unit table: the live request
/// whose required command is legal now that minimises (key(r, hit), !hit,
/// age), where `hit` says the request is a legal row hit and age is the
/// index on an arrive-sorted queue, else (arrive, index) — the ranked
/// scans' strict comparison with its lowest-index tie-break. kNoPick when
/// no queued command is legal. Like first_ready_by_unit it skips units
/// with no legal class, but it walks each remaining chain to its end: the
/// key varies per request, so a unit's first candidate does not stand for
/// the rest.
template <typename Key>
std::size_t ranked_by_unit(const std::vector<QueuedRequest>& q, const SchedView& v,
                           Key&& key) {
  const UnitTable& t = *v.units;
  const QueueScanMeta* meta = v.meta;
  const bool sorted = v.arrive_sorted;
  std::size_t best = kNoPick;
  std::uint64_t b_key = ~std::uint64_t{0};
  bool b_hit = false;
  for (std::size_t k = 0; k < t.count; ++k) {
    const std::uint32_t u = t.units[k];
    const bool hit_ok = t.slots[u].hit_at <= v.now;
    const bool ready_ok = t.slots[u].ready_at <= v.now;
    if (!hit_ok && !ready_ok) continue;
    const bool open = v.chan->unit_open(u);
    const std::uint32_t row = v.chan->unit_row(u);
    for (std::uint32_t i = t.slots[u].head; i != QueueScanMeta::kChainEnd; i = meta[i].next) {
      const QueueScanMeta& m = meta[i];
      // Scored without branching on the entry: these tests are data
      // dependent, and a mispredict costs more than scoring a tombstone or
      // an illegal entry that then cannot win.
      const bool hit = open & (m.row == row);
      const bool legal = ((m.flags & QueueScanMeta::kLive) != 0) & (hit ? hit_ok : ready_ok);
      const std::uint64_t kv = key(q[i], hit);
      bool older = i < best;
      if (!sorted && best != kNoPick) {
        const Cycle a = q[i].req.arrive, b = q[best].req.arrive;
        older = a < b || (a == b && i < best);
      }
      const bool better =
          legal & ((kv < b_key) | ((kv == b_key) & ((hit & !b_hit) | ((hit == b_hit) & older))));
      best = better ? i : best;
      b_key = better ? kv : b_key;
      b_hit = better ? hit : b_hit;
    }
  }
  return best;
}

/// Oldest live request by arrival among those satisfying `pred`; kNoPick if
/// none. Ties resolve to the lowest index (= insertion order), so served
/// tombstones must be compacted stably — reordering survivors would change
/// picks.
template <typename Pred>
std::size_t oldest_where(const std::vector<QueuedRequest>& q, Pred&& pred) {
  std::size_t best = kNoPick;
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (!q[i].live || !pred(q[i])) continue;
    if (best == kNoPick || q[i].req.arrive < q[best].req.arrive) best = i;
  }
  return best;
}

}  // namespace ima::mem
