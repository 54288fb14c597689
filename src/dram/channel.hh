// Cycle-level model of one DRAM channel: bank/rank/bus state machines plus
// a timing-constraint checker in the Ramulator style. The model is
// command-accurate: a controller may only issue a command when can_issue()
// holds, and every issued command updates the earliest-allowed cycles of the
// commands it constrains (tRCD, tRAS, tRP, tRC, tCCD, tRRD, tFAW, tWR, tWTR,
// tRTP, tRFC, ...).
//
// Timing state lives in structure-of-arrays form (DESIGN.md "SoA timing
// kernel"): one dense "unit" per independent row buffer — a bank, or a
// (bank, subarray) under SALP — with the open flag, open row and the four
// next-allowed cycles each in their own contiguous array. Whole-rank
// questions (PreAll, REF readiness, the controller's next_event scan) are
// linear sweeps over a contiguous slice, not walks of per-bank structs.
//
// Processing-using-memory commands (RowClone FPM, LISA, Ambit TRA) are
// first-class commands with their own timing/energy and functional effects
// on the DataStore.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/config.hh"
#include "dram/datastore.hh"

namespace ima::obs {
class StatRegistry;
class TraceSink;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::dram {

/// Arguments for PUM commands that reference multiple rows of one bank.
struct PimArgs {
  std::uint32_t src_row = 0;
  std::uint32_t dst_row = 0;
  std::uint32_t row_c = 0;   // third row for TRA
  std::uint32_t hops = 1;    // LISA subarray hops
  bool invert = false;       // AAP through a dual-contact (inverting) row
};

class Channel {
 public:
  /// `data` may be null for timing-only simulation (no functional contents).
  Channel(const DramConfig& cfg, std::uint32_t channel_id, DataStore* data);

  // --- timing interface ---

  /// Earliest cycle >= now at which `cmd` could legally issue, ignoring
  /// state preconditions (open/closed row). kCycleNever if state forbids it.
  Cycle earliest(Cmd cmd, const Coord& c, Cycle now) const;

  bool can_issue(Cmd cmd, const Coord& c, Cycle now) const {
    return earliest(cmd, c, now) <= now;
  }

  /// Monotonically increasing counter bumped by every mutation that can
  /// change the answer of bank_open/open_row/required_cmd/earliest (command
  /// issue, PUM issue, power-state transitions). Memoization layers key
  /// their validity on (cycle, state_version): unchanged version within one
  /// cycle means every timing query would return the same value again.
  std::uint64_t state_version() const { return state_version_; }

  /// Issues `cmd` at cycle `now`. Preconditions checked with assert;
  /// callers must consult can_issue() first.
  void issue(Cmd cmd, const Coord& c, Cycle now);

  /// Activation of a highly-charged row (ChargeCache): same legality rules
  /// as a normal ACT but the bank becomes ready after the reduced
  /// tRCD/tRAS. The caller is responsible for only using this on rows that
  /// were precharged recently (the controller's charge-cache tracks that).
  void issue_act_charged(const Coord& c, Cycle now);

  /// Issues a PUM command (AapFpm / LisaRbm / Tra).
  void issue_pim(Cmd cmd, const Coord& bank_coord, const PimArgs& args, Cycle now);

  // --- state queries used by schedulers ---
  // Under SALP, "open" is per subarray: the coordinate's row selects which
  // subarray's row buffer is consulted.

  bool bank_open(const Coord& c) const { return unit_open_[unit_of(c)] != 0; }
  std::uint32_t open_row(const Coord& c) const { return unit_row_[unit_of(c)]; }
  bool all_banks_closed(std::uint32_t rank) const { return rank_open_units_[rank] == 0; }

  /// The command needed to make progress on an access to `c`:
  /// Act if closed, Rd/Wr if the right row is open, Pre on conflict.
  Cmd required_cmd(const Coord& c, AccessType type) const {
    const std::size_t u = unit_of(c);
    if (!unit_open_[u]) return Cmd::Act;
    if (unit_row_[u] == c.row) return type == AccessType::Read ? Cmd::Rd : Cmd::Wr;
    return Cmd::Pre;
  }

  // --- SoA scan interface (hot-path kernels) ---
  // A "unit" is one independent row buffer: a bank, or a (bank, subarray)
  // pair under SALP. Units of one rank are contiguous:
  //   unit = ((rank * banks + bank) << sub_shift) | subarray_of_row(row)
  // so whole-rank sweeps are linear passes over [rank * units_per_rank,
  // (rank + 1) * units_per_rank). The controller's next_event kernel
  // classifies queued requests from unit_open/unit_row and then folds the
  // per-class minima with earliest_*_at — exactly earliest()'s arithmetic
  // with the rank-level terms hoisted out via scan_gates().

  std::size_t unit_count() const { return unit_open_.size(); }
  std::uint32_t units_per_rank() const { return units_per_rank_; }
  std::size_t unit_of(const Coord& c) const {
    const std::size_t bank = static_cast<std::size_t>(c.rank) * cfg_.geometry.banks + c.bank;
    return (bank << sub_shift_) | (salp_ ? (c.row >> sub_row_shift_) : 0u);
  }
  bool unit_open(std::size_t u) const { return unit_open_[u] != 0; }
  std::uint32_t unit_row(std::size_t u) const { return unit_row_[u]; }
  std::uint32_t unit_rank(std::size_t u) const {
    return static_cast<std::uint32_t>(u >> rank_shift_);
  }
  /// Flat (rank, bank) id of unit `u`: rank * banks + bank. Under SALP the
  /// subarray units of one bank share it and sit next to each other in id
  /// order.
  std::uint32_t bank_of_unit(std::size_t u) const {
    return static_cast<std::uint32_t>(u >> sub_shift_);
  }

  /// Rank-level gates shared by every unit of a rank, folded once per scan:
  /// `t` = max(now, rank ready), the ACT-class gate (tRRD + tFAW), the bus
  /// gates, and whether the rank is awake (asleep => every command is
  /// kCycleNever until the controller wakes it).
  struct ScanGates {
    Cycle t = 0;
    Cycle act = 0;     // max(t, rank next_act, tFAW earliest)
    Cycle bus_rd = 0;  // channel-global RD bus gate
    Cycle bus_wr = 0;
    bool active = false;
  };
  ScanGates scan_gates(std::uint32_t rank, Cycle now) const {
    const RankState& rk = ranks_[rank];
    ScanGates g;
    g.active = rk.power == PowerState::Active;
    g.t = std::max(now, rk.ready);
    g.act = std::max({g.t, rk.next_act, faw_earliest(rk)});
    g.bus_rd = std::max(g.t, bus_next_rd_);
    g.bus_wr = std::max(g.t, bus_next_wr_);
    return g;
  }

  // Class-specific earliest at unit `u`. The caller derived the class from
  // unit_open/unit_row, so the state precondition (closed for Act, open for
  // Pre, matching row for Rd/Wr) holds by construction; `g` must be
  // scan_gates(unit_rank(u), now) of an active rank.
  Cycle earliest_act_at(std::size_t u, const ScanGates& g) const {
    return std::max(g.act, unit_next_act_[u]);
  }
  Cycle earliest_pre_at(std::size_t u, const ScanGates& g) const {
    return std::max(g.t, unit_next_pre_[u]);
  }
  Cycle earliest_rd_at(std::size_t u, const ScanGates& g) const {
    return std::max(g.bus_rd, unit_next_rd_[u]);
  }
  Cycle earliest_wr_at(std::size_t u, const ScanGates& g) const {
    return std::max(g.bus_wr, unit_next_wr_[u]);
  }

  /// All four class-earliest values of one unit in a single pass (the
  /// SchedTimingCache refill kernel). Slots whose state precondition does
  /// not hold carry the unchecked arithmetic value; callers only consult
  /// legal slots (the cache keys the slot off open/open_row itself).
  struct UnitTimes {
    Cycle act, pre, rd, wr;
  };
  UnitTimes unit_times(const Coord& c, Cycle now) const {
    const ScanGates g = scan_gates(c.rank, now);
    const std::size_t u = unit_of(c);
    if (!g.active) return UnitTimes{kCycleNever, kCycleNever, kCycleNever, kCycleNever};
    return UnitTimes{earliest_act_at(u, g), earliest_pre_at(u, g), earliest_rd_at(u, g),
                     earliest_wr_at(u, g)};
  }

  /// Bulk kernel behind earliest(Ref): the cycle every unit of `rank` has
  /// cleared its ACT gate — a linear max-sweep over the rank's contiguous
  /// next_act slice. Refresh policies hit this via can_issue(Ref) on every
  /// overdue cycle; the skip-ahead clock sees it through their next_event.
  Cycle min_next_ready(std::uint32_t rank, Cycle now) const {
    Cycle e = std::max(now, ranks_[rank].ready);
    const std::size_t base = static_cast<std::size_t>(rank) * units_per_rank_;
    for (std::size_t u = base; u < base + units_per_rank_; ++u)
      e = std::max(e, unit_next_act_[u]);
    return e;
  }

  // --- bookkeeping ---

  struct Stats {
    std::uint64_t acts = 0, pres = 0, rds = 0, wrs = 0;
    std::uint64_t charged_acts = 0;  // ChargeCache fast activations
    std::uint64_t refs = 0, ref_rows = 0;
    std::uint64_t aaps = 0, lisa_hops = 0, tras = 0;
    PicoJoule cmd_energy = 0;   // everything except background
    PicoJoule bus_energy = 0;   // included in cmd_energy; tracked separately
  };
  const Stats& stats() const { return stats_; }

  /// Registers the per-command counters and energy gauges under `prefix`.
  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const;

  /// Flight-recorder dump: per-rank power/ready state and every open bank's
  /// row. Human-readable; embedded in watchdog artifacts.
  void dump(std::ostream& os, Cycle now) const;

  /// Records every issued command (incl. refresh and PUM) into `sink`;
  /// null detaches. The channel is the single funnel for DRAM commands, so
  /// this one hook yields the full command-level timeline.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  // --- rank power states (MemScale line [127,132]) ---

  enum class PowerState : std::uint8_t { Active, PowerDown, SelfRefresh };

  /// Enters a low-power state (requires all banks of the rank closed; the
  /// caller manages that). Accounts background energy up to `now`.
  void enter_power_state(std::uint32_t rank, PowerState state, Cycle now);

  /// Wakes the rank; commands become legal after the exit latency
  /// (tXP / tXS). Idempotent when already active.
  void wake_rank(std::uint32_t rank, Cycle now);

  PowerState rank_power(std::uint32_t rank) const { return ranks_[rank].power; }

  /// Background (standby) energy up to cycle `now`, weighted by the time
  /// each rank spent in each power state.
  PicoJoule background_energy(Cycle now) const;

  /// Hook invoked on every row activation (ACT and each activation inside a
  /// PUM command) — this is where RowHammer trackers tap in.
  using ActHook = std::function<void(const Coord&, Cycle)>;
  void set_act_hook(ActHook hook) { act_hook_ = std::move(hook); }

  /// Hook invoked on every blanket (all-bank) REF of a rank.
  using RefHook = std::function<void(std::uint32_t rank, Cycle)>;
  void set_ref_hook(RefHook hook) { ref_hook_ = std::move(hook); }

  /// Completion latency of a PUM command (issue -> bank free).
  Cycle pim_latency(Cmd cmd, const PimArgs& args) const;

  const DramConfig& config() const { return cfg_; }
  DataStore* data() { return data_; }
  std::uint32_t id() const { return id_; }

  /// Latency from RD issue to data availability.
  Cycle read_latency() const { return cfg_.timings.read_latency(); }

  /// Checkpoint the full SoA timing state (incl. SALP units and the tFAW
  /// ring), rank power/energy accounting, bus gates, and stats. Hooks and
  /// trace sinks are rewired by the owner, not serialized.
  void save_state(ckpt::Sink& s) const;
  void load_state(ckpt::Source& s);

 private:
  // tFAW constrains the fifth activation in any window of four: a 4-slot
  // ring indexed by the running activation count replaces the deque the
  // hot ACT path used to reallocate.
  static constexpr std::uint32_t kFawWindow = 4;

  struct RankState {
    Cycle next_act = 0;               // tRRD
    Cycle ready = 0;                  // tRFC after REF / power-state exit
    Cycle act_ring[kFawWindow] = {};  // last kFawWindow ACT cycles
    std::uint64_t acts = 0;           // ring write cursor = acts % kFawWindow
    PowerState power = PowerState::Active;
    Cycle power_since = 0;            // start of the current power-state segment
    PicoJoule bg_accum = 0;           // background energy of finished segments
  };

  double power_scale(PowerState s) const {
    switch (s) {
      case PowerState::PowerDown: return cfg_.energy.powerdown_scale;
      case PowerState::SelfRefresh: return cfg_.energy.selfrefresh_scale;
      default: return 1.0;
    }
  }

  Cycle faw_earliest(const RankState& r) const {
    if (r.acts < kFawWindow) return 0;
    // Oldest of the last kFawWindow ACTs = the slot the next ACT overwrites.
    return r.act_ring[r.acts % kFawWindow] + cfg_.timings.faw;
  }

  void record_act(const Coord& c, std::uint32_t row, Cycle now);

  void open_unit(std::size_t u, std::uint32_t row) {
    if (!unit_open_[u]) {
      unit_open_[u] = 1;
      ++bank_open_units_[bank_of_unit(u)];
      ++rank_open_units_[unit_rank(u)];
    }
    unit_row_[u] = row;
  }
  void close_unit(std::size_t u) {
    if (unit_open_[u]) {
      unit_open_[u] = 0;
      --bank_open_units_[bank_of_unit(u)];
      --rank_open_units_[unit_rank(u)];
    }
  }

  DramConfig cfg_;
  std::uint32_t id_;
  DataStore* data_;
  std::uint64_t state_version_ = 0;

  // SoA unit state: parallel arrays indexed by the flat unit id.
  std::vector<std::uint8_t> unit_open_;
  std::vector<std::uint32_t> unit_row_;
  std::vector<Cycle> unit_next_act_;
  std::vector<Cycle> unit_next_pre_;
  std::vector<Cycle> unit_next_rd_;
  std::vector<Cycle> unit_next_wr_;
  // Open-unit counters: all_banks_closed and the SALP "bank fully closed"
  // PUM precondition in O(1) instead of a unit sweep.
  std::vector<std::uint32_t> bank_open_units_;  // per flat (rank, bank)
  std::vector<std::uint32_t> rank_open_units_;  // per rank

  bool salp_ = false;
  std::uint32_t units_per_rank_ = 0;
  std::uint32_t sub_shift_ = 0;      // log2(units per bank)
  std::uint32_t sub_row_shift_ = 0;  // log2(rows per subarray)
  std::uint32_t rank_shift_ = 0;     // log2(units per rank)

  std::vector<RankState> ranks_;
  Cycle bus_next_rd_ = 0;
  Cycle bus_next_wr_ = 0;
  Stats stats_;
  ActHook act_hook_;
  RefHook ref_hook_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace ima::dram
