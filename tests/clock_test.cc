// Cycle-exactness golden tests for the event-driven clocking kernel
// (common/clock.hh): ClockMode::SkipAhead must reproduce the legacy
// ClockMode::PerCycle loop bit-for-bit — identical final cycle counts and
// identical StatRegistry snapshots — across every scheduler kind, every
// refresh policy, RowHammer mitigation, rank power management, runahead
// cores and prefetchers. Any skipped cycle that would have changed state
// shows up here as a stats diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "common/rng.hh"
#include "hybrid/hybrid.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "mem/rowhammer.hh"
#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"
#include "sim/system.hh"
#include "workloads/stream.hh"

using namespace ima;

namespace {

void expect_identical(const obs::StatRegistry::Snapshot& per_cycle,
                      const obs::StatRegistry::Snapshot& skip_ahead) {
  ASSERT_EQ(per_cycle.size(), skip_ahead.size());
  for (std::size_t i = 0; i < per_cycle.values.size(); ++i) {
    EXPECT_EQ(per_cycle.values[i].path, skip_ahead.values[i].path);
    EXPECT_EQ(per_cycle.values[i].value, skip_ahead.values[i].value)
        << "stat diverges between clock modes: " << per_cycle.values[i].path;
  }
}

std::vector<std::unique_ptr<workloads::AccessStream>> make_streams(std::uint32_t n,
                                                                   std::uint32_t compute) {
  std::vector<std::unique_ptr<workloads::AccessStream>> v;
  for (std::uint32_t i = 0; i < n; ++i) {
    workloads::StreamParams p;
    p.footprint = 8ull << 20;
    p.compute_per_access = compute;
    p.seed = 11 + i;
    if (i % 2 == 0) v.push_back(workloads::make_random(p));
    else v.push_back(workloads::make_streaming(p));
  }
  return v;
}

struct RunResult {
  Cycle end = 0;
  obs::StatRegistry::Snapshot snap;
};

RunResult run_system(sim::ClockMode mode, const std::function<void(sim::SystemConfig&)>& tweak,
                     const std::function<void(sim::System&)>& wire = nullptr,
                     std::uint32_t compute = 4, Cycle max_cycles = 5'000'000) {
  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.ctrl.num_cores = 2;
  cfg.core.instr_limit = 4'000;
  if (tweak) tweak(cfg);
  cfg.clock = mode;
  // Lifecycle spans on in every golden run: the span recorders (and their
  // registered percentile paths) must themselves be clock-mode invariant.
  cfg.ctrl.record_spans = true;
  sim::System sys(cfg, make_streams(cfg.num_cores, compute));
  if (wire) wire(sys);
  obs::StatRegistry reg;
  sys.register_stats(reg);
  RunResult r;
  r.end = sys.run(max_cycles);
  r.snap = reg.snapshot();
  return r;
}

void expect_modes_match(const std::function<void(sim::SystemConfig&)>& tweak,
                        const std::function<void(sim::System&)>& wire = nullptr,
                        std::uint32_t compute = 4, Cycle max_cycles = 5'000'000) {
  const RunResult pc = run_system(sim::ClockMode::PerCycle, tweak, wire, compute, max_cycles);
  const RunResult sa = run_system(sim::ClockMode::SkipAhead, tweak, wire, compute, max_cycles);
  ASSERT_EQ(pc.end, sa.end) << "final cycle count diverges between clock modes";
  expect_identical(pc.snap, sa.snap);
  // Sanity: the run did real work in bounded time.
  ASSERT_GT(pc.end, 0u);
  ASSERT_LT(pc.end, max_cycles);
}

TEST(ClockKernel, NextCycleSemantics) {
  using sim::ClockMode;
  using sim::next_cycle;
  // Per-cycle always advances by one.
  EXPECT_EQ(next_cycle(ClockMode::PerCycle, 10, 100, 50), 11u);
  // Skip-ahead jumps to the reported event, clamped to the limit.
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, 50), 50u);
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 40, 50), 40u);
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, kCycleNever), 100u);
  // Stale/degenerate reports fall back to per-cycle progress.
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, 10), 11u);
  EXPECT_EQ(next_cycle(ClockMode::SkipAhead, 10, 100, 0), 11u);
}

TEST(ClockKernel, RunEventLoopMatchesLegacyShapes) {
  // done-after-tick: the returned cycle is the cycle just ticked.
  std::vector<Cycle> ticked;
  const Cycle end = sim::run_event_loop(
      sim::ClockMode::SkipAhead, 0, 100, [&](Cycle now) { ticked.push_back(now); },
      [&] { return ticked.size() >= 3; }, [](Cycle now) { return now + 10; });
  EXPECT_EQ(end, 20u);
  EXPECT_EQ(ticked, (std::vector<Cycle>{0, 10, 20}));
  // Limit reached without done: returns the limit.
  const Cycle capped = sim::run_event_loop(
      sim::ClockMode::SkipAhead, 0, 25, [](Cycle) {}, [] { return false; },
      [](Cycle now) { return now + 10; });
  EXPECT_EQ(capped, 25u);
}

TEST(ClockExact, AllSchedulerKinds) {
  for (const auto kind :
       {mem::SchedKind::Fcfs, mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
        mem::SchedKind::ParBs, mem::SchedKind::Atlas, mem::SchedKind::Tcm,
        mem::SchedKind::Bliss, mem::SchedKind::Rl}) {
    SCOPED_TRACE(mem::to_string(kind));
    expect_modes_match([kind](sim::SystemConfig& cfg) { cfg.ctrl.sched = kind; });
  }
}

TEST(ClockExact, MiseScheduler) {
  expect_modes_match(nullptr, [](sim::System& sys) {
    sys.memory().controller(0).set_scheduler(mem::make_mise(2));
  });
}

TEST(ClockExact, RefreshPolicies) {
  // No refresh.
  expect_modes_match(nullptr, [](sim::System& sys) {
    sys.memory().controller(0).set_refresh_policy(mem::make_no_refresh());
  });
  // All-bank at the default and a stretched interval.
  expect_modes_match(nullptr);
  expect_modes_match(nullptr, [](sim::System& sys) {
    const auto& cfg = sys.memory().dram_config();
    sys.memory().controller(0).set_refresh_policy(mem::make_all_bank_refresh(cfg, 2.0));
  });
  // RAIDR with a generated retention profile.
  expect_modes_match(nullptr, [](sim::System& sys) {
    const auto& g = sys.memory().dram_config().geometry;
    const std::uint64_t rows = g.rows_per_bank() * g.banks * g.ranks;
    auto profile = mem::RetentionProfile::generate(rows);
    sys.memory().controller(0).set_refresh_policy(
        mem::make_raidr(sys.memory().dram_config(), std::move(profile)));
  });
}

TEST(ClockExact, RowHammerMitigation) {
  const RunResult pc =
      run_system(sim::ClockMode::PerCycle,
                 [](sim::SystemConfig& cfg) { cfg.ctrl.sched = mem::SchedKind::Fcfs; },
                 [](sim::System& sys) {
                   sys.memory().controller(0).set_rowhammer(mem::make_para(0.7, 9));
                 });
  const RunResult sa =
      run_system(sim::ClockMode::SkipAhead,
                 [](sim::SystemConfig& cfg) { cfg.ctrl.sched = mem::SchedKind::Fcfs; },
                 [](sim::System& sys) {
                   sys.memory().controller(0).set_rowhammer(mem::make_para(0.7, 9));
                 });
  ASSERT_EQ(pc.end, sa.end);
  expect_identical(pc.snap, sa.snap);
  // The config must actually have exercised the victim-refresh path.
  EXPECT_GT(sa.snap.at("sys.mem.ctrl0.victim_refreshes").value_or(0), 0.0);
}

TEST(ClockExact, RankPowerManagement) {
  // Long compute bursts create the idle gaps power management needs; the
  // power-state thresholds and refresh wakes must land on the same cycles
  // in both modes.
  const auto tweak = [](sim::SystemConfig& cfg) {
    cfg.core.instr_limit = 60'000;
    cfg.ctrl.powerdown_timeout = 400;
    cfg.ctrl.selfrefresh_timeout = 4'000;
  };
  const RunResult pc = run_system(sim::ClockMode::PerCycle, tweak, nullptr, 20'000);
  const RunResult sa = run_system(sim::ClockMode::SkipAhead, tweak, nullptr, 20'000);
  ASSERT_EQ(pc.end, sa.end);
  expect_identical(pc.snap, sa.snap);
  EXPECT_GT(sa.snap.at("sys.mem.ctrl0.powerdowns").value_or(0), 0.0);
  EXPECT_GT(sa.snap.at("sys.mem.ctrl0.selfrefreshes").value_or(0), 0.0);
}

TEST(ClockExact, RunaheadAndPrefetch) {
  expect_modes_match([](sim::SystemConfig& cfg) {
    cfg.core.runahead = true;
    cfg.prefetch = sim::PrefetchKind::Stride;
  });
}

TEST(ClockExact, ResumedRunsMatch) {
  // run() is resumable (the claims suite runs phase by phase); the event
  // kernel must keep the same final state across split runs.
  const auto run_split = [](sim::ClockMode mode) {
    sim::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.ctrl.num_cores = 2;
    cfg.core.instr_limit = 4'000;
    cfg.clock = mode;
    sim::System sys(cfg, make_streams(2, 4));
    obs::StatRegistry reg;
    sys.register_stats(reg);
    Cycle end = 0;
    for (int phase = 0; phase < 50; ++phase) end = sys.run((phase + 1) * 10'000);
    end = sys.run(5'000'000);
    return std::pair<Cycle, obs::StatRegistry::Snapshot>(end, reg.snapshot());
  };
  const auto pc = run_split(sim::ClockMode::PerCycle);
  const auto sa = run_split(sim::ClockMode::SkipAhead);
  ASSERT_EQ(pc.first, sa.first);
  expect_identical(pc.second, sa.second);
}

mem::Request make_req(Addr addr, AccessType type, Cycle arrive) {
  mem::Request r;
  r.addr = addr;
  r.type = type;
  r.arrive = arrive;
  return r;
}

// Saturated-queue golden rows: MLP-window injectors keep the controller
// queues full, the regime where the precise busy-controller next_event
// bound (rather than the old blanket now + 1) decides which cycles are
// skipped. Every scheduler kind must stay cycle-exact here with refresh,
// PARA RowHammer and rank power management all enabled — PAR-BS's
// arrival-sensitive batch formation regressed in exactly this scenario
// class during development. `sched_sel` is a SchedKind, or -1 for MISE.
// `visits`, when given, counts the loop's visits over the loaded span.
constexpr Cycle kLoadedSpan = 120'000;
std::pair<Cycle, obs::StatRegistry::Snapshot> run_loaded(sim::ClockMode mode, int sched_sel,
                                                         std::uint64_t* visits = nullptr) {
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  mem::ControllerConfig ctrl;
  ctrl.num_cores = 4;
  ctrl.record_spans = true;
  ctrl.powerdown_timeout = 400;
  ctrl.selfrefresh_timeout = 4'000;
  if (sched_sel >= 0) ctrl.sched = static_cast<mem::SchedKind>(sched_sel);
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.set_clock_mode(mode);
  if (sched_sel < 0) sys.controller(0).set_scheduler(mem::make_mise(4));
  sys.controller(0).set_rowhammer(mem::make_para(0.7, 9));
  obs::StatRegistry reg;
  sys.register_stats(reg, "mem");

  struct Injector {
    std::unique_ptr<workloads::AccessStream> stream;
    std::uint32_t mlp = 0;
    std::uint32_t outstanding = 0;
  };
  std::vector<Injector> cores;
  workloads::StreamParams p;
  p.footprint = 48ull << 20;
  p.seed = 101;
  cores.push_back({workloads::make_streaming(p), 16, 0});  // bandwidth hog
  p.base = 1ull << 30;
  ++p.seed;
  cores.push_back({workloads::make_random(p), 2, 0});  // latency-sensitive
  p.base = 2ull << 30;
  ++p.seed;
  cores.push_back({workloads::make_row_local(p, 24, 8192), 8, 0});
  p.base = 3ull << 30;
  ++p.seed;
  cores.push_back({workloads::make_zipf(p, 0.9), 4, 0});

  Cycle now = sim::run_event_loop(
      mode, 0, kLoadedSpan,
      [&](Cycle t) {
        if (visits) ++*visits;
        for (std::size_t i = 0; i < cores.size(); ++i) {
          auto& c = cores[i];
          while (c.outstanding < c.mlp) {
            const auto e = c.stream->next();
            mem::Request r = make_req(e.addr, e.type, t);
            r.core = static_cast<std::uint32_t>(i);
            if (!sys.can_accept(r.addr, r.type, r.core)) break;
            ++c.outstanding;
            if (!sys.enqueue(r, [&c](const mem::Request&) { --c.outstanding; })) {
              --c.outstanding;
              break;
            }
          }
        }
        sys.tick(t);
      },
      [] { return false; },
      [&](Cycle t) {
        for (const auto& c : cores)
          if (c.outstanding < c.mlp) return t + 1;
        return sys.next_event(t);
      });

  // Stop injecting and drain, then cross an idle gap and issue a short
  // burst: the refresh catch-up and rank power-state accounting deferred
  // across the gap must land on the same cycles in both modes too.
  now = sys.drain(now);
  now += 20'000;
  const auto& g = dram_cfg.geometry;
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(
        sys.enqueue(make_req(static_cast<Addr>(i) * g.row_bytes() * 5, AccessType::Read, now)));
  now = sys.drain(now);
  return {now, reg.snapshot()};
}

TEST(ClockExact, LoadedQueueAllSchedulers) {
  for (int sel = -1; sel <= static_cast<int>(mem::SchedKind::Rl); ++sel) {
    SCOPED_TRACE(sel < 0 ? "MISE" : mem::to_string(static_cast<mem::SchedKind>(sel)));
    const auto pc = run_loaded(sim::ClockMode::PerCycle, sel);
    const auto sa = run_loaded(sim::ClockMode::SkipAhead, sel);
    ASSERT_EQ(pc.first, sa.first) << "final cycle diverges under load";
    expect_identical(pc.second, sa.second);
    // The run must actually have saturated the queue and exercised the
    // RowHammer mitigation it claims to cover.
    EXPECT_GT(sa.second.at("mem.ctrl0.reads_done").value_or(0), 1000.0);
    EXPECT_GT(sa.second.at("mem.ctrl0.victim_refreshes").value_or(0), 0.0);
  }
}

TEST(SchedVisits, ParBsSkipsBetweenBatches) {
  // PAR-BS asks for every cycle only while a batch formation is pending;
  // between formations the loaded loop skips about as often as under
  // FR-FCFS, which has no clocked state at all.
  std::uint64_t par_bs = 0, fr_fcfs = 0;
  run_loaded(sim::ClockMode::SkipAhead, static_cast<int>(mem::SchedKind::ParBs), &par_bs);
  run_loaded(sim::ClockMode::SkipAhead, static_cast<int>(mem::SchedKind::FrFcfs), &fr_fcfs);
  EXPECT_LT(par_bs * 2, kLoadedSpan);
  EXPECT_LT(par_bs * 10, fr_fcfs * 11);
}

TEST(Spans, StagesSumExactlyToEndToEnd) {
  // The lifecycle decomposition must lose nothing and double-count
  // nothing: queue + stall + refresh + xfer == end-to-end, summed over
  // every retired read, in both clock modes.
  for (const auto mode : {sim::ClockMode::PerCycle, sim::ClockMode::SkipAhead}) {
    SCOPED_TRACE(mode == sim::ClockMode::PerCycle ? "PerCycle" : "SkipAhead");
    sim::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.ctrl.num_cores = 2;
    cfg.core.instr_limit = 4'000;
    cfg.ctrl.record_spans = true;
    cfg.clock = mode;
    sim::System sys(cfg, make_streams(2, 4));
    sys.run(5'000'000);
    std::uint64_t reads = 0;
    for (std::uint32_t ch = 0; ch < sys.memory().num_channels(); ++ch) {
      const auto& c = sys.memory().controller(ch);
      const auto* sp = c.spans();
      ASSERT_NE(sp, nullptr);
      const auto& e2e = c.stats().read_latency;
      EXPECT_EQ(sp->queue.count(), e2e.count());
      EXPECT_EQ(sp->xfer.count(), e2e.count());
      EXPECT_EQ(sp->queue.sum() + sp->stall.sum() + sp->refresh.sum() + sp->xfer.sum(),
                e2e.sum());
      reads += e2e.count();
    }
    EXPECT_GT(reads, 0u);
  }
}

void expect_same_samples(const obs::TimeSeriesData& pc, const obs::TimeSeriesData& sa) {
  EXPECT_EQ(pc.emitted, sa.emitted);
  EXPECT_EQ(pc.dropped, sa.dropped);
  ASSERT_EQ(pc.samples.size(), sa.samples.size());
  for (std::size_t i = 0; i < pc.samples.size(); ++i) {
    EXPECT_EQ(pc.samples[i].cycle, sa.samples[i].cycle) << "sample " << i;
    EXPECT_EQ(pc.samples[i].values, sa.samples[i].values) << "sample " << i;
  }
}

TEST(ClockExact, TimeSeriesSamplesMatch) {
  // The windowed sampler must produce an identical sample stream in both
  // clock modes: same boundaries, same values, same emitted/dropped counts.
  // Compute 400 keeps the cores retiring across many boundaries without an
  // event of their own, so the delta-accounted instruction and stall
  // counts are only current because the cycle before each boundary is a
  // forced tick.
  for (const std::uint32_t compute : {4u, 400u}) {
    SCOPED_TRACE("compute " + std::to_string(compute));
    const auto run_ts = [compute](sim::ClockMode mode) {
      sim::SystemConfig cfg;
      cfg.num_cores = 2;
      cfg.ctrl.num_cores = 2;
      cfg.core.instr_limit = compute > 4 ? 40'000 : 4'000;
      cfg.clock = mode;
      sim::System sys(cfg, make_streams(2, compute));
      obs::StatRegistry reg;
      sys.register_stats(reg);
      obs::TimeSeries ts("t", 1'000);
      EXPECT_TRUE(ts.track_path(reg, "sys.mem.ctrl0.reads_done"));
      EXPECT_TRUE(ts.track_path(reg, "sys.core0.instructions"));
      EXPECT_TRUE(ts.track_path(reg, "sys.core1.stall_cycles"));
      sys.set_timeseries(&ts);
      sys.run(5'000'000);
      return ts.data();
    };
    const auto pc = run_ts(sim::ClockMode::PerCycle);
    expect_same_samples(pc, run_ts(sim::ClockMode::SkipAhead));
    EXPECT_GT(pc.samples.size(), 10u);
  }
}

TEST(ClockExact, MemorySystemDrain) {
  // Skip-ahead drain must return the same final cycle and stats as the
  // legacy busy-wait, including pending victim refreshes (idle() must not
  // report idle while the victim queue holds work).
  const auto run_drain = [](sim::ClockMode mode) {
    auto dram_cfg = dram::DramConfig::ddr4_2400();
    mem::ControllerConfig ctrl;
    ctrl.sched = mem::SchedKind::Fcfs;
    ctrl.powerdown_timeout = 300;
    ctrl.selfrefresh_timeout = 2'000;
    mem::MemorySystem sys(dram_cfg, ctrl);
    sys.set_clock_mode(mode);
    sys.controller(0).set_rowhammer(mem::make_para(1.0, 3));
    obs::StatRegistry reg;
    sys.register_stats(reg, "mem");

    Cycle now = 0;
    const auto& g = dram_cfg.geometry;
    for (int burst = 0; burst < 8; ++burst) {
      for (int i = 0; i < 16; ++i) {
        const Addr addr = static_cast<Addr>(i) * g.row_bytes() * 7 + burst * 64;
        EXPECT_TRUE(sys.enqueue(make_req(addr, i % 4 ? AccessType::Read : AccessType::Write, now)));
      }
      now = sys.drain(now);
      now += 20'000;  // idle gap: refresh/power events only
      now = sys.drain(now);
    }
    return std::pair<Cycle, obs::StatRegistry::Snapshot>(now, reg.snapshot());
  };
  const auto pc = run_drain(sim::ClockMode::PerCycle);
  const auto sa = run_drain(sim::ClockMode::SkipAhead);
  ASSERT_EQ(pc.first, sa.first);
  expect_identical(pc.second, sa.second);
  EXPECT_GT(sa.second.at("mem.ctrl0.victim_refreshes").value_or(0), 0.0);
}

TEST(ClockExact, HybridMemoryDrain) {
  const auto run_hybrid = [](sim::ClockMode mode) {
    hybrid::HybridConfig cfg;
    cfg.dram_bytes = 1ull << 20;
    cfg.epoch = 5'000;
    cfg.hot_threshold = 2;
    hybrid::HybridMemory hm(cfg);
    hm.set_clock_mode(mode);
    Rng rng(21);
    Cycle now = 0;
    for (int burst = 0; burst < 6; ++burst) {
      for (int i = 0; i < 32; ++i) {
        const Addr addr = rng.next_below(64ull << 10);
        EXPECT_TRUE(hm.enqueue(
            make_req(line_base(addr), i % 3 ? AccessType::Read : AccessType::Write, now)));
      }
      now = hm.drain(now);
      now += 7'000;
      now = hm.drain(now);
    }
    return std::pair<Cycle, hybrid::HybridMemory::Stats>(now, hm.stats());
  };
  const auto pc = run_hybrid(sim::ClockMode::PerCycle);
  const auto sa = run_hybrid(sim::ClockMode::SkipAhead);
  EXPECT_EQ(pc.first, sa.first);
  EXPECT_EQ(pc.second.dram_serviced, sa.second.dram_serviced);
  EXPECT_EQ(pc.second.pcm_serviced, sa.second.pcm_serviced);
  EXPECT_EQ(pc.second.promotions, sa.second.promotions);
  EXPECT_EQ(pc.second.demotions, sa.second.demotions);
  EXPECT_EQ(pc.second.migration_lines, sa.second.migration_lines);
  // The config must actually have exercised the migration machinery.
  EXPECT_GT(sa.second.promotions, 0u);
}

// --- System per-component cursors -------------------------------------------
//
// System::run ticks each core and each channel only at its own events, so
// the cases below make those event sets diverge: cores computing 4 to 4000
// instructions between accesses, two channels, rank power states,
// runahead, every prefetcher, a write queue too small for the writeback
// stream, an armed watchdog, a split run. Each must match PerCycle in end
// cycle, full registry snapshot and time-series samples.

/// Four cores, by default computing {4, 40, 400, 4000} instructions per
/// access, so no core's events line up with another's: an L1-resident
/// random core, then streaming, random and streaming cores over 8 MiB each.
std::vector<std::unique_ptr<workloads::AccessStream>> diverging_streams(
    const std::array<std::uint32_t, 4>& computes, double write_fraction) {
  std::vector<std::unique_ptr<workloads::AccessStream>> v;
  for (std::uint32_t i = 0; i < 4; ++i) {
    workloads::StreamParams p;
    p.base = static_cast<Addr>(i) << 28;
    p.footprint = i == 0 ? 16ull << 10 : 8ull << 20;
    p.compute_per_access = computes[i];
    p.write_fraction = write_fraction;
    p.seed = 31 + i;
    if (i % 2 == 0) v.push_back(workloads::make_random(p));
    else v.push_back(workloads::make_streaming(p));
  }
  return v;
}

struct SystemCase {
  std::string name;
  std::function<void(sim::SystemConfig&)> tweak = nullptr;
  std::function<void(sim::System&)> wire = nullptr;
  std::array<std::uint32_t, 4> computes{4, 40, 400, 4000};
  double write_fraction = 0.2;
  Cycle split = 0;  // > 0: run in windows of this many cycles
};

struct SystemRun {
  Cycle end = 0;
  obs::StatRegistry::Snapshot snap;
  obs::TimeSeriesData ts;
  std::vector<std::uint64_t> core_visits;
  std::vector<std::uint64_t> chan_visits;
  double max_pending = 0;  // peak sampled writeback backlog
  std::vector<obs::StatRegistry::Snapshot> windows;  // after each split window
};

SystemRun run_case(sim::ClockMode mode, const SystemCase& c, bool with_ts = true) {
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.core.instr_limit = 60'000;
  cfg.ctrl.record_spans = true;
  if (c.tweak) c.tweak(cfg);
  cfg.clock = mode;
  sim::System sys(cfg, diverging_streams(c.computes, c.write_fraction));
  if (c.wire) c.wire(sys);
  obs::StatRegistry reg;
  sys.register_stats(reg);
  obs::TimeSeries ts("sys", 1'000);
  if (with_ts) {
    for (std::uint32_t i = 0; i < cfg.num_cores; ++i) {
      const std::string core = "sys.core" + std::to_string(i);
      EXPECT_TRUE(ts.track_path(reg, core + ".instructions"));
      EXPECT_TRUE(ts.track_path(reg, core + ".stall_cycles"));
    }
    EXPECT_TRUE(ts.track_path(reg, "sys.mem.ctrl0.reads_done"));
    ts.add_track("pending_writebacks", obs::StatKind::Gauge,
                 [&sys] { return static_cast<double>(sys.pending_writebacks()); });
    sys.set_timeseries(&ts);
  }
  constexpr Cycle kLimit = 5'000'000;
  SystemRun r;
  if (c.split > 0) {
    for (Cycle t = c.split; t <= kLimit; t += c.split) {
      r.end = sys.run(t);
      r.windows.push_back(reg.snapshot());
      if (r.end < t) break;
    }
  } else {
    r.end = sys.run(kLimit);
  }
  EXPECT_LT(r.end, kLimit) << "run did not finish";
  r.snap = reg.snapshot();
  r.ts = ts.data();
  for (const auto& smp : r.ts.samples) r.max_pending = std::max(r.max_pending, smp.values.back());
  for (std::uint32_t i = 0; i < cfg.num_cores; ++i) r.core_visits.push_back(sys.core_visits(i));
  for (std::uint32_t ch = 0; ch < sys.memory().num_channels(); ++ch)
    r.chan_visits.push_back(sys.channel_visits(ch));
  return r;
}

/// PerCycle and SkipAhead (with and without the time series, whose forced
/// boundary ticks would otherwise mask a late tick) agree; returns the
/// SkipAhead run with the time series attached.
SystemRun expect_case_matches(const SystemCase& c) {
  SCOPED_TRACE(c.name);
  const SystemRun pc = run_case(sim::ClockMode::PerCycle, c);
  const SystemRun sa = run_case(sim::ClockMode::SkipAhead, c);
  EXPECT_EQ(pc.end, sa.end) << "final cycle diverges between clock modes";
  expect_identical(pc.snap, sa.snap);
  expect_same_samples(pc.ts, sa.ts);
  // A truncated window's stats must be current at its cut-off, not only
  // once a later window catches the delta accounting up.
  EXPECT_EQ(pc.windows.size(), sa.windows.size());
  for (std::size_t w = 0; w < std::min(pc.windows.size(), sa.windows.size()); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    expect_identical(pc.windows[w], sa.windows[w]);
  }
  const SystemRun bare = run_case(sim::ClockMode::SkipAhead, c, /*with_ts=*/false);
  EXPECT_EQ(pc.end, bare.end);
  expect_identical(pc.snap, bare.snap);
  return sa;
}

TEST(ClockExact, SystemDivergingComponents) {
  const SystemRun base = expect_case_matches({.name = "four computes"});
  EXPECT_GT(base.snap.at("sys.core3.loads").value_or(0), 5.0);

  const SystemRun two = expect_case_matches(
      {.name = "two channels",
       .tweak = [](sim::SystemConfig& cfg) { cfg.dram.geometry.channels = 2; }});
  EXPECT_GT(two.snap.at("sys.mem.ctrl1.reads_done").value_or(0), 0.0);

  // Slower memory-bound cores leave the idle gaps rank power states need.
  const SystemRun power = expect_case_matches({.name = "power-down and self-refresh",
                                               .tweak =
                                                   [](sim::SystemConfig& cfg) {
                                                     cfg.ctrl.powerdown_timeout = 200;
                                                     cfg.ctrl.selfrefresh_timeout = 1'500;
                                                   },
                                               .computes = {4, 2'000, 4'000, 8'000}});
  EXPECT_GT(power.snap.at("sys.mem.ctrl0.powerdowns").value_or(0), 0.0);
  EXPECT_GT(power.snap.at("sys.mem.ctrl0.selfrefreshes").value_or(0), 0.0);

  const SystemRun ra = expect_case_matches(
      {.name = "runahead", .tweak = [](sim::SystemConfig& cfg) { cfg.core.runahead = true; }});
  EXPECT_GT(ra.snap.at("sys.core2.runahead_prefetches").value_or(0), 0.0);

  for (const auto kind : {sim::PrefetchKind::None, sim::PrefetchKind::NextLine,
                          sim::PrefetchKind::Stride, sim::PrefetchKind::Ghb,
                          sim::PrefetchKind::FilteredStride, sim::PrefetchKind::Feedback}) {
    const SystemRun pf = expect_case_matches(
        {.name = std::string("prefetch ") + sim::to_string(kind),
         .tweak = [kind](sim::SystemConfig& cfg) { cfg.prefetch = kind; }});
    if (kind != sim::PrefetchKind::None) {
      EXPECT_GT(pf.snap.at("sys.prefetch.issued").value_or(0), 0.0) << sim::to_string(kind);
    }
  }

  // Small caches full of dirty lines and a four-entry write queue: L2
  // victims back up in pending_writes_, which System retries every cycle.
  const SystemRun writes = expect_case_matches(
      {.name = "write-heavy",
       .tweak =
           [](sim::SystemConfig& cfg) {
             cfg.l1.size_bytes = 4 * 1024;
             cfg.l2.size_bytes = 32 * 1024;
             cfg.ctrl.write_queue_size = 4;
             cfg.ctrl.write_drain_high = 3;
             cfg.ctrl.write_drain_low = 1;
           },
       .write_fraction = 0.9});
  EXPECT_GT(writes.max_pending, 0.0);

  expect_case_matches({.name = "watchdog armed",
                       .wire = [](sim::System& sys) { sys.arm_watchdog(1'000'000); }});

  // Windows that are not multiples of the sampling period: every window
  // ends in a forced tick and the next starts with an all-component tick.
  const SystemRun split = expect_case_matches({.name = "split run", .split = 7'777});
  EXPECT_GT(split.windows.size(), 5u);
}

TEST(SystemVisits, LongComputeCoreSkipsOtherComponentsEvents) {
  // A core computing 4000 instructions per access has a handful of events
  // per access; the L1-resident core next to it has one every few cycles.
  // Union ticking would visit both at every event of either.
  const SystemCase c{.name = "four computes"};
  const SystemRun pc = run_case(sim::ClockMode::PerCycle, c, /*with_ts=*/false);
  const SystemRun sa = run_case(sim::ClockMode::SkipAhead, c, /*with_ts=*/false);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(pc.core_visits[i], pc.end + 1) << "core " << i;
  EXPECT_EQ(pc.chan_visits[0], pc.end + 1);
  const std::uint64_t loads3 =
      static_cast<std::uint64_t>(sa.snap.at("sys.core3.loads").value_or(0));
  EXPECT_LT(sa.core_visits[3], 8 * (loads3 + 1));
  EXPECT_LT(sa.core_visits[3] * 100, sa.core_visits[0]);
  EXPECT_LT(sa.chan_visits[0] * 2, sa.core_visits[0]);
  EXPECT_LT(sa.chan_visits[0] * 4, pc.chan_visits[0]);
}

// --- sharded drains ----------------------------------------------------------
//
// The epoch-barrier engine ticks each channel only at its own event cycles
// (per-channel due cursors), and a feed holding a due request its queue
// refuses adds no event of its own. Both are exact only if PerCycle — which
// ticks every channel every cycle — gives the same bytes at every width.

dram::DramConfig sharded_dram() {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = 8;
  cfg.geometry.banks = 4;
  cfg.geometry.subarrays = 4;
  cfg.geometry.rows_per_subarray = 128;
  cfg.geometry.columns = 32;
  return cfg;
}

constexpr Cycle kShardEpoch = 2048;

/// Everything a sharded leg compares, plus the host-side visit counts.
struct ShardedRun {
  Cycle cycles = 0;
  std::uint64_t checksum = 0;  // completion stream in delivery order
  std::string render;          // full StatRegistry rendering
  std::vector<std::uint64_t> visits;
};

void expect_same(const ShardedRun& ref, const ShardedRun& got) {
  EXPECT_EQ(ref.cycles, got.cycles);
  EXPECT_EQ(ref.checksum, got.checksum);
  EXPECT_EQ(ref.render, got.render);
}

void finish(const mem::MemorySystem& sys, ShardedRun& out) {
  obs::StatRegistry reg;
  sys.register_stats(reg, "m");
  std::ostringstream os;
  for (const auto& v : reg.snapshot().values) os << v.path << '=' << v.value << '\n';
  out.render = os.str();
  for (std::uint32_t ch = 0; ch < sys.num_channels(); ++ch)
    out.visits.push_back(sys.channel_visits(ch));
}

void mix(ShardedRun& out, std::uint32_t ch, const mem::Request& done) {
  out.checksum = (out.checksum * 1099511628211ull) ^ done.addr ^
                 (static_cast<std::uint64_t>(done.complete) << 1) ^ ch;
}

/// Request `i` of channel `ch`: a few rows per bank (row hits and
/// conflicts both), one in four a write, cores round-robin over four.
mem::Request sharded_req(const mem::MemorySystem& sys, std::uint32_t ch, std::uint64_t i,
                         Cycle arrive) {
  std::uint64_t h = (ch + 1) * 0x9E3779B97F4A7C15ull ^ (i + 7) * 0xBF58476D1CE4E5B9ull;
  h ^= h >> 31;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 29;
  const auto& g = sys.dram_config().geometry;
  dram::Coord c;
  c.channel = ch;
  c.rank = static_cast<std::uint32_t>(h) % g.ranks;
  c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
  c.row = static_cast<std::uint32_t>(h >> 16) % 6;
  c.column = static_cast<std::uint32_t>(h >> 40) % g.columns;
  mem::Request r = make_req(sys.mapper().encode(c),
                            i % 4 == 3 ? AccessType::Write : AccessType::Read, arrive);
  r.core = static_cast<std::uint32_t>(i % 4);
  return r;
}

/// Time-dated bursts: channel `ch` issues `bursts` bursts of 40 requests
/// that share one arrival cycle, at a channel-specific gap, so the channels'
/// event sets differ and every burst overruns a small queue.
ShardedRun run_sourced(sim::ClockMode mode, unsigned shards, const mem::ControllerConfig& ctrl,
                       std::uint64_t bursts = 5, Cycle deadline = 100'000'000) {
  constexpr std::uint64_t kBurst = 40;
  mem::MemorySystem sys(sharded_dram(), ctrl);
  sys.set_clock_mode(mode);
  sys.set_shards(shards, kShardEpoch);
  ShardedRun out;
  std::vector<std::uint64_t> cursor(sys.num_channels(), 0);
  mem::MemorySystem::ChannelSource src;
  src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
    std::uint64_t& i = cursor[ch];
    if (i >= bursts * kBurst) return false;
    r = sharded_req(sys, ch, i, 50 + (i / kBurst) * (700 + 230 * ch));
    ++i;
    return true;
  };
  src.on_complete = [&](std::uint32_t ch, const mem::Request& done) { mix(out, ch, done); };
  out.cycles = sys.drain_sourced(src, 0, deadline);
  finish(sys, out);
  return out;
}

/// The three controller configs of the sourced legs: default queues;
/// 8-entry queues with write drain 6/2 (bursts backpressure the feeds); and
/// the same with a per-core read quota (the refusal then depends on the
/// held request's core, not only on queue occupancy).
std::vector<mem::ControllerConfig> sourced_configs(mem::SchedKind kind) {
  mem::ControllerConfig base;
  base.sched = kind;
  base.num_cores = 4;
  base.record_spans = true;
  mem::ControllerConfig small = base;
  small.read_queue_size = 8;
  small.write_queue_size = 8;
  small.write_drain_high = 6;
  small.write_drain_low = 2;
  mem::ControllerConfig quota = small;
  quota.per_core_read_quota = 2;
  return {base, small, quota};
}

TEST(ClockExact, ShardedSourcedDrainAllSchedulers) {
  for (const auto kind :
       {mem::SchedKind::Fcfs, mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
        mem::SchedKind::ParBs, mem::SchedKind::Atlas, mem::SchedKind::Tcm,
        mem::SchedKind::Bliss, mem::SchedKind::Rl}) {
    const auto configs = sourced_configs(kind);
    for (std::size_t k = 0; k < configs.size(); ++k) {
      SCOPED_TRACE(std::string(mem::to_string(kind)) + " config " + std::to_string(k));
      const ShardedRun ref = run_sourced(sim::ClockMode::PerCycle, 1, configs[k]);
      for (const unsigned w : {1u, 2u, 8u}) {
        SCOPED_TRACE("width " + std::to_string(w));
        expect_same(ref, run_sourced(sim::ClockMode::SkipAhead, w, configs[k]));
        if (w > 1) expect_same(ref, run_sourced(sim::ClockMode::PerCycle, w, configs[k]));
      }
      EXPECT_NE(ref.checksum, 0u);
      EXPECT_GT(ref.cycles, 0u);
    }
  }
}

/// Closed loop under a shard plan: each completion, delivered at a barrier,
/// enqueues the next request into another channel — often one that sat idle
/// through the previous span, whose cursor must restart at the span start.
/// Under PAR-BS such an enqueue into an empty queue starts a pending batch
/// formation, which the scheduler learns of through on_enqueue.
ShardedRun run_closed_loop(sim::ClockMode mode, unsigned shards, mem::SchedKind kind) {
  constexpr std::uint64_t kTotal = 600;
  mem::ControllerConfig ctrl;
  ctrl.sched = kind;
  ctrl.num_cores = 4;
  ctrl.record_spans = true;
  mem::MemorySystem sys(sharded_dram(), ctrl);
  sys.set_clock_mode(mode);
  sys.set_shards(shards, 256);
  ShardedRun out;
  std::uint64_t issued = 0;
  std::function<void(std::uint32_t, Cycle)> issue = [&](std::uint32_t ch, Cycle at) {
    const mem::Request r = sharded_req(sys, ch, issued++, at);
    EXPECT_TRUE(sys.enqueue(r, [&, ch](const mem::Request& done) {
      mix(out, ch, done);
      if (issued < kTotal) issue((ch + 3) % sys.num_channels(), done.complete);
    }));
  };
  for (std::uint32_t ch = 0; ch < sys.num_channels(); ch += 2) issue(ch, 0);
  out.cycles = sys.drain(0);
  EXPECT_EQ(issued, kTotal);
  EXPECT_TRUE(sys.idle());
  finish(sys, out);
  return out;
}

TEST(ClockExact, ShardedClosedLoopDrain) {
  for (const auto kind : {mem::SchedKind::FrFcfs, mem::SchedKind::ParBs}) {
    SCOPED_TRACE(mem::to_string(kind));
    const ShardedRun ref = run_closed_loop(sim::ClockMode::PerCycle, 1, kind);
    for (const unsigned w : {1u, 2u, 8u}) {
      SCOPED_TRACE("width " + std::to_string(w));
      expect_same(ref, run_closed_loop(sim::ClockMode::SkipAhead, w, kind));
      if (w > 1) expect_same(ref, run_closed_loop(sim::ClockMode::PerCycle, w, kind));
    }
    EXPECT_NE(ref.checksum, 0u);
  }
}

TEST(ShardVisits, PerChannelVisitsAreWidthInvariant) {
  // Each channel is ticked at its own events only, so its visit count —
  // not just its results — is the same whichever channels share its group.
  for (const auto& ctrl : sourced_configs(mem::SchedKind::FrFcfs)) {
    const ShardedRun w1 = run_sourced(sim::ClockMode::SkipAhead, 1, ctrl);
    EXPECT_EQ(w1.visits, run_sourced(sim::ClockMode::SkipAhead, 2, ctrl).visits);
    EXPECT_EQ(w1.visits, run_sourced(sim::ClockMode::SkipAhead, 8, ctrl).visits);
    // PerCycle visits every cycle of every span.
    const ShardedRun pc = run_sourced(sim::ClockMode::PerCycle, 2, ctrl);
    for (std::uint32_t ch = 0; ch < pc.visits.size(); ++ch) {
      EXPECT_EQ(pc.visits[ch], pc.cycles);
      EXPECT_LT(w1.visits[ch], pc.visits[ch]);
    }
  }
}

TEST(ShardVisits, HeldBurstFeedSkipsBackpressuredCycles) {
  // One burst of 40 per channel into 8-entry queues, clipped while every
  // feed still holds a due request its full queue refuses: the feed adds
  // no event, so SkipAhead visits only the controllers' own event cycles.
  const auto ctrl = sourced_configs(mem::SchedKind::FrFcfs)[1];
  const Cycle deadline = 200;
  const ShardedRun pc = run_sourced(sim::ClockMode::PerCycle, 2, ctrl, 1, deadline);
  const ShardedRun sa = run_sourced(sim::ClockMode::SkipAhead, 2, ctrl, 1, deadline);
  expect_same(pc, sa);
  EXPECT_EQ(sa.cycles, deadline);
  for (std::uint32_t ch = 0; ch < sa.visits.size(); ++ch) {
    EXPECT_EQ(pc.visits[ch], deadline);
    EXPECT_LT(sa.visits[ch], deadline - 50) << "channel " << ch;
  }
}

}  // namespace
