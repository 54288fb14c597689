// Google-benchmark microbenchmarks of the simulator itself: command issue
// rate, cache access rate, compression throughput, scheduler decision cost.
// These guard the simulator's own performance (simulation speed is a
// first-class feature of Ramulator-class tools).
#include <benchmark/benchmark.h>

#include <array>
#include <utility>
#include <vector>

#include "aware/compress.hh"
#include "bench/mc_harness.hh"
#include "cache/cache.hh"
#include "common/clock.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"

using namespace ima;

namespace {

void BM_ChannelIssueRate(benchmark::State& state) {
  const auto cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan(cfg, 0, nullptr);
  Cycle now = 0;
  std::uint32_t row = 0;
  for (auto _ : state) {
    dram::Coord c{0, 0, static_cast<std::uint32_t>(row % 8), (row / 8) % 1024, 0};
    Cycle t = chan.earliest(dram::Cmd::Act, c, now);
    if (t == kCycleNever) {
      t = chan.earliest(dram::Cmd::Pre, c, now);
      chan.issue(dram::Cmd::Pre, c, t);
      now = t + 1;
      continue;
    }
    chan.issue(dram::Cmd::Act, c, t);
    now = t + 1;
    ++row;
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelIssueRate);

void BM_CacheAccess(benchmark::State& state) {
  cache::CacheConfig cfg;
  cfg.size_bytes = 2 * 1024 * 1024;
  cfg.ways = 16;
  cache::Cache c(cfg);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(line_base(rng.next_below(64 << 20)), AccessType::Read));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

// The cache layer's cost per access on its own: pre-drawn (address, type)
// pairs cycle through a ring, so the timed loop is the cache alone.
void BM_CacheStream(benchmark::State& state, std::uint64_t size_bytes, std::uint32_t ways,
                    cache::ReplPolicy repl, std::uint64_t footprint, double write_fraction) {
  cache::CacheConfig cfg;
  cfg.size_bytes = size_bytes;
  cfg.ways = ways;
  cfg.repl = repl;
  cache::Cache c(cfg);
  Rng rng(1);
  std::vector<std::pair<Addr, AccessType>> ops(1 << 16);
  for (auto& [addr, type] : ops) {
    addr = line_base(rng.next_below(footprint));
    type = rng.chance(write_fraction) ? AccessType::Write : AccessType::Read;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [addr, type] = ops[i++ & (ops.size() - 1)];
    benchmark::DoNotOptimize(c.access(addr, type));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["miss_rate"] = c.stats().miss_rate();
  state.counters["writebacks_per_access"] =
      static_cast<double>(c.stats().writebacks) / static_cast<double>(state.iterations());
}
// L1-shaped, hit-heavy: a 24 KiB working set in a 32 KiB 8-way LRU L1.
BENCHMARK_CAPTURE(BM_CacheStream, l1_hits, 32 << 10, 8, cache::ReplPolicy::Lru, 24 << 10, 0.0);
// L2-shaped write mix over 4x the capacity: most misses evict a dirty line.
BENCHMARK_CAPTURE(BM_CacheStream, l2_write_mix, 2 << 20, 16, cache::ReplPolicy::Lru, 8 << 20,
                  0.3);
BENCHMARK_CAPTURE(BM_CacheStream, l2_drrip, 2 << 20, 16, cache::ReplPolicy::Drrip, 4 << 20, 0.2);
BENCHMARK_CAPTURE(BM_CacheStream, l2_eaf_lru, 2 << 20, 16, cache::ReplPolicy::EafLru, 4 << 20,
                  0.2);

void BM_BdiCompress(benchmark::State& state) {
  Rng rng(2);
  std::array<std::uint64_t, 8> line;
  for (auto& w : line) w = 0x7FFF00000000ull + rng.next_below(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aware::bdi_compressed_size(aware::Line(line)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BdiCompress);

void BM_FullSystemCyclesPerSecond(benchmark::State& state) {
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.core.instr_limit = 0;  // unbounded; we run fixed cycles
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  for (int i = 0; i < 4; ++i) {
    workloads::StreamParams p;
    p.footprint = 16 << 20;
    p.seed = static_cast<std::uint64_t>(i) + 1;
    streams.push_back(workloads::make_random(p));
  }
  sim::System sys(cfg, std::move(streams));
  Cycle target = 0;
  for (auto _ : state) {
    target += 10'000;
    sys.run(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_FullSystemCyclesPerSecond);

// The System loop where components' event sets diverge: the perfbench
// `hierarchy` shape. Two random cores over L2-resident footprints compute 4
// instructions per access; two streaming cores compute 40 and stream far
// past the L2 behind a stride prefetcher. Warmed 1M cycles before timing,
// so caches are full and memory runs far below saturation.
void BM_FullSystemMixed(benchmark::State& state) {
  sim::SystemConfig cfg;
  cfg.num_cores = 4;
  cfg.ctrl.num_cores = 4;
  cfg.core.instr_limit = 0;  // unbounded; we run fixed cycles
  cfg.prefetch = sim::PrefetchKind::Stride;
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  for (std::uint32_t i = 0; i < 4; ++i) {
    workloads::StreamParams p;
    p.base = static_cast<Addr>(i) << 30;
    p.seed = i + 1;
    if (i < 2) {
      p.footprint = 640ull << 10;
      p.compute_per_access = 4;
      streams.push_back(workloads::make_random(p));
    } else {
      p.footprint = 256ull << 20;
      p.compute_per_access = 40;
      streams.push_back(workloads::make_streaming(p));
    }
  }
  sim::System sys(cfg, std::move(streams));
  Cycle target = sys.run(1'000'000);
  for (auto _ : state) {
    target += 10'000;
    sys.run(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK(BM_FullSystemMixed);

// The case the event kernel exists for: a low-MPKI core computing for
// thousands of cycles between misses. PerCycle ticks every one of those
// idle cycles; SkipAhead jumps between misses/refreshes, and the two are
// cycle-exact (tests/clock_test.cc) so the speedup is free accuracy-wise.
// The acceptance bar is skip_ahead >= 2x per_cycle in host time here.
void BM_IdleHeavyClocking(benchmark::State& state, sim::ClockMode mode) {
  sim::SystemConfig cfg;
  cfg.num_cores = 1;
  cfg.ctrl.num_cores = 1;
  cfg.core.instr_limit = 0;  // unbounded; we run fixed cycles
  cfg.clock = mode;
  std::vector<std::unique_ptr<workloads::AccessStream>> streams;
  workloads::StreamParams p;
  p.footprint = 64 << 20;
  p.compute_per_access = 5'000;  // ~kilocycle idle gaps between misses
  p.seed = 9;
  streams.push_back(workloads::make_random(p));
  sim::System sys(cfg, std::move(streams));
  Cycle target = 0;
  for (auto _ : state) {
    target += 100'000;
    sys.run(target);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK_CAPTURE(BM_IdleHeavyClocking, per_cycle, sim::ClockMode::PerCycle);
BENCHMARK_CAPTURE(BM_IdleHeavyClocking, skip_ahead, sim::ClockMode::SkipAhead);

// Shared driver for the loaded-controller benchmarks: MLP-window injectors
// (bench::hetero_mix) keep the read+write queues saturated so host time is
// dominated by the issue loop — scheduler passes and command-legality
// queries — not by idle gaps. `mode` selects the clocking kernel;
// `advance` mirrors run_mc's next-cycle rule (inject every cycle while any
// window has room, else trust the controller's next_event bound).
Cycle run_loaded(mem::MemorySystem& sys, std::vector<bench::InjectorSpec>& cores,
                 std::vector<std::uint32_t>& outstanding, sim::ClockMode mode,
                 Cycle from, Cycle to, std::uint32_t& below_mlp) {
  // below_mlp counts cores with window room (run_mc keeps the same
  // aggregate): the injection pass and the advance hook become one compare
  // while every window is full, with injection order unchanged.
  return sim::run_event_loop(
      mode, from, to,
      [&](Cycle now) {
        if (below_mlp > 0) {
          for (std::size_t i = 0; i < cores.size(); ++i) {
            const std::uint32_t mlp = cores[i].mlp;
            while (outstanding[i] < mlp) {
              const auto e = cores[i].stream->next();
              mem::Request r;
              r.addr = e.addr;
              r.type = e.type;
              r.core = static_cast<std::uint32_t>(i);
              r.arrive = now;
              if (!sys.can_accept(r.addr, r.type, r.core)) break;
              ++outstanding[i];
              if (outstanding[i] == mlp) --below_mlp;
              const bool ok =
                  sys.enqueue(r, [&outstanding, &below_mlp, i, mlp](const mem::Request&) {
                    if (outstanding[i] > 0) {
                      if (outstanding[i] == mlp) ++below_mlp;
                      --outstanding[i];
                    }
                  });
              if (!ok) {
                if (outstanding[i] == mlp) ++below_mlp;
                --outstanding[i];
                break;
              }
            }
          }
        }
        sys.tick(now);
      },
      [] { return false; },
      [&](Cycle now) { return below_mlp > 0 ? now + 1 : sys.next_event(now); });
}

// The anti-BM_IdleHeavyClocking: queues saturated the whole run, so the
// pre-PR controller visited every single cycle and paid O(queue) timing
// walks per scheduler pass. Runs under the default clock mode — the
// conditions every real bench runs in — measuring the combined memoized
// SchedView + busy skip-ahead + allocation-free serve()/manage_power()
// win. FR-FCFS is the common case; PAR-BS, ATLAS, TCM and BLISS rank by
// per-core state over the legal units; RL picks on every busy cycle, each
// pick a Q-learning step.
void BM_LoadedIssueLoop(benchmark::State& state, mem::SchedKind kind) {
  const auto dram_cfg = dram::DramConfig::ddr4_2400();
  auto cores = bench::hetero_mix(11);
  mem::ControllerConfig ctrl;
  ctrl.num_cores = static_cast<std::uint32_t>(cores.size());
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.controller(0).set_scheduler(mem::make_scheduler(kind, ctrl.num_cores, 7));
  std::vector<std::uint32_t> outstanding(cores.size(), 0);
  std::uint32_t below_mlp = static_cast<std::uint32_t>(cores.size());
  Cycle now = 0;
  for (auto _ : state) {
    now = run_loaded(sys, cores, outstanding, sim::default_clock_mode(), now, now + 10'000,
                     below_mlp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, fr_fcfs, mem::SchedKind::FrFcfs);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, par_bs, mem::SchedKind::ParBs);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, atlas, mem::SchedKind::Atlas);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, tcm, mem::SchedKind::Tcm);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, bliss, mem::SchedKind::Bliss);
BENCHMARK_CAPTURE(BM_LoadedIssueLoop, rl, mem::SchedKind::Rl);

// Same loaded system, both clock modes. With non-empty queues the old
// next_event collapsed to now+1 and SkipAhead degenerated to PerCycle; the
// precise busy lower bound lets the kernel jump bank-timing and refresh
// waits even under load, cycle-exactly (tests/clock_test.cc LoadedMatrix).
void BM_SkipAheadLoaded(benchmark::State& state, sim::ClockMode mode) {
  const auto dram_cfg = dram::DramConfig::ddr4_2400();
  auto cores = bench::hetero_mix(23);
  mem::ControllerConfig ctrl;
  ctrl.num_cores = static_cast<std::uint32_t>(cores.size());
  mem::MemorySystem sys(dram_cfg, ctrl);
  std::vector<std::uint32_t> outstanding(cores.size(), 0);
  std::uint32_t below_mlp = static_cast<std::uint32_t>(cores.size());
  Cycle now = 0;
  for (auto _ : state) {
    now = run_loaded(sys, cores, outstanding, mode, now, now + 10'000, below_mlp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10'000);
}
BENCHMARK_CAPTURE(BM_SkipAheadLoaded, per_cycle, sim::ClockMode::PerCycle);
BENCHMARK_CAPTURE(BM_SkipAheadLoaded, skip_ahead, sim::ClockMode::SkipAhead);

// The SoA timing kernels at thousand-bank scale: whole-rank linear sweeps
// over the dense per-unit arrays — earliest(PreAll) (max-fold over open
// units) and min_next_ready (the Ref-readiness fold) — on a channel with
// every other bank open. Items = units scanned, so items/sec is sweep
// bandwidth: it should hold roughly flat from 64 to 4096 banks if the
// scans are truly linear and branch-light, whereas the pre-SoA pointer-
// chasing walk lost bandwidth as the bank map outgrew the cache.
void BM_BankScan(benchmark::State& state) {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.ranks = 1;
  cfg.geometry.banks = static_cast<std::uint32_t>(state.range(0));
  dram::Channel chan(cfg, 0, nullptr);
  Cycle now = 1;
  for (std::uint32_t b = 0; b < cfg.geometry.banks; b += 2) {
    const dram::Coord c{0, 0, b, (b * 37) % cfg.geometry.rows_per_bank(), 0};
    const Cycle t = chan.earliest(dram::Cmd::Act, c, now);
    chan.issue(dram::Cmd::Act, c, t);
    now = t + 1;
  }
  const dram::Coord any{0, 0, 0, 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(chan.earliest(dram::Cmd::PreAll, any, now));
    benchmark::DoNotOptimize(chan.min_next_ready(0, now));
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          cfg.geometry.banks);
}
BENCHMARK(BM_BankScan)->Arg(64)->Arg(512)->Arg(4096);

void BM_SchedulerPick(benchmark::State& state) {
  const auto cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan(cfg, 0, nullptr);
  auto sched = mem::make_scheduler(mem::SchedKind::ParBs, 4);
  std::vector<mem::CoreState> cores(4);
  std::vector<mem::QueuedRequest> q;
  Rng rng(3);
  for (int i = 0; i < 32; ++i) {
    mem::QueuedRequest r;
    r.coord = dram::Coord{0, 0, static_cast<std::uint32_t>(rng.next_below(8)),
                          static_cast<std::uint32_t>(rng.next_below(1024)), 0};
    r.req.core = static_cast<std::uint32_t>(rng.next_below(4));
    r.req.arrive = static_cast<Cycle>(i);
    q.push_back(r);
  }
  mem::SchedView view{&chan, 100, &cores};
  for (auto _ : state) {
    sched->tick(view, q);
    benchmark::DoNotOptimize(sched->pick(q, view));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPick);

}  // namespace

BENCHMARK_MAIN();
