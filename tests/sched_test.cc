// Scheduler policy unit tests: each policy's signature behaviour on
// hand-built queues against a real channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/clock.hh"
#include "common/rng.hh"
#include "dram/channel.hh"
#include "mem/memsys.hh"
#include "mem/sched.hh"
#include "obs/stat_registry.hh"
#include "workloads/stream.hh"

namespace ima::mem {
namespace {

struct SchedFixture : ::testing::Test {
  dram::DramConfig cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan{cfg, 0, nullptr};
  std::vector<CoreState> cores{std::vector<CoreState>(4)};

  SchedView view(Cycle now) { return SchedView{&chan, now, &cores}; }

  QueuedRequest make(Addr row, std::uint32_t bank, std::uint32_t core, Cycle arrive,
                     AccessType t = AccessType::Read) {
    QueuedRequest q;
    q.coord = dram::Coord{0, 0, bank, static_cast<std::uint32_t>(row), 0};
    q.req.core = core;
    q.req.arrive = arrive;
    q.req.type = t;
    return q;
  }
};

TEST_F(SchedFixture, FactoryProducesAllKinds) {
  for (auto kind : {SchedKind::Fcfs, SchedKind::FrFcfs, SchedKind::FrFcfsCap,
                    SchedKind::ParBs, SchedKind::Atlas, SchedKind::Tcm, SchedKind::Bliss,
                    SchedKind::Rl}) {
    auto s = make_scheduler(kind, 4, 1);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->name().empty());
  }
}

TEST_F(SchedFixture, FcfsPicksOldest) {
  auto s = make_scheduler(SchedKind::Fcfs, 4);
  std::vector<QueuedRequest> q{make(1, 0, 0, 100), make(2, 1, 1, 50), make(3, 2, 2, 75)};
  EXPECT_EQ(s->pick(q, view(200)), 1u);
}

TEST_F(SchedFixture, FrFcfsPrefersRowHitOverAge) {
  auto s = make_scheduler(SchedKind::FrFcfs, 4);
  // Open row 5 in bank 0.
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;  // row hit is issuable now
  std::vector<QueuedRequest> q{make(7, 1, 0, 10),   // older, bank 1 (closed)
                               make(5, 0, 1, 50)};  // newer but row hit
  EXPECT_EQ(s->pick(q, view(now)), 1u);
}

TEST_F(SchedFixture, FrFcfsFallsBackToOldestWhenNoHit) {
  auto s = make_scheduler(SchedKind::FrFcfs, 4);
  std::vector<QueuedRequest> q{make(7, 1, 0, 10), make(9, 2, 1, 5)};
  EXPECT_EQ(s->pick(q, view(100)), 1u);
}

TEST_F(SchedFixture, FrFcfsCapBreaksStreak) {
  auto s = make_scheduler(SchedKind::FrFcfsCap, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 50), make(7, 1, 1, 10)};
  // Serve row hits up to the cap (streak counter trails services by one).
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(s->pick(q, view(now)), 0u) << "iteration " << i;
    s->on_service(q[0], view(now));
  }
  // Past the cap the oldest non-hit wins.
  EXPECT_EQ(s->pick(q, view(now)), 1u);
}

TEST_F(SchedFixture, BlissBlacklistsStreakyCore) {
  auto s = make_scheduler(SchedKind::Bliss, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 2)};
  // Core 0 gets 4 consecutive services -> blacklisted.
  for (int i = 0; i < 4; ++i) s->on_service(q[0], view(now));
  EXPECT_EQ(s->pick(q, view(now)), 1u);
}

TEST_F(SchedFixture, BlissClearsBlacklistPeriodically) {
  auto s = make_scheduler(SchedKind::Bliss, 4);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 2)};
  for (int i = 0; i < 4; ++i) s->on_service(q[0], view(now));
  // After the clearing interval, core 0's row hit wins again.
  s->tick(view(20000), q);
  EXPECT_EQ(s->pick(q, view(20000)), 0u);
}

TEST_F(SchedFixture, AtlasPrefersLeastAttainedService) {
  auto s = make_scheduler(SchedKind::Atlas, 4);
  cores[0].attained_service = 1000;
  cores[1].attained_service = 10;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 50)};
  EXPECT_EQ(s->pick(q, view(100)), 1u);
}

TEST_F(SchedFixture, ParBsMarksBatchAndServesItFirst) {
  auto s = make_scheduler(SchedKind::ParBs, 4);
  std::vector<QueuedRequest> q;
  for (int i = 0; i < 8; ++i) q.push_back(make(5 + i, 0, 0, i));
  s->tick(view(0), q);  // forms a batch
  std::size_t marked = 0;
  for (const auto& r : q) marked += r.marked ? 1 : 0;
  EXPECT_EQ(marked, 5u);  // mark cap per (core, bank)

  // A newer request from another core in another bank is NOT preferred over
  // marked ones even if it would be a row hit.
  q.push_back(make(9, 1, 1, 100));
  const auto pick = s->pick(q, view(200));
  ASSERT_NE(pick, kNoPick);
  EXPECT_TRUE(q[pick].marked);
}

TEST_F(SchedFixture, ParBsShortestJobFirstRanking) {
  auto s = make_scheduler(SchedKind::ParBs, 4);
  std::vector<QueuedRequest> q;
  // Core 0: heavy (5 requests to one bank); core 1: light (1 request).
  for (int i = 0; i < 5; ++i) q.push_back(make(5 + i, 0, 0, i));
  q.push_back(make(3, 1, 1, 10));
  s->tick(view(0), q);
  // Both marked; light core (1) should rank higher -> picked first when
  // neither is a row hit.
  const auto pick = s->pick(q, view(100));
  ASSERT_NE(pick, kNoPick);
  EXPECT_EQ(q[pick].req.core, 1u);
}

TEST(SchedParBs, MarkCapIsPerBankOnWideRanks) {
  // Rank 0 bank 256 and rank 1 bank 0 are different banks; a (rank << 8) |
  // bank key would fold them into one and share one cap between them.
  dram::DramConfig cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.ranks = 2;
  cfg.geometry.banks = 512;
  dram::Channel chan{cfg, 0, nullptr};
  std::vector<CoreState> cores(4);
  auto s = make_scheduler(SchedKind::ParBs, 4);
  std::vector<QueuedRequest> q;
  for (std::uint32_t i = 0; i < 14; ++i) {
    QueuedRequest r;
    r.coord = i % 2 == 0 ? dram::Coord{0, 0, 256, 5 + i, 0} : dram::Coord{0, 1, 0, 5 + i, 0};
    r.req.arrive = i;
    q.push_back(r);
  }
  s->tick(SchedView{&chan, 0, &cores}, q);
  std::size_t marked_r0 = 0, marked_r1 = 0;
  for (const auto& r : q) {
    if (!r.marked) continue;
    ++(r.coord.rank == 0 ? marked_r0 : marked_r1);
  }
  EXPECT_EQ(marked_r0, 5u);
  EXPECT_EQ(marked_r1, 5u);
}

TEST(SchedParBs, BatchMatchesSortedIndexOracle) {
  // A batch holds the kMarkCap oldest live requests of each (core, bank).
  // The oracle forms it directly: std::sort over bare queue indices by
  // arrival, then per-(core, bank) counts in a map. Arrivals repeat, so
  // the order std::sort leaves among equal arrivals decides marks too;
  // core 4 lies outside the ranked cores.
  dram::DramConfig cfg = dram::DramConfig::ddr4_2400();
  dram::Channel chan{cfg, 0, nullptr};
  std::vector<CoreState> cores(4);
  Rng rng(11);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    auto s = make_scheduler(SchedKind::ParBs, 4);
    std::vector<QueuedRequest> q(17 + rng.next_below(48));
    for (QueuedRequest& r : q) {
      r.coord = dram::Coord{0, 0, static_cast<std::uint32_t>(rng.next_below(3)),
                            static_cast<std::uint32_t>(rng.next_below(64)), 0};
      r.req.core = static_cast<std::uint32_t>(rng.next_below(5));
      r.req.arrive = rng.next_below(6);
      r.live = rng.chance(0.9);
    }
    s->tick(SchedView{&chan, 0, &cores}, q);

    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < q.size(); ++i)
      if (q[i].live) order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return q[a].req.arrive < q[b].req.arrive; });
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> count;
    std::vector<bool> want(q.size(), false);
    for (const std::size_t i : order)
      if (count[{q[i].req.core, q[i].coord.bank}]++ < 5) want[i] = true;
    for (std::size_t i = 0; i < q.size(); ++i) EXPECT_EQ(q[i].marked, want[i]) << "entry " << i;
  }
}

TEST_F(SchedFixture, TcmFavoursLatencySensitiveCluster) {
  auto s = make_scheduler(SchedKind::Tcm, 2, 1);
  // Core 0 consumed massive bandwidth in the last quantum; core 1 little.
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 50)};
  for (int i = 0; i < 100; ++i) s->on_service(q[0], view(0));
  s->on_service(q[1], view(0));
  s->tick(view(100001), q);  // quantum boundary -> recluster
  EXPECT_EQ(s->pick(q, view(100002)), 1u);
}

TEST_F(SchedFixture, RlSchedulerPicksValidIndexAndLearns) {
  auto s = make_rl(4, 1, 0.1, 0.1);
  chan.issue(dram::Cmd::Act, dram::Coord{0, 0, 0, 5, 0}, 0);
  const Cycle now = cfg.timings.rcd;
  std::vector<QueuedRequest> q{make(5, 0, 0, 1), make(7, 1, 1, 2), make(9, 2, 2, 3)};
  for (int i = 0; i < 200; ++i) {
    const auto pick = s->pick(q, view(now + i));
    ASSERT_NE(pick, kNoPick);
    ASSERT_LT(pick, q.size());
    if (i % 3 == 0) s->on_service(q[pick], view(now + i));
  }
}

TEST_F(SchedFixture, AllSchedulersReturnValidIndicesUnderChurn) {
  // Churn test: random queue mutations; every policy must return in-range
  // indices or kNoPick, never crash.
  Rng rng(3);
  for (auto kind : {SchedKind::Fcfs, SchedKind::FrFcfs, SchedKind::FrFcfsCap,
                    SchedKind::ParBs, SchedKind::Atlas, SchedKind::Tcm, SchedKind::Bliss,
                    SchedKind::Rl}) {
    auto s = make_scheduler(kind, 4, 7);
    std::vector<QueuedRequest> q;
    for (Cycle now = 0; now < 2000; ++now) {
      if (q.size() < 16 && rng.chance(0.3))
        q.push_back(make(rng.next_below(64), static_cast<std::uint32_t>(rng.next_below(8)),
                         static_cast<std::uint32_t>(rng.next_below(4)), now));
      s->tick(view(now), q);
      const auto pick = s->pick(q, view(now));
      if (q.empty()) {
        EXPECT_EQ(pick, kNoPick) << to_string(kind);
        continue;
      }
      if (pick != kNoPick) {
        ASSERT_LT(pick, q.size()) << to_string(kind);
        if (rng.chance(0.5)) {
          s->on_service(q[pick], view(now));
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }
  }
}

// Forwards every Scheduler call to the wrapped policy, logging each pick
// as (cycle, request id) — the probe for the memoization differential.
// pick_is_pure is forwarded too, so the controller's pick elision and its
// unit table apply exactly as they would to the bare policy. A pure
// policy's table pick is re-run with the table removed: the scan is the
// oracle the table pick must reproduce index for index. An impure pick
// (RL learns and draws from its RNG) cannot run twice; its oracle is a
// whole second run with `scan_only`, which strips every table.
class RecordingScheduler final : public Scheduler {
 public:
  RecordingScheduler(std::unique_ptr<Scheduler> inner, std::vector<std::uint64_t>* log,
                     std::uint64_t* table_picks = nullptr, bool scan_only = false)
      : inner_(std::move(inner)), log_(log), table_picks_(table_picks), scan_only_(scan_only) {}

  std::size_t pick(const std::vector<QueuedRequest>& q, const SchedView& v) override {
    SchedView scan = v;
    scan.units = nullptr;
    const std::size_t idx = inner_->pick(q, scan_only_ ? scan : v);
    if (v.units && !scan_only_) {
      if (inner_->pick_is_pure()) {
        EXPECT_EQ(inner_->pick(q, scan), idx) << "unit-table pick diverges at cycle " << v.now;
      }
      if (table_picks_) ++*table_picks_;
    }
    log_->push_back(v.now);
    log_->push_back(idx == kNoPick ? ~std::uint64_t{0} : q[idx].req.id);
    return idx;
  }
  void on_service(const QueuedRequest& r, const SchedView& v) override {
    inner_->on_service(r, v);
  }
  void on_enqueue(const QueuedRequest& r) override { inner_->on_enqueue(r); }
  void tick(const SchedView& v, std::vector<QueuedRequest>& q) override {
    inner_->tick(v, q);
  }
  Cycle next_event(Cycle now) const override { return inner_->next_event(now); }
  bool pick_is_pure() const override { return inner_->pick_is_pure(); }
  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const override {
    inner_->register_stats(reg, prefix);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::vector<std::uint64_t>* log_;
  std::uint64_t* table_picks_;
  bool scan_only_;
};

// One saturated closed-loop world for the scheduler differentials: four
// injectors (two streaming at MLP 12, two random at MLP 4) on one channel,
// with the knobs the unit-table cases vary.
struct World {
  bool memoize = true;
  bool salp = false;
  std::uint32_t ranks = 1;
  bool charge_cache = false;
  std::size_t drain_high = 48;  // ControllerConfig defaults
  std::size_t drain_low = 16;
  double write_fraction = 0.2;  // StreamParams default
  bool shuffle_arrive = false;  // stamp some requests with an earlier arrive
  Cycle pim_every = 0;          // enqueue one PIM op per this many cycles
  bool scan_only = false;       // strip the unit table from every pick
  Cycle cycles = 60'000;
};

struct WorldResult {
  std::vector<std::uint64_t> log;
  obs::StatRegistry::Snapshot stats;
  std::uint64_t table_picks = 0;
  Controller::Stats ctrl;
};

// `sel` is a SchedKind, or -1 for MISE (not a factory kind).
WorldResult run_world(int sel, const World& w) {
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  dram_cfg.timings.salp = w.salp;
  dram_cfg.geometry.ranks = w.ranks;
  ControllerConfig ctrl;
  ctrl.num_cores = 4;
  ctrl.memoize_timing = w.memoize;
  ctrl.charge_cache = w.charge_cache;
  ctrl.write_drain_high = w.drain_high;
  ctrl.write_drain_low = w.drain_low;
  if (sel >= 0) ctrl.sched = static_cast<SchedKind>(sel);
  MemorySystem sys(dram_cfg, ctrl);
  WorldResult out;
  sys.controller(0).set_scheduler(std::make_unique<RecordingScheduler>(
      sel < 0 ? make_mise(4) : make_scheduler(static_cast<SchedKind>(sel), 4, 7), &out.log,
      &out.table_picks, w.scan_only));
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
  p.write_fraction = w.write_fraction;
  for (std::uint32_t i = 0; i < 4; ++i) {
    p.base = static_cast<Addr>(i) << 30;
    p.seed = 51 + i;
    if (i % 2 == 0) cores.push_back({workloads::make_streaming(p), 12, 0});
    else cores.push_back({workloads::make_random(p), 4, 0});
  }
  Rng arrive_rng(5);
  Rng pim_rng(9);
  const auto& g = dram_cfg.geometry;

  sim::run_event_loop(
      sys.clock_mode(), 0, w.cycles,
      [&](Cycle now) {
        for (std::size_t i = 0; i < cores.size(); ++i) {
          auto& c = cores[i];
          while (c.outstanding < c.mlp) {
            const auto e = c.stream->next();
            Request r;
            r.addr = e.addr;
            r.type = e.type;
            r.core = static_cast<std::uint32_t>(i);
            r.arrive = now;
            if (w.shuffle_arrive && arrive_rng.chance(0.25))
              r.arrive -= std::min<Cycle>(now, arrive_rng.next_below(64));
            if (!sys.can_accept(r.addr, r.type, r.core)) break;
            ++c.outstanding;
            if (!sys.enqueue(r, [&c](const Request&) { --c.outstanding; })) {
              --c.outstanding;
              break;
            }
          }
        }
        if (w.pim_every && now % w.pim_every == 0) {
          PimOp op;
          op.cmd = dram::Cmd::AapFpm;
          op.bank = dram::Coord{0, static_cast<std::uint32_t>(pim_rng.next_below(g.ranks)),
                                static_cast<std::uint32_t>(pim_rng.next_below(g.banks)), 0, 0};
          op.args.src_row = 1;
          op.args.dst_row = 2;
          sys.controller(0).enqueue_pim(std::move(op));
        }
        sys.tick(now);
      },
      [] { return false; },
      [&](Cycle now) {
        if (w.pim_every) return now + 1;
        for (const auto& c : cores)
          if (c.outstanding < c.mlp) return now + 1;
        return sys.next_event(now);
      });
  out.stats = reg.snapshot();
  out.ctrl = sys.controller(0).stats();
  return out;
}

// Asserts two runs made the same picks and ended with the same stats;
// `what` names the difference between them.
void expect_same_run(const WorldResult& a, const WorldResult& b, const char* what) {
  ASSERT_EQ(a.log, b.log) << "pick sequence diverges with " << what;
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.values.size(); ++i) {
    EXPECT_EQ(a.stats.values[i].path, b.stats.values[i].path);
    EXPECT_EQ(a.stats.values[i].value, b.stats.values[i].value)
        << "stat diverges with " << what << ": " << a.stats.values[i].path;
  }
}

// Differential check for the per-cycle timing memo (SchedTimingCache): with
// ControllerConfig::memoize_timing on vs off, every policy must make the
// *identical* pick sequence and end with identical stats on the same
// saturated multi-core injection — the cache must be invisible except in
// host time. Saturation matters: only full queues produce the repeated
// same-cycle timing queries the memo actually serves.
TEST(SchedMemoDifferential, AllKindsPickIdentically) {
  for (int sel = -1; sel <= static_cast<int>(SchedKind::Rl); ++sel) {
    SCOPED_TRACE(sel < 0 ? "MISE" : to_string(static_cast<SchedKind>(sel)));
    World memo_world;
    World direct_world;
    direct_world.memoize = false;
    const WorldResult memo = run_world(sel, memo_world);
    const WorldResult direct = run_world(sel, direct_world);
    ASSERT_FALSE(memo.log.empty());
    expect_same_run(memo, direct, "memoization");
  }
}

// The configurations that stress the unit table's invariants — SALP
// units, a second rank, write-drain hysteresis flipping queues, an
// arrive-unsorted queue (the (arrive, index) order), ChargeCache ACTs (the
// issue_act_charged recount) and interleaved PIM ops (the dirty-occupancy
// rebuild).
std::vector<std::pair<const char*, World>> unit_table_worlds() {
  std::vector<std::pair<const char*, World>> cases;
  cases.emplace_back("ddr4", World{});
  cases.emplace_back("salp", World{});
  cases.back().second.salp = true;
  cases.emplace_back("two_ranks", World{});
  cases.back().second.ranks = 2;
  cases.emplace_back("write_drain", World{});
  cases.back().second.drain_high = 8;
  cases.back().second.drain_low = 2;
  cases.back().second.write_fraction = 0.5;
  cases.emplace_back("unsorted", World{});
  cases.back().second.shuffle_arrive = true;
  cases.emplace_back("charge_cache", World{});
  cases.back().second.charge_cache = true;
  cases.emplace_back("pim", World{});
  cases.back().second.pim_every = 400;
  for (auto& c : cases) c.second.cycles = 30'000;
  return cases;
}

// Differential check for the unit-table pick: RecordingScheduler re-runs
// every table pick of the first-ready and the ranked policies as a scan
// and asserts the same index, in each of those worlds.
TEST(SchedUnitTableDifferential, TablePickMatchesScan) {
  for (const auto& [name, world] : unit_table_worlds()) {
    for (const SchedKind kind :
         {SchedKind::Fcfs, SchedKind::FrFcfs, SchedKind::FrFcfsCap, SchedKind::ParBs,
          SchedKind::Atlas, SchedKind::Tcm, SchedKind::Bliss}) {
      SCOPED_TRACE(std::string(name) + "/" + to_string(kind));
      const WorldResult r = run_world(static_cast<int>(kind), world);
      // The table must carry most decisions, or the check proves nothing.
      const std::size_t picks = r.log.size() / 2;
      EXPECT_GT(r.table_picks * 2, picks);
      if (world.charge_cache) {
        EXPECT_GT(r.ctrl.charge_cache_hits, 0u);
      }
      if (world.pim_every) {
        EXPECT_GT(r.ctrl.pim_ops_done, 0u);
      }
      if (world.drain_high < 48) {
        EXPECT_GT(r.ctrl.writes_done, 0u);
      }
    }
  }
  // TCM ranks by cluster and shuffle rank only from its first 100k-cycle
  // quantum on, so it also runs past two quanta.
  World tcm_world;
  tcm_world.cycles = 210'000;
  const WorldResult tcm = run_world(static_cast<int>(SchedKind::Tcm), tcm_world);
  EXPECT_GT(tcm.table_picks * 2, tcm.log.size() / 2);
}

// RL's table path must make the scan path's decision on every call: an
// RL run with the unit table and one with every table stripped must log
// the same picks and end with the same stats — the RL scheduler's
// decision, action, epsilon and reward stats included, so the Q-learning
// steps and their RNG draws match too.
TEST(SchedUnitTableDifferential, RlTableRunMatchesScanRun) {
  auto cases = unit_table_worlds();
  cases.emplace_back("direct_timing", World{});
  cases.back().second.memoize = false;
  cases.back().second.cycles = 30'000;
  for (const auto& [name, world] : cases) {
    SCOPED_TRACE(name);
    World scan_world = world;
    scan_world.scan_only = true;
    const int rl = static_cast<int>(SchedKind::Rl);
    const WorldResult table = run_world(rl, world);
    const WorldResult scan = run_world(rl, scan_world);
    ASSERT_FALSE(table.log.empty());
    EXPECT_EQ(scan.table_picks, 0u);
    // The table must carry most decisions, or the check proves nothing.
    EXPECT_GT(table.table_picks * 2, table.log.size() / 2);
    expect_same_run(table, scan, "the unit table");
  }
}

TEST(SchedNames, ToStringCoversAll) {
  EXPECT_STREQ(to_string(SchedKind::Fcfs), "FCFS");
  EXPECT_STREQ(to_string(SchedKind::FrFcfs), "FR-FCFS");
  EXPECT_STREQ(to_string(SchedKind::ParBs), "PAR-BS");
  EXPECT_STREQ(to_string(SchedKind::Atlas), "ATLAS");
  EXPECT_STREQ(to_string(SchedKind::Tcm), "TCM");
  EXPECT_STREQ(to_string(SchedKind::Bliss), "BLISS");
  EXPECT_STREQ(to_string(SchedKind::Rl), "RL");
}

}  // namespace
}  // namespace ima::mem
