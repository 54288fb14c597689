// Checkpoint/restore golden matrix + corruption round-trips.
//
// The restore-exactness contract (DESIGN.md "Checkpoint/restore"): a run
// saved at a quiescent point C and restored into a freshly constructed
// twin, then continued, is byte-identical — cycle counts, completion-stream
// checksums, full StatRegistry renderings, reliability ledgers — to the
// same run continued without the save/restore detour. The matrix drives
// that across all 8 scheduler kinds, SALP subarray timing, RAIDR + PARA,
// a borrowed victim model, the reliability engine's corruption ledger, the
// serving facade's response queues, and the full System hierarchy (cores,
// caches, prefetchers), with the checkpoint crossing shard widths (save at
// IMA_SHARDS-style width 1, restore at 8, and vice versa).
//
// The corruption suite proves a damaged image can never half-restore: the
// sealed blob's magic, version, length and CRC are verified before any
// component load begins, so every kind of file damage is a typed
// CheckpointError and the target system is left exactly as constructed.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/ckpt.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "mem/rowhammer.hh"
#include "obs/stat_registry.hh"
#include "reliability/engine.hh"
#include "service/facade.hh"
#include "sim/checkpoint.hh"
#include "sim/system.hh"
#include "workloads/stream.hh"

namespace ima {
namespace {

std::string render(const mem::MemorySystem& sys) {
  obs::StatRegistry reg;
  sys.register_stats(reg, "m");
  std::ostringstream os;
  for (const auto& v : reg.snapshot().values) os << v.path << '=' << v.value << '\n';
  return os.str();
}

dram::DramConfig matrix_dram(std::uint32_t channels, bool salp = false) {
  auto cfg = dram::DramConfig::ddr4_2400();
  cfg.geometry.channels = channels;
  cfg.geometry.banks = 4;
  cfg.geometry.subarrays = 4;
  cfg.geometry.rows_per_subarray = 128;
  cfg.geometry.columns = 32;
  cfg.timings.salp = salp;
  return cfg;
}

struct Outcome {
  Cycle cycles = 0;
  std::uint64_t checksum = 0;
  std::string snapshot;

  bool operator==(const Outcome& o) const {
    return cycles == o.cycles && checksum == o.checksum && snapshot == o.snapshot;
  }
};

/// Deterministic feeder identical to the shard-matrix one: `ops` accesses
/// per channel, one in four a write, addresses a pure function of
/// (seed, channel, index); completions fold into the caller's checksum.
mem::MemorySystem::ChannelSource make_source(mem::MemorySystem& sys,
                                             std::vector<std::uint64_t>& cursor,
                                             std::uint64_t ops, std::uint64_t seed,
                                             Outcome& out) {
  mem::MemorySystem::ChannelSource src;
  src.next = [&sys, &cursor, ops, seed](std::uint32_t ch, Cycle, mem::Request& r) {
    std::uint64_t& i = cursor[ch];
    if (i >= ops) return false;
    const auto& g = sys.dram_config().geometry;
    const std::uint64_t h = harness::job_seed(seed, ch * 0x10001ull + i);
    dram::Coord c;
    c.channel = ch;
    c.rank = static_cast<std::uint32_t>(h) % g.ranks;
    c.bank = static_cast<std::uint32_t>(h >> 8) % g.banks;
    c.row = static_cast<std::uint32_t>(h >> 16) % g.rows_per_bank();
    c.column = static_cast<std::uint32_t>(h >> 40) % g.columns;
    r = mem::Request{};
    r.addr = sys.mapper().encode(c);
    r.type = i % 4 == 3 ? AccessType::Write : AccessType::Read;
    r.core = ch % 4;
    ++i;
    return true;
  };
  src.on_complete = [&out](std::uint32_t ch, const mem::Request& done) {
    out.checksum = (out.checksum * 1099511628211ull) ^ done.addr ^
                   (static_cast<std::uint64_t>(done.complete) << 1) ^ ch;
  };
  return src;
}

using Factory = std::function<std::unique_ptr<mem::MemorySystem>()>;

/// Drives `ops1` accesses per channel, then either keeps going on the same
/// system (reference) or round-trips the state through an in-memory
/// checkpoint into a freshly built twin (restored leg), then drives `ops2`
/// more. `shards_before`/`shards_after` arm the shard plan on each side —
/// the image carries no plan, so a width-1 save restores at width 8.
Outcome run_two_segments(const Factory& make, std::uint64_t seed, unsigned shards_before,
                         unsigned shards_after, bool through_checkpoint) {
  Outcome out;
  auto a = make();
  a->set_shards(shards_before);
  std::vector<std::uint64_t> cur1(a->num_channels(), 0);
  const auto src1 = make_source(*a, cur1, 200, seed, out);
  const Cycle mid = a->drain_sourced(src1, 0);
  EXPECT_TRUE(a->idle());

  mem::MemorySystem* target = a.get();
  std::unique_ptr<mem::MemorySystem> b;
  if (through_checkpoint) {
    ckpt::Sink sink;
    a->save_state(sink);
    ckpt::Blob blob;
    blob.payload = sink.take();
    b = make();
    ckpt::Source src(blob.payload);
    b->load_state(src);
    EXPECT_TRUE(src.done());
    target = b.get();
    a.reset();  // the original is gone; only the image survives
  }
  target->set_shards(shards_after);
  std::vector<std::uint64_t> cur2(target->num_channels(), 0);
  const auto src2 = make_source(*target, cur2, 150, seed ^ 0x5EEDull, out);
  out.cycles = target->drain_sourced(src2, mid);
  out.snapshot = render(*target);
  return out;
}

/// One matrix point: reference vs. restored at widths {1->1, 1->8, 8->1}.
void expect_restore_exact(const Factory& make, std::uint64_t seed, const std::string& label) {
  const Outcome ref = run_two_segments(make, seed, 1, 1, false);
  EXPECT_GT(ref.cycles, 0u);
  EXPECT_NE(ref.checksum, 0u);
  const Outcome r11 = run_two_segments(make, seed, 1, 1, true);
  const Outcome r18 = run_two_segments(make, seed, 1, 8, true);
  const Outcome r81 = run_two_segments(make, seed, 8, 1, true);
  EXPECT_EQ(ref, r11) << label << " (save@1 restore@1)";
  EXPECT_EQ(ref, r18) << label << " (save@1 restore@8)";
  EXPECT_EQ(ref, r81) << label << " (save@8 restore@1)";
}

TEST(CkptMatrix, AllSchedulerKindsRestoreByteIdentically) {
  const mem::SchedKind kinds[] = {
      mem::SchedKind::Fcfs,  mem::SchedKind::FrFcfs, mem::SchedKind::FrFcfsCap,
      mem::SchedKind::ParBs, mem::SchedKind::Atlas,  mem::SchedKind::Tcm,
      mem::SchedKind::Bliss, mem::SchedKind::Rl};
  for (const auto kind : kinds) {
    const Factory make = [kind] {
      mem::ControllerConfig ctrl;
      ctrl.sched = kind;
      return std::make_unique<mem::MemorySystem>(matrix_dram(8), ctrl);
    };
    expect_restore_exact(make, 0xC0FFEEull + static_cast<int>(kind),
                         std::string("scheduler ") + mem::to_string(kind));
  }
}

TEST(CkptMatrix, SalpTimingStateRestores) {
  const Factory make = [] {
    return std::make_unique<mem::MemorySystem>(matrix_dram(4, /*salp=*/true),
                                               mem::ControllerConfig{});
  };
  expect_restore_exact(make, 0x5A1Full, "SALP");
}

TEST(CkptMatrix, RaidrRefreshAndParaMitigationRestore) {
  const Factory make = [] {
    const auto dram_cfg = matrix_dram(4);
    const auto& g = dram_cfg.geometry;
    auto sys = std::make_unique<mem::MemorySystem>(dram_cfg, mem::ControllerConfig{});
    const auto profile = mem::RetentionProfile::generate(
        std::uint64_t{g.rows_per_bank()} * g.banks * g.ranks, 0.02, 0.1, 11);
    for (std::uint32_t c = 0; c < sys->num_channels(); ++c) {
      sys->controller(c).set_refresh_policy(
          mem::make_raidr(dram_cfg, profile, /*force_preall=*/true));
      sys->controller(c).set_rowhammer(mem::make_para(0.5, 77 + c));
    }
    return sys;
  };
  expect_restore_exact(make, 0xAB1Dull, "RAIDR+PARA");
}

TEST(CkptMatrix, BorrowedVictimModelTravelsWithTheImage) {
  // The victim model is installed by the embedding harness, shared across
  // all channels, and only *borrowed* by the controllers — yet its
  // disturbance counters are part of the machine state, so the image
  // carries each distinct model once and restore rehydrates the twin's.
  struct Rig {
    std::unique_ptr<mem::MemorySystem> sys;
    std::unique_ptr<mem::HammerVictimModel> vm;
  };
  const auto make_rig = [] {
    Rig r;
    const auto dram_cfg = matrix_dram(2);
    mem::ControllerConfig ctrl;
    ctrl.sched = mem::SchedKind::Fcfs;  // every request ACTs: maximal disturbance
    r.sys = std::make_unique<mem::MemorySystem>(dram_cfg, ctrl);
    r.vm = std::make_unique<mem::HammerVictimModel>(dram_cfg.geometry, 50);
    for (std::uint32_t c = 0; c < r.sys->num_channels(); ++c)
      r.sys->controller(c).set_victim_model(r.vm.get());
    r.sys->set_shards(1);
    return r;
  };

  const auto run = [&](bool through_checkpoint) {
    Outcome out;
    Rig a = make_rig();
    std::vector<std::uint64_t> cur1(a.sys->num_channels(), 0);
    const auto src1 = make_source(*a.sys, cur1, 300, 0xBADull, out);
    const Cycle mid = a.sys->drain_sourced(src1, 0);
    Rig b;
    Rig* tgt = &a;
    if (through_checkpoint) {
      ckpt::Sink sink;
      a.sys->save_state(sink);
      b = make_rig();
      const std::vector<std::uint8_t> payload = sink.take();
      ckpt::Source src(payload);
      b.sys->load_state(src);
      EXPECT_TRUE(src.done());
      tgt = &b;
    }
    std::vector<std::uint64_t> cur2(tgt->sys->num_channels(), 0);
    const auto src2 = make_source(*tgt->sys, cur2, 300, 0xF1ull, out);
    out.cycles = tgt->sys->drain_sourced(src2, mid);
    out.snapshot = render(*tgt->sys);
    out.checksum ^= tgt->vm->flips() * 0x9E37ull;
    return out;
  };
  const Outcome ref = run(false);
  const Outcome restored = run(true);
  EXPECT_EQ(ref, restored);
}

TEST(CkptMatrix, ReliabilityLedgerAndDataPagesRestore) {
  const Factory make = [] {
    auto dram_cfg = matrix_dram(4);
    mem::ControllerConfig ctrl;
    ctrl.reliability.enabled = true;
    ctrl.reliability.ecc = reliability::EccKind::Secded;
    ctrl.reliability.seed = 5;
    auto sys = std::make_unique<mem::MemorySystem>(dram_cfg, ctrl);
    sys->set_shards(1);
    return sys;
  };
  // Corrupt lines on the original only: the twin must inherit the damage —
  // pages, check bytes and ledger — purely through the image.
  const auto run = [&](bool through_checkpoint) {
    Outcome out;
    auto a = make();
    const auto& g = a->dram_config().geometry;
    for (std::uint32_t ch = 0; ch < a->num_channels(); ++ch) {
      auto* eng = a->controller(ch).reliability_engine();
      for (std::uint32_t row : {10u, 20u, 30u}) {
        const dram::Coord c{ch, 0, ch % g.banks, row, row % g.columns};
        a->poke_u64(a->mapper().encode(c), 0xF00D0000ull + ch * 100 + row);
        eng->ensure_encoded(c);
        eng->injector().corrupt_line_bits(c, row == 20 ? 2 : 1);
      }
    }
    mem::MemorySystem* tgt = a.get();
    std::unique_ptr<mem::MemorySystem> b;
    if (through_checkpoint) {
      ckpt::Sink sink;
      a->save_state(sink);
      b = make();
      const std::vector<std::uint8_t> payload = sink.take();
      ckpt::Source src(payload);
      b->load_state(src);
      EXPECT_TRUE(src.done());
      tgt = b.get();
      a.reset();
    }
    // Read the corrupted rows back through the drain: decode outcomes and
    // the post-run image must match with or without the detour.
    const auto& gg = tgt->dram_config().geometry;
    std::vector<std::uint64_t> cursor(tgt->num_channels(), 0);
    mem::MemorySystem::ChannelSource src;
    src.next = [tgt, &cursor, &gg](std::uint32_t ch, Cycle, mem::Request& r) {
      static constexpr std::uint32_t kRows[] = {10, 20, 30};
      std::uint64_t& i = cursor[ch];
      if (i >= 3) return false;
      const std::uint32_t row = kRows[i];
      r = mem::Request{};
      r.addr = tgt->mapper().encode(dram::Coord{ch, 0, ch % gg.banks, row, row % gg.columns});
      ++i;
      return true;
    };
    out.cycles = tgt->drain_sourced(src, 0);
    for (std::uint32_t ch = 0; ch < tgt->num_channels(); ++ch) {
      const auto* eng = tgt->controller(ch).reliability_engine();
      const auto& s = eng->stats();
      out.checksum = out.checksum * 31 + s.ce_words * 7 + s.due_events * 11 +
                     s.sdc_reads * 13 + eng->injector().corrupt_lines() * 17 +
                     eng->injector().total_bits_injected();
      for (std::uint32_t row : {10u, 20u, 30u})
        out.checksum ^= tgt->peek_u64(
            tgt->mapper().encode(dram::Coord{ch, 0, ch % gg.banks, row, row % gg.columns}));
    }
    out.snapshot = render(*tgt);
    return out;
  };
  const Outcome ref = run(false);
  const Outcome restored = run(true);
  EXPECT_EQ(ref, restored);
}

TEST(CkptMatrix, ServingFacadeResponseQueuesRestore) {
  auto dram_cfg = matrix_dram(2);
  const auto make = [&] { return std::make_unique<mem::MemorySystem>(dram_cfg, mem::ControllerConfig{}); };

  const auto run = [&](bool through_checkpoint) {
    auto sysa = make();
    auto svca = std::make_unique<service::MemoryService>(*sysa);
    Cycle now = 0;
    const auto& g = sysa->dram_config().geometry;
    for (std::uint32_t i = 0; i < 40; ++i) {
      const dram::Coord c{i % g.channels, 0, i % g.banks, (i * 7) % g.rows_per_bank(),
                          i % g.columns};
      mem::Request r;
      r.addr = sysa->mapper().encode(c);
      r.type = i % 5 == 0 ? AccessType::Write : AccessType::Read;
      const std::uint32_t ch = svca->channel_of(r.addr);
      if (svca->is_full(ch, r)) now = svca->drain_to(now);
      svca->push(ch, r, now);
    }
    // Deliver everything but *leave the responses unpopped*: the queues
    // themselves are the state under test.
    now = svca->drain_to(now);

    mem::MemorySystem* sys = sysa.get();
    service::MemoryService* svc = svca.get();
    std::unique_ptr<mem::MemorySystem> sysb;
    std::unique_ptr<service::MemoryService> svcb;
    if (through_checkpoint) {
      ckpt::Sink sink;
      sysa->save_state(sink);
      svca->save_state(sink);
      sysb = make();
      svcb = std::make_unique<service::MemoryService>(*sysb);
      const std::vector<std::uint8_t> payload = sink.take();
      ckpt::Source src(payload);
      sysb->load_state(src);
      svcb->load_state(src);
      EXPECT_TRUE(src.done());
      sys = sysb.get();
      svc = svcb.get();
    }
    // Pop the world: the delivered-but-unpopped responses must replay in
    // the identical canonical order with identical stamps.
    std::uint64_t digest = svc->pushed() * 3 + svc->completed() * 7 + svc->in_flight() * 11;
    for (std::uint32_t ch = 0; ch < svc->num_channels(); ++ch) {
      while (!svc->is_empty(ch)) {
        const mem::Request& r = svc->top(ch);
        digest = digest * 1099511628211ull ^ r.addr ^
                 (static_cast<std::uint64_t>(r.complete) << 1) ^ ch;
        svc->pop(ch);
      }
    }
    return digest ^ std::hash<std::string>{}(render(*sys));
  };
  EXPECT_EQ(run(false), run(true));
}

// ---- full System hierarchy -------------------------------------------------

std::vector<std::unique_ptr<workloads::AccessStream>> matrix_streams(std::uint32_t cores) {
  std::vector<std::unique_ptr<workloads::AccessStream>> v;
  for (std::uint32_t i = 0; i < cores; ++i) {
    workloads::StreamParams p;
    p.footprint = 1 << 20;
    p.seed = 7 + i;
    if (i % 2 == 0) {
      v.push_back(workloads::make_zipf(p, 0.8));
    } else {
      v.push_back(workloads::make_streaming(p));
    }
  }
  return v;
}

sim::SystemConfig matrix_system_config(sim::PrefetchKind pf) {
  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.core.instr_limit = 60'000;
  cfg.dram.geometry.channels = 2;
  cfg.dram.geometry.banks = 4;
  cfg.dram.geometry.subarrays = 2;
  cfg.dram.geometry.rows_per_subarray = 256;
  cfg.ctrl.num_cores = 2;
  cfg.prefetch = pf;
  return cfg;
}

std::string render_system(const sim::System& sys) {
  obs::StatRegistry reg;
  sys.register_stats(reg);
  std::ostringstream os;
  for (const auto& v : reg.snapshot().values) os << v.path << '=' << v.value << '\n';
  return os.str();
}

/// run-to-C / drain-to-quiescence / (maybe checkpoint+restore) / run-to-end.
/// The reference performs the identical drain so both trajectories are the
/// same machine program; the only difference is the detour through bytes.
std::string run_system(sim::PrefetchKind pf, bool through_checkpoint) {
  const auto cfg = matrix_system_config(pf);
  auto a = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
  a->run(40'000);
  a->memory().drain(a->now());

  sim::System* tgt = a.get();
  std::unique_ptr<sim::System> b;
  if (through_checkpoint) {
    const ckpt::Blob blob = sim::checkpoint(*a);
    b = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
    sim::restore(*b, blob);
    tgt = b.get();
    a.reset();
  }
  const Cycle end = tgt->run(4'000'000);
  std::ostringstream os;
  os << "end=" << end << "\n" << render_system(*tgt);
  const auto e = tgt->energy();
  os << "energy=" << e.total() << " movement=" << e.movement_fraction() << "\n";
  for (const double ipc : tgt->core_ipcs()) os << "ipc=" << ipc << "\n";
  return os.str();
}

TEST(CkptSystem, FullHierarchyRestoresByteIdentically) {
  for (const auto pf : {sim::PrefetchKind::None, sim::PrefetchKind::Stride,
                        sim::PrefetchKind::FilteredStride, sim::PrefetchKind::Feedback}) {
    const std::string ref = run_system(pf, false);
    const std::string restored = run_system(pf, true);
    EXPECT_EQ(ref, restored) << "prefetcher " << sim::to_string(pf);
  }
}

TEST(CkptSystem, FileRoundTripMatchesInMemory) {
  const auto cfg = matrix_system_config(sim::PrefetchKind::Stride);
  auto a = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
  a->run(40'000);
  a->memory().drain(a->now());
  const std::string path = testing::TempDir() + "ckpt_roundtrip.ckpt";
  a->save(path);

  auto b = std::make_unique<sim::System>(cfg, matrix_streams(cfg.num_cores));
  b->restore(path);
  EXPECT_EQ(render_system(*a), render_system(*b));
  EXPECT_EQ(a->now(), b->now());
  std::remove(path.c_str());
}

// The sealed image of a fixed short run, pinned as a hash: a change to how
// the caches or the prefetch bookkeeping hold their state must not move a
// byte of what they write. The run leaves prefetched lines outstanding,
// dirty lines in both levels and an L2 that is only partly filled.
TEST(CkptSystem, SealedImageBytesArePinned) {
  const auto cfg = matrix_system_config(sim::PrefetchKind::Stride);
  sim::System sys(cfg, matrix_streams(cfg.num_cores));
  sys.run(30'000);
  sys.memory().drain(sys.now());

  const auto& pf = sys.prefetch_stats();
  EXPECT_GT(pf.issued, pf.useful + pf.useless);  // prefetched list non-empty
  const auto& l2 = sys.l2().stats();
  EXPECT_GT(l2.misses, 0u);
  EXPECT_EQ(l2.evictions, 0u);  // partly filled
  EXPECT_GT(sys.l1(0).stats().writebacks + sys.l1(1).stats().writebacks, 0u);

  const std::vector<std::uint8_t> image = ckpt::seal(sim::checkpoint(sys));
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (const std::uint8_t b : image) h = (h ^ b) * 1099511628211ull;
  EXPECT_EQ(image.size(), 645'829u);
  EXPECT_EQ(h, 0x735a30c46f94eef5ull);
}

// ---- corruption round-trips -----------------------------------------------

ckpt::ErrorKind restore_error(const sim::SystemConfig& cfg,
                              const std::vector<std::uint8_t>& bytes) {
  const std::string path = testing::TempDir() + "ckpt_corrupt.ckpt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  sim::System victim(cfg, matrix_streams(cfg.num_cores));
  ckpt::ErrorKind kind = ckpt::ErrorKind::Io;
  bool threw = false;
  try {
    victim.restore(path);
  } catch (const ckpt::CheckpointError& e) {
    threw = true;
    kind = e.kind();
  }
  EXPECT_TRUE(threw) << "corrupt image restored without error";
  // Never half-restored: the victim is still the pristine fresh machine.
  sim::System pristine(cfg, matrix_streams(cfg.num_cores));
  EXPECT_EQ(render_system(victim), render_system(pristine));
  EXPECT_EQ(victim.now(), 0u);
  std::remove(path.c_str());
  return kind;
}

TEST(CkptCorruption, DamageIsTypedAndNeverHalfRestores) {
  const auto cfg = matrix_system_config(sim::PrefetchKind::None);
  sim::System sys(cfg, matrix_streams(cfg.num_cores));
  sys.run(20'000);
  sys.memory().drain(sys.now());
  const std::vector<std::uint8_t> good = ckpt::seal(sim::checkpoint(sys));

  // Truncation: header intact, payload cut short.
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - good.size() / 3);
  EXPECT_EQ(restore_error(cfg, truncated), ckpt::ErrorKind::Checksum);

  // Truncation into the header itself.
  std::vector<std::uint8_t> stub(good.begin(), good.begin() + 6);
  EXPECT_EQ(restore_error(cfg, stub), ckpt::ErrorKind::Magic);

  // Single bit flip mid-payload.
  std::vector<std::uint8_t> flipped = good;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_EQ(restore_error(cfg, flipped), ckpt::ErrorKind::Checksum);

  // Foreign file (bad magic).
  std::vector<std::uint8_t> foreign = good;
  foreign[0] ^= 0xFF;
  EXPECT_EQ(restore_error(cfg, foreign), ckpt::ErrorKind::Magic);

  // Future format version (header field right after the 8-byte magic).
  std::vector<std::uint8_t> future = good;
  future[8] = static_cast<std::uint8_t>(ckpt::kVersion + 1);
  EXPECT_EQ(restore_error(cfg, future), ckpt::ErrorKind::Version);

  // Missing file.
  sim::System victim(cfg, matrix_streams(cfg.num_cores));
  EXPECT_THROW(victim.restore(testing::TempDir() + "ckpt_nonexistent.ckpt"),
               ckpt::CheckpointError);
}

TEST(CkptCorruption, ConfigMismatchIsTyped) {
  // Image from a 2-core machine into a 4-core twin: Config, not garbage.
  const auto cfg2 = matrix_system_config(sim::PrefetchKind::None);
  sim::System small(cfg2, matrix_streams(cfg2.num_cores));
  small.run(10'000);
  small.memory().drain(small.now());
  const ckpt::Blob blob = sim::checkpoint(small);

  auto cfg4 = cfg2;
  cfg4.num_cores = 4;
  cfg4.ctrl.num_cores = 4;
  sim::System big(cfg4, matrix_streams(cfg4.num_cores));
  try {
    sim::restore(big, blob);
    FAIL() << "cross-config restore succeeded";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::Config);
  }
}

TEST(CkptCorruption, MidEpochSaveRefusesWithStateError) {
  mem::MemorySystem sys(matrix_dram(2), mem::ControllerConfig{});
  mem::Request r;
  r.addr = 0;
  ASSERT_TRUE(sys.enqueue(r));
  // Queued work, no drain: the machine is not quiescent.
  ckpt::Sink sink;
  try {
    sys.save_state(sink);
    FAIL() << "mid-flight save succeeded";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_EQ(e.kind(), ckpt::ErrorKind::State);
  }
  // The refused save leaves the system runnable.
  const Cycle end = sys.drain(0);
  EXPECT_GT(end, 0u);
  EXPECT_TRUE(sys.idle());
}

// ---- crash-resilient sweeps over checkpoints -------------------------------

TEST(CkptSweep, TimeoutKilledJobRetriedFromCheckpointIsByteIdentical) {
  // The warm-start + retry story end to end: every sweep point shares one
  // warmup image; one job dies with SweepTimeout on its first attempt
  // after the warmup segment; the retry restores from the checkpoint and
  // completes. The final sweep table must be byte-identical to a run where
  // nothing ever died.
  const Factory make = [] {
    auto sys = std::make_unique<mem::MemorySystem>(matrix_dram(4), mem::ControllerConfig{});
    sys->set_shards(1);
    return sys;
  };

  // One shared warmup checkpoint, taken once (the amortization the
  // EXPERIMENTS table measures: N sweep points, 1 warmup).
  ckpt::Blob warm;
  Cycle warm_cycle = 0;
  {
    Outcome scratch;
    auto sys = make();
    std::vector<std::uint64_t> cur(sys->num_channels(), 0);
    const auto src = make_source(*sys, cur, 200, 0xCAFEull, scratch);
    warm_cycle = sys->drain_sourced(src, 0);
    ckpt::Sink sink;
    sys->save_state(sink);
    warm.payload = sink.take();
  }

  const std::vector<std::uint64_t> points = {1, 2, 3, 4};
  const auto run_point = [&](std::uint64_t point, bool fail_first,
                             harness::JobContext& ctx) {
    if (fail_first && ctx.attempt == 0)
      throw harness::SweepTimeout("injected wall-clock kill");
    auto sys = make();
    ckpt::Source src(warm.payload);
    sys->load_state(src);
    Outcome out;
    std::vector<std::uint64_t> cur(sys->num_channels(), 0);
    const auto src2 = make_source(*sys, cur, 100, 0xBEEF00ull + point, out);
    out.cycles = sys->drain_sourced(src2, warm_cycle);
    ctx.fragment.row({std::to_string(point), std::to_string(out.cycles),
                      std::to_string(out.checksum)});
    return out.checksum;
  };

  const auto sweep_table = [&](bool with_kill) {
    harness::SweepOptions opt;
    opt.retries = 2;
    opt.seed_base = 42;
    const auto res = harness::run_sweep(
        points,
        [&](const std::uint64_t& p, harness::JobContext& ctx) {
          return run_point(p, with_kill && p == 3, ctx);
        },
        opt);
    EXPECT_TRUE(res.ok());
    std::ostringstream table;
    for (const auto& frag : res.fragments)
      for (const auto& row : frag.rows())
        for (const auto& cell : row) table << cell << '|';
    return table.str();
  };

  const std::string clean = sweep_table(false);
  const std::string retried = sweep_table(true);
  EXPECT_EQ(clean, retried);
  EXPECT_FALSE(clean.empty());
}

}  // namespace
}  // namespace ima
