// Cache model tests: lookup/eviction semantics, replacement policies, and
// a differential test of the packed tag-word layout against the
// array-of-structs model it replaced.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <unordered_set>
#include <vector>

#include "cache/cache.hh"
#include "common/bits.hh"
#include "common/ckpt.hh"
#include "common/rng.hh"

namespace ima::cache {
namespace {

CacheConfig tiny(ReplPolicy p = ReplPolicy::Lru) {
  CacheConfig c;
  c.size_bytes = 4 * 1024;  // 8 sets x 8 ways
  c.ways = 8;
  c.repl = p;
  return c;
}

Addr addr_in_set(const Cache& c, std::uint32_t set, std::uint32_t k) {
  // Distinct tags mapping to the same set.
  return (static_cast<Addr>(k) * c.config().sets() + set) * kLineBytes;
}

TEST(Cache, HitAfterMiss) {
  Cache c(tiny());
  EXPECT_FALSE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1000, AccessType::Read).hit);
  EXPECT_TRUE(c.access(0x1000 + 63, AccessType::Read).hit);  // same line
  EXPECT_FALSE(c.access(0x1040, AccessType::Read).hit);      // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, SetsComputedFromGeometry) {
  Cache c(tiny());
  EXPECT_EQ(c.config().sets(), 8u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c(tiny());
  // Fill one set.
  for (std::uint32_t k = 0; k < 8; ++k) c.access(addr_in_set(c, 3, k), AccessType::Read);
  // Touch line 0 so line 1 becomes LRU.
  c.access(addr_in_set(c, 3, 0), AccessType::Read);
  // Insert a 9th line -> evicts k=1.
  c.access(addr_in_set(c, 3, 8), AccessType::Read);
  EXPECT_TRUE(c.contains(addr_in_set(c, 3, 0)));
  EXPECT_FALSE(c.contains(addr_in_set(c, 3, 1)));
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(tiny());
  c.access(addr_in_set(c, 2, 0), AccessType::Write);
  for (std::uint32_t k = 1; k <= 8; ++k) {
    const auto res = c.access(addr_in_set(c, 2, k), AccessType::Read);
    if (res.fill.evicted && res.fill.evicted_dirty) {
      EXPECT_EQ(*res.fill.evicted, addr_in_set(c, 2, 0));
      EXPECT_EQ(c.stats().writebacks, 1u);
      return;
    }
  }
  FAIL() << "dirty victim never surfaced";
}

TEST(Cache, CleanEvictionReportsVictimWithoutWriteback) {
  Cache c(tiny());
  for (std::uint32_t k = 0; k <= 8; ++k) c.access(addr_in_set(c, 1, k), AccessType::Read);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(tiny());
  c.access(0x2000, AccessType::Read);
  c.access(0x2000, AccessType::Write);
  const auto wb = c.invalidate(0x2000);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(*wb, line_base(0x2000));
}

TEST(Cache, InvalidateCleanReturnsNothing) {
  Cache c(tiny());
  c.access(0x2000, AccessType::Read);
  EXPECT_FALSE(c.invalidate(0x2000).has_value());
  EXPECT_FALSE(c.contains(0x2000));
}

TEST(Cache, FillIsIdempotent) {
  Cache c(tiny());
  c.fill(0x3000, false);
  const auto r = c.fill(0x3000, true);
  EXPECT_FALSE(r.evicted.has_value());
  const auto wb = c.invalidate(0x3000);
  EXPECT_TRUE(wb.has_value());  // second fill merged dirty bit
}

class PolicyBehaviour : public ::testing::TestWithParam<ReplPolicy> {};

TEST_P(PolicyBehaviour, ReuseWorkingSetStaysResident) {
  CacheConfig cfg = tiny(GetParam());
  Cache c(cfg);
  // Working set of half the cache, accessed repeatedly: high hit rate for
  // every sane policy.
  std::vector<Addr> ws;
  for (std::uint32_t i = 0; i < 32; ++i) ws.push_back(i * kLineBytes);
  for (int round = 0; round < 50; ++round)
    for (Addr a : ws) c.access(a, AccessType::Read);
  const double hit_rate = 1.0 - c.stats().miss_rate();
  EXPECT_GT(hit_rate, 0.9) << to_string(GetParam());
}

TEST_P(PolicyBehaviour, SequentialStreamMostlyMisses) {
  CacheConfig cfg = tiny(GetParam());
  Cache c(cfg);
  for (Addr a = 0; a < (1 << 20); a += kLineBytes) c.access(a, AccessType::Read);
  EXPECT_GT(c.stats().miss_rate(), 0.99) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyBehaviour,
                         ::testing::Values(ReplPolicy::Lru, ReplPolicy::Random,
                                           ReplPolicy::Srrip, ReplPolicy::Drrip,
                                           ReplPolicy::EafLru),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(Cache, EafResistsScanPollution) {
  // Reuse set + one-pass scan: EAF should keep more of the reuse set than
  // plain LRU.
  auto run = [](ReplPolicy p) {
    Cache c(tiny(p));
    std::vector<Addr> ws;
    for (std::uint32_t i = 0; i < 48; ++i) ws.push_back(i * kLineBytes);
    // Warm the reuse set with multiple rounds (establishes reuse in EAF).
    for (int round = 0; round < 4; ++round)
      for (Addr a : ws) c.access(a, AccessType::Read);
    // Interleave: scan pollution + reuse accesses.
    std::uint64_t reuse_hits = 0, reuse_accesses = 0;
    Addr scan = 1 << 24;
    for (int round = 0; round < 20; ++round) {
      for (int s = 0; s < 64; ++s) {
        c.access(scan, AccessType::Read);
        scan += kLineBytes;
      }
      for (Addr a : ws) {
        reuse_hits += c.access(a, AccessType::Read).hit ? 1 : 0;
        ++reuse_accesses;
      }
    }
    return static_cast<double>(reuse_hits) / static_cast<double>(reuse_accesses);
  };
  EXPECT_GT(run(ReplPolicy::EafLru), run(ReplPolicy::Lru));
}

TEST(Cache, SrripResistsScanBetterThanLru) {
  auto run = [](ReplPolicy p) {
    Cache c(tiny(p));
    std::vector<Addr> ws;
    for (std::uint32_t i = 0; i < 40; ++i) ws.push_back(i * kLineBytes);
    for (int round = 0; round < 4; ++round)
      for (Addr a : ws) c.access(a, AccessType::Read);
    std::uint64_t hits = 0, accesses = 0;
    Addr scan = 1 << 24;
    for (int round = 0; round < 20; ++round) {
      for (int s = 0; s < 48; ++s) {
        c.access(scan, AccessType::Read);
        scan += kLineBytes;
      }
      for (Addr a : ws) {
        hits += c.access(a, AccessType::Read).hit ? 1 : 0;
        ++accesses;
      }
    }
    return static_cast<double>(hits) / static_cast<double>(accesses);
  };
  EXPECT_GE(run(ReplPolicy::Srrip), run(ReplPolicy::Lru) * 0.95);
}

TEST(Cache, RandomFuzzNeverBreaksInvariants) {
  Cache c(tiny(ReplPolicy::Drrip));
  Rng rng(5);
  for (int i = 0; i < 100'000; ++i) {
    const Addr a = line_base(rng.next_below(1 << 22));
    const auto type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    const auto res = c.access(a, type);
    if (res.hit) EXPECT_TRUE(c.contains(a));
    else EXPECT_TRUE(c.contains(a));  // allocate-on-miss
  }
  EXPECT_EQ(c.stats().hits + c.stats().misses, 100'000u);
}

// ---- differential test against the array-of-structs reference ----------

/// The array-of-structs cache that src/cache used before its state became
/// packed tag words in one block: one struct per line, and a miss that
/// re-walks the set in fill() and again in choose_victim(). Kept as the
/// oracle, with the prefetch mark added as one more bool per line; every
/// result, stat, marked line and checkpoint byte must match.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    lines_.resize(static_cast<std::size_t>(cfg_.sets()) * cfg_.ways);
  }

  Cache::AccessResult access(Addr addr, AccessType type) {
    Cache::AccessResult res;
    if (Line* l = find(addr)) {
      res.hit = true;
      res.hit_prefetched = l->prefetched;
      l->prefetched = false;
      ++stats_.hits;
      touch(*l, /*is_insert=*/false);
      if (type == AccessType::Write) l->dirty = true;
      return res;
    }
    ++stats_.misses;
    res.fill = fill(addr, type == AccessType::Write, false);
    return res;
  }

  bool contains(Addr addr) { return find(addr) != nullptr; }

  Cache::FillResult fill(Addr addr, bool dirty, bool prefetched) {
    const std::uint32_t s = set_of(addr);
    if (Line* existing = find(addr)) {
      existing->dirty |= dirty;
      existing->prefetched |= prefetched;
      return {};
    }
    const std::uint32_t w = choose_victim(s);
    Line& l = lines_[static_cast<std::size_t>(s) * cfg_.ways + w];
    Cache::FillResult res;
    if (l.valid) {
      ++stats_.evictions;
      res.evicted = l.tag;
      if (l.dirty) {
        res.evicted_dirty = true;
        ++stats_.writebacks;
      }
      res.evicted_prefetched = l.prefetched;
      if (cfg_.repl == ReplPolicy::EafLru) {
        if (eaf_set_.insert(l.tag).second) {
          eaf_fifo_.push_back(l.tag);
          if (eaf_fifo_.size() > static_cast<std::size_t>(cfg_.sets()) * cfg_.ways) {
            eaf_set_.erase(eaf_fifo_.front());
            eaf_fifo_.pop_front();
          }
        }
      }
      if (cfg_.repl == ReplPolicy::Drrip) {
        if (s < 32 && psel_ < 1023) ++psel_;
        else if (s >= cfg_.sets() - 32 && psel_ > 0) --psel_;
      }
    }
    l.valid = true;
    l.dirty = dirty;
    l.prefetched = prefetched;
    l.tag = line_base(addr);
    touch(l, /*is_insert=*/true);
    if (cfg_.repl == ReplPolicy::EafLru && eaf_set_.count(l.tag)) {
      eaf_set_.erase(l.tag);
    } else if (cfg_.repl == ReplPolicy::EafLru) {
      l.lru = 0;
    }
    return res;
  }

  std::optional<Addr> invalidate(Addr addr) {
    if (Line* l = find(addr)) {
      l->valid = false;
      l->prefetched = false;
      if (l->dirty) {
        l->dirty = false;
        return l->tag;
      }
    }
    return std::nullopt;
  }

  const Cache::Stats& stats() const { return stats_; }

  std::vector<Addr> prefetched_lines() const {
    std::vector<Addr> out;
    for (const Line& l : lines_)
      if (l.valid && l.prefetched) out.push_back(l.tag);
    return out;
  }

  void save_state(ckpt::Sink& s) const {
    s.section("cache");
    s.str(cfg_.name);
    s.u64(lines_.size());
    for (const Line& l : lines_) {
      s.b(l.valid);
      s.b(l.dirty);
      s.u64(l.tag);
      s.u64(l.lru);
      s.u8(l.rrpv);
    }
    s.u64(clock_);
    rng_.save_state(s);
    s.u64(stats_.hits);
    s.u64(stats_.misses);
    s.u64(stats_.evictions);
    s.u64(stats_.writebacks);
    s.u32(psel_);
    s.u64(eaf_fifo_.size());
    for (Addr a : eaf_fifo_) s.u64(a);
  }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
    Addr tag = 0;
    std::uint64_t lru = 0;
    std::uint8_t rrpv = 3;
  };

  std::uint32_t set_of(Addr addr) const {
    return static_cast<std::uint32_t>((addr / kLineBytes) & (cfg_.sets() - 1));
  }

  Line* find(Addr addr) {
    const std::uint32_t s = set_of(addr);
    const Addr tag = line_base(addr);
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Line& l = lines_[static_cast<std::size_t>(s) * cfg_.ways + w];
      if (l.valid && l.tag == tag) return &l;
    }
    return nullptr;
  }

  void touch(Line& line, bool is_insert) {
    line.lru = ++clock_;
    switch (cfg_.repl) {
      case ReplPolicy::Srrip:
        line.rrpv = is_insert ? 2 : 0;
        break;
      case ReplPolicy::Drrip:
        if (!is_insert) line.rrpv = 0;
        else if (psel_ >= 512) line.rrpv = rng_.chance(1.0 / 32.0) ? 2 : 3;
        else line.rrpv = 2;
        break;
      default:
        break;
    }
  }

  std::uint32_t choose_victim(std::uint32_t set) {
    Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w)
      if (!base[w].valid) return w;
    switch (cfg_.repl) {
      case ReplPolicy::Random:
        return static_cast<std::uint32_t>(rng_.next_below(cfg_.ways));
      case ReplPolicy::Srrip:
      case ReplPolicy::Drrip:
        for (;;) {
          for (std::uint32_t w = 0; w < cfg_.ways; ++w)
            if (base[w].rrpv >= 3) return w;
          for (std::uint32_t w = 0; w < cfg_.ways; ++w)
            if (base[w].rrpv < 3) ++base[w].rrpv;
        }
      default: {
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < cfg_.ways; ++w)
          if (base[w].lru < base[victim].lru) victim = w;
        return victim;
      }
    }
  }

  CacheConfig cfg_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  Rng rng_;
  Cache::Stats stats_;
  std::uint32_t psel_ = 512;
  std::deque<Addr> eaf_fifo_;
  std::unordered_set<Addr> eaf_set_;
};

template <typename C>
std::vector<std::uint8_t> image(const C& c) {
  ckpt::Sink s;
  c.save_state(s);
  return s.take();
}

struct Shape {
  const char* name;
  std::uint64_t size_bytes;
  std::uint32_t ways;
  int steps;
  int image_every;  // compare checkpoint bytes every this many steps
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

// The 8x8 tiny cache and the System's default L1 and L2. The L2 image is
// 850 KB, so it is compared every 64 steps and at the end.
constexpr Shape kShapes[] = {{"tiny", 4 * 1024, 8, 20'000, 1},
                             {"L1", 32 * 1024, 8, 6'000, 1},
                             {"L2", 2 * 1024 * 1024, 16, 6'000, 64}};

class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<ReplPolicy, Shape>> {};

TEST_P(CacheDifferential, MatchesArrayOfStructsReference) {
  const auto [policy, shape] = GetParam();
  CacheConfig cfg;
  cfg.name = shape.name;
  cfg.size_bytes = shape.size_bytes;
  cfg.ways = shape.ways;
  cfg.repl = policy;
  cfg.seed = 3;
  Cache dut(cfg);
  RefCache ref(cfg);
  const std::uint32_t sets = cfg.sets();

  // Traffic concentrates on a few sets, so every shape evicts; the sets
  // include both DRRIP leader groups (below 32 and the top 32) and
  // followers. Tags come from a small pool (reuse) or anywhere.
  const std::uint32_t hot_sets[] = {0, 1, 31, 32, sets / 2, sets - 33, sets - 32, sets - 1};
  Rng rng(static_cast<std::uint64_t>(policy) * 7919 + sets);
  std::vector<Addr> recent;
  const auto draw_addr = [&] {
    const std::uint32_t set = hot_sets[rng.next_below(std::size(hot_sets))] % sets;
    const std::uint64_t k =
        rng.chance(0.9) ? rng.next_below(2 * shape.ways + 2) : rng.next_below(1ull << 30);
    return (k * sets + set) * kLineBytes + rng.next_below(kLineBytes);
  };
  const auto same_fill = [](const Cache::FillResult& a, const Cache::FillResult& b) {
    return a.evicted == b.evicted && a.evicted_dirty == b.evicted_dirty &&
           a.evicted_prefetched == b.evicted_prefetched;
  };

  std::uint64_t marks_consumed = 0;
  std::uint64_t marks_evicted = 0;
  for (int step = 0; step < shape.steps; ++step) {
    // 0-24 read, 25-39 write, 40-59 fill, 60-69 read a recent address,
    // 70-84 refill a recent (mostly resident) line, 85-91 invalidate,
    // 92-99 probe.
    const std::uint64_t op = rng.next_below(100);
    const bool reuse = op >= 60 && op < 85 && !recent.empty();
    const Addr a = reuse ? recent[rng.next_below(recent.size())] : draw_addr();
    if (op < 40 || (op >= 60 && op < 70)) {
      const auto type = op < 25 || op >= 60 ? AccessType::Read : AccessType::Write;
      const auto d = dut.access(a, type);
      const auto r = ref.access(a, type);
      ASSERT_EQ(d.hit, r.hit) << "step " << step;
      ASSERT_EQ(d.hit_prefetched, r.hit_prefetched) << "step " << step;
      ASSERT_TRUE(same_fill(d.fill, r.fill)) << "step " << step;
      marks_consumed += d.hit_prefetched;
      marks_evicted += d.fill.evicted_prefetched;
    } else if (op < 85) {
      const bool dirty = rng.chance(0.5);
      const bool prefetched = rng.chance(0.5);
      const auto d = dut.fill(a, dirty, prefetched);
      ASSERT_TRUE(same_fill(d, ref.fill(a, dirty, prefetched))) << "step " << step;
      marks_evicted += d.evicted_prefetched;
    } else if (op < 92) {
      ASSERT_EQ(dut.invalidate(a), ref.invalidate(a)) << "step " << step;
    } else {
      ASSERT_EQ(dut.contains(a), ref.contains(a)) << "step " << step;
    }
    if (recent.size() < 16) recent.push_back(a);
    else recent[rng.next_below(recent.size())] = a;

    const auto& ds = dut.stats();
    const auto& rs = ref.stats();
    ASSERT_EQ(ds.hits, rs.hits) << "step " << step;
    ASSERT_EQ(ds.misses, rs.misses) << "step " << step;
    ASSERT_EQ(ds.evictions, rs.evictions) << "step " << step;
    ASSERT_EQ(ds.writebacks, rs.writebacks) << "step " << step;
    if (step % shape.image_every == 0 || step + 1 == shape.steps) {
      ASSERT_EQ(image(dut), image(ref)) << "step " << step;
      ASSERT_EQ(dut.prefetched_lines(), ref.prefetched_lines()) << "step " << step;
    }
  }
  EXPECT_GT(dut.stats().evictions, 0u);
  EXPECT_GT(dut.stats().writebacks, 0u);
  EXPECT_GT(marks_consumed, 0u);
  EXPECT_GT(marks_evicted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByShape, CacheDifferential,
    ::testing::Combine(::testing::Values(ReplPolicy::Lru, ReplPolicy::Random, ReplPolicy::Srrip,
                                         ReplPolicy::Drrip, ReplPolicy::EafLru),
                       ::testing::ValuesIn(kShapes)),
    [](const auto& info) {
      std::string n = to_string(std::get<0>(info.param));
      for (auto& c : n)
        if (c == '-') c = '_';
      return n + "_" + std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace ima::cache
