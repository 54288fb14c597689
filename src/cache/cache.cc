#include "cache/cache.hh"

#include <algorithm>
#include <cassert>

#include "common/bits.hh"
#include "common/ckpt.hh"
#include "obs/stat_registry.hh"

namespace ima::cache {

void Cache::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  reg.counter(obs::join_path(prefix, "hits"), &stats_.hits);
  reg.counter(obs::join_path(prefix, "misses"), &stats_.misses);
  reg.counter(obs::join_path(prefix, "evictions"), &stats_.evictions);
  reg.counter(obs::join_path(prefix, "writebacks"), &stats_.writebacks);
  reg.gauge(obs::join_path(prefix, "miss_rate"), [this] { return stats_.miss_rate(); });
}

const char* to_string(ReplPolicy p) {
  switch (p) {
    case ReplPolicy::Lru: return "LRU";
    case ReplPolicy::Random: return "Random";
    case ReplPolicy::Srrip: return "SRRIP";
    case ReplPolicy::Drrip: return "DRRIP";
    case ReplPolicy::EafLru: return "EAF-LRU";
  }
  return "?";
}

Cache::Cache(const CacheConfig& cfg)
    : cfg_(cfg),
      sets_(cfg.sets()),
      set_mask_(sets_ - 1),
      lines_(static_cast<std::size_t>(sets_) * cfg.ways),
      // One allocation: three separate vectors of this size cost a trim and
      // re-fault of each freed block on every construction.
      block_(2 * lines_ + (lines_ + 7) / 8),
      rng_(cfg.seed) {
  assert(sets_ > 0 && is_pow2(sets_));
  std::fill_n(rrpv(), lines_, std::uint8_t{3});
}

std::uint32_t Cache::find_way(std::size_t base, Addr tag) const {
  const std::uint64_t* w = words() + base;
  const std::uint64_t want = tag | kValid;
  for (std::uint32_t i = 0; i < cfg_.ways; ++i)
    if ((w[i] & ~(kDirty | kPrefetched)) == want) return i;
  return cfg_.ways;
}

bool Cache::contains(Addr addr) const {
  const Addr tag = line_base(addr);
  return find_way(static_cast<std::size_t>(set_of(addr)) * cfg_.ways, tag) != cfg_.ways;
}

void Cache::touch(std::size_t line, bool is_insert) {
  lru()[line] = ++clock_;
  switch (cfg_.repl) {
    case ReplPolicy::Srrip:
      rrpv()[line] = is_insert ? 2 : 0;
      break;
    case ReplPolicy::Drrip: {
      if (!is_insert) {
        rrpv()[line] = 0;
        break;
      }
      // Set dueling between SRRIP insertion (rrpv=2) and bimodal (rrpv=3
      // mostly): psel tracks which leader policy misses less.
      const bool brrip_mode = psel_ >= 512;
      if (brrip_mode) rrpv()[line] = rng_.chance(1.0 / 32.0) ? 2 : 3;
      else rrpv()[line] = 2;
      break;
    }
    default:
      break;
  }
}

std::uint32_t Cache::choose_victim(std::size_t base) {
  const std::uint64_t* w = words() + base;
  // Invalid line first.
  for (std::uint32_t i = 0; i < cfg_.ways; ++i)
    if (!(w[i] & kValid)) return i;

  switch (cfg_.repl) {
    case ReplPolicy::Random:
      return static_cast<std::uint32_t>(rng_.next_below(cfg_.ways));
    case ReplPolicy::Srrip:
    case ReplPolicy::Drrip: {
      std::uint8_t* r = rrpv() + base;
      for (;;) {
        for (std::uint32_t i = 0; i < cfg_.ways; ++i)
          if (r[i] >= 3) return i;
        for (std::uint32_t i = 0; i < cfg_.ways; ++i)
          if (r[i] < 3) ++r[i];
      }
    }
    case ReplPolicy::Lru:
    case ReplPolicy::EafLru:
    default: {
      const std::uint64_t* stamp = lru() + base;
      std::uint32_t victim = 0;
      for (std::uint32_t i = 1; i < cfg_.ways; ++i)
        if (stamp[i] < stamp[victim]) victim = i;
      return victim;
    }
  }
}

Cache::AccessResult Cache::access(Addr addr, AccessType type) {
  const std::uint32_t set = set_of(addr);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;
  const Addr tag = line_base(addr);
  AccessResult res;
  if (const std::uint32_t w = find_way(base, tag); w != cfg_.ways) {
    std::uint64_t& word = words()[base + w];
    res.hit = true;
    res.hit_prefetched = (word & kPrefetched) != 0;
    ++stats_.hits;
    touch(base + w, /*is_insert=*/false);
    word = (word & ~kPrefetched) | (type == AccessType::Write ? kDirty : 0);
    return res;
  }
  ++stats_.misses;
  res.fill = install(set, base, tag, type == AccessType::Write ? kDirty : 0);
  return res;
}

Cache::FillResult Cache::fill(Addr addr, bool dirty, bool prefetched) {
  const std::uint32_t set = set_of(addr);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;
  const Addr tag = line_base(addr);
  const std::uint64_t flags = (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0);
  if (const std::uint32_t w = find_way(base, tag); w != cfg_.ways) {
    words()[base + w] |= flags;  // racing fills are idempotent
    return {};
  }
  return install(set, base, tag, flags);
}

Cache::FillResult Cache::install(std::uint32_t set, std::size_t base, Addr tag,
                                 std::uint64_t flags) {
  const std::size_t line = base + choose_victim(base);
  std::uint64_t& word = words()[line];

  FillResult res;
  if (word & kValid) {
    const Addr victim = word & ~kFlagMask;
    ++stats_.evictions;
    res.evicted = victim;
    if (word & kDirty) {
      res.evicted_dirty = true;
      ++stats_.writebacks;
    }
    res.evicted_prefetched = (word & kPrefetched) != 0;
    if (cfg_.repl == ReplPolicy::EafLru) {
      // Remember the evicted address in the EAF.
      if (eaf_set_.insert(victim).second) {
        eaf_fifo_.push_back(victim);
        if (eaf_fifo_.size() > lines_) {
          eaf_set_.erase(eaf_fifo_.front());
          eaf_fifo_.pop_front();
        }
      }
    }
    if (cfg_.repl == ReplPolicy::Drrip) {
      // Leader-set bookkeeping: low sets lead SRRIP, high sets lead BRRIP.
      if (set < 32 && psel_ < 1023) ++psel_;
      else if (set >= sets_ - 32 && psel_ > 0) --psel_;
    }
  }

  word = tag | kValid | flags;
  touch(line, /*is_insert=*/true);

  if (cfg_.repl == ReplPolicy::EafLru && eaf_set_.count(tag)) {
    // Recently evicted and returned: high reuse — keep long (nothing to do
    // for LRU beyond the touch). Remove from filter.
    eaf_set_.erase(tag);
  } else if (cfg_.repl == ReplPolicy::EafLru) {
    // First-time or streaming line: insert at LRU position instead of MRU
    // so cache pollution evicts itself first.
    lru()[line] = 0;
  }
  return res;
}

std::optional<Addr> Cache::invalidate(Addr addr) {
  const std::size_t base = static_cast<std::size_t>(set_of(addr)) * cfg_.ways;
  const Addr tag = line_base(addr);
  const std::uint32_t w = find_way(base, tag);
  if (w == cfg_.ways) return std::nullopt;
  std::uint64_t& word = words()[base + w];
  const bool dirty = (word & kDirty) != 0;
  word = tag;
  if (dirty) return tag;
  return std::nullopt;
}

std::vector<Addr> Cache::prefetched_lines() const {
  std::vector<Addr> out;
  for (std::size_t i = 0; i < lines_; ++i)
    if (words()[i] & kPrefetched) out.push_back(words()[i] & ~kFlagMask);
  return out;
}

void Cache::save_state(ckpt::Sink& s) const {
  s.section("cache");
  s.str(cfg_.name);
  s.u64(lines_);
  for (std::size_t i = 0; i < lines_; ++i) {
    const std::uint64_t word = words()[i];
    s.b((word & kValid) != 0);
    s.b((word & kDirty) != 0);
    s.u64(word & ~kFlagMask);
    s.u64(lru()[i]);
    s.u8(rrpv()[i]);
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

void Cache::load_state(ckpt::Source& s) {
  s.section("cache");
  s.match_str(cfg_.name, "cache name");
  s.match_u64(lines_, "cache line count");
  for (std::size_t i = 0; i < lines_; ++i) {
    const bool valid = s.b();
    const bool dirty = s.b();
    const Addr tag = s.u64();
    if (tag & kFlagMask) s.fail(ckpt::ErrorKind::Format, "cache tag is not a line base");
    words()[i] = tag | (valid ? kValid : 0) | (dirty ? kDirty : 0);
    lru()[i] = s.u64();
    rrpv()[i] = s.u8();
  }
  clock_ = s.u64();
  rng_.load_state(s);
  stats_.hits = s.u64();
  stats_.misses = s.u64();
  stats_.evictions = s.u64();
  stats_.writebacks = s.u64();
  psel_ = s.u32();
  eaf_fifo_.clear();
  eaf_set_.clear();
  const std::uint64_t eaf_n = s.u64();
  for (std::uint64_t i = 0; i < eaf_n; ++i) {
    const Addr a = s.u64();
    eaf_fifo_.push_back(a);
    eaf_set_.insert(a);
  }
}

}  // namespace ima::cache
