// Set-associative cache with pluggable replacement policies.
//
// Policies cover the fixed-heuristic baselines the paper's data-driven
// critique names (LRU, RRIP-family) plus an EAF-style filter (Seshadri et
// al., PACT 2012 [160]) that uses recent-eviction history — an early form
// of decision-making from observed data.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace ima::obs {
class StatRegistry;
}  // namespace ima::obs

namespace ima::ckpt {
class Sink;
class Source;
}  // namespace ima::ckpt

namespace ima::cache {

enum class ReplPolicy : std::uint8_t { Lru, Random, Srrip, Drrip, EafLru };

const char* to_string(ReplPolicy p);

struct CacheConfig {
  std::string name = "L1";
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t ways = 8;
  ReplPolicy repl = ReplPolicy::Lru;
  Cycle hit_latency = 4;
  std::uint64_t seed = 1;

  std::uint32_t sets() const {
    return static_cast<std::uint32_t>(size_bytes / (static_cast<std::uint64_t>(ways) * kLineBytes));
  }
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct FillResult {
    std::optional<Addr> evicted;      // victim line (clean or dirty)
    bool evicted_dirty = false;       // true -> the victim needs writeback
    bool evicted_prefetched = false;  // the victim still carried the prefetch mark
  };

  struct AccessResult {
    bool hit = false;
    bool hit_prefetched = false;  // the hit consumed the line's prefetch mark
    FillResult fill;              // populated on miss (allocation side effects)
  };

  /// Looks up `addr`; on miss, allocates the line immediately (the caller
  /// models fill latency) and reports any victim. A hit is a demand use:
  /// it clears the line's prefetch mark.
  AccessResult access(Addr addr, AccessType type);

  /// Lookup without allocation or LRU update (probe).
  bool contains(Addr addr) const;

  /// Install a line without it being a demand access. `prefetched` sets the
  /// line's prefetch mark, which stays until a hit or the line's eviction.
  /// Filling a resident line only merges the dirty bit and the mark.
  FillResult fill(Addr addr, bool dirty = false, bool prefetched = false);

  /// Invalidate a line; returns its dirty-writeback address if any.
  std::optional<Addr> invalidate(Addr addr);

  /// Resident lines that carry the prefetch mark, in layout order.
  std::vector<Addr> prefetched_lines() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    double miss_rate() const {
      const auto total = hits + misses;
      return total ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }

  /// Hit/miss/eviction counters plus a live miss-rate gauge under `prefix`.
  void register_stats(obs::StatRegistry& reg, const std::string& prefix) const;

  /// Checkpoint lines, LRU clock, replacement RNG/duel state and stats.
  /// The EAF set is rebuilt from the serialized FIFO on load.
  void save_state(ckpt::Sink& s) const;
  void load_state(ckpt::Source& s);

 private:
  // Per-line state lives in one block (DESIGN.md "Cache state layout"):
  // `lines_` tag words, then `lines_` LRU stamps, then `lines_` RRIP bytes.
  // A tag word is the line base with the flags below in the low bits that
  // a line base leaves zero; an invalidated line keeps its base.
  static constexpr std::uint64_t kValid = 1;
  static constexpr std::uint64_t kDirty = 2;
  static constexpr std::uint64_t kPrefetched = 4;
  static constexpr std::uint64_t kFlagMask = kLineBytes - 1;
  static_assert(kLineBytes >= 8 && (kLineBytes & (kLineBytes - 1)) == 0,
                "the tag word's flags sit below the line offset");

  std::uint32_t set_of(Addr addr) const {
    return static_cast<std::uint32_t>((addr / kLineBytes) & set_mask_);
  }
  std::uint64_t* words() { return block_.data(); }
  const std::uint64_t* words() const { return block_.data(); }
  std::uint64_t* lru() { return block_.data() + lines_; }
  const std::uint64_t* lru() const { return block_.data() + lines_; }
  std::uint8_t* rrpv() { return reinterpret_cast<std::uint8_t*>(block_.data() + 2 * lines_); }
  const std::uint8_t* rrpv() const {
    return reinterpret_cast<const std::uint8_t*>(block_.data() + 2 * lines_);
  }

  /// Way of the valid line holding `tag` in the set whose first line is
  /// `base`, or cfg_.ways when it is absent.
  std::uint32_t find_way(std::size_t base, Addr tag) const;
  std::uint32_t choose_victim(std::size_t base);
  /// Miss path after the lookup: evict, then install `tag` with `flags`.
  FillResult install(std::uint32_t set, std::size_t base, Addr tag, std::uint64_t flags);
  void touch(std::size_t line, bool is_insert);

  CacheConfig cfg_;
  std::uint32_t sets_;
  std::uint32_t set_mask_;
  std::size_t lines_;                 // sets * ways, row-major by set
  std::vector<std::uint64_t> block_;  // words | LRU stamps | RRIP bytes
  std::uint64_t clock_ = 0;
  Rng rng_;
  Stats stats_;

  // DRRIP set-dueling state.
  std::uint32_t psel_ = 512;
  // EAF: recent-eviction filter (bounded FIFO set).
  std::deque<Addr> eaf_fifo_;
  std::unordered_set<Addr> eaf_set_;
};

}  // namespace ima::cache
