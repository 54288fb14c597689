#include "sim/system.hh"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <ostream>

#include "obs/stat_registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "obs/watchdog.hh"

namespace ima::sim {

const char* to_string(PrefetchKind k) {
  switch (k) {
    case PrefetchKind::None: return "none";
    case PrefetchKind::NextLine: return "next-line";
    case PrefetchKind::Stride: return "stride";
    case PrefetchKind::Ghb: return "ghb-delta";
    case PrefetchKind::FilteredStride: return "filtered-stride";
    case PrefetchKind::Feedback: return "feedback-stride";
  }
  return "?";
}

System::System(const SystemConfig& cfg,
               std::vector<std::unique_ptr<workloads::AccessStream>> streams)
    : cfg_(cfg) {
  assert(streams.size() == cfg.num_cores);
  mem_ = std::make_unique<mem::MemorySystem>(cfg.dram, cfg.ctrl, cfg.map);
  mem_->set_clock_mode(cfg.clock);  // drains on memory() follow the system's mode
  for (std::uint32_t i = 0; i < cfg.num_cores; ++i) {
    cache::CacheConfig l1cfg = cfg.l1;
    l1cfg.seed = cfg.l1.seed + i;
    l1s_.push_back(std::make_unique<cache::Cache>(l1cfg));
  }
  l2_ = std::make_unique<cache::Cache>(cfg.l2);

  switch (cfg.prefetch) {
    case PrefetchKind::None: prefetcher_ = cache::make_no_prefetcher(); break;
    case PrefetchKind::NextLine: prefetcher_ = cache::make_next_line(2); break;
    case PrefetchKind::Stride: prefetcher_ = cache::make_stride(); break;
    case PrefetchKind::Ghb: prefetcher_ = cache::make_ghb_delta(); break;
    case PrefetchKind::FilteredStride: {
      auto filtered = std::make_unique<cache::FilteredPrefetcher>(cache::make_stride());
      trainable_ = filtered.get();
      prefetcher_ = std::move(filtered);
      break;
    }
    case PrefetchKind::Feedback: {
      auto fb = std::make_unique<cache::FeedbackPrefetcher>();
      trainable_ = fb.get();
      prefetcher_ = std::move(fb);
      break;
    }
  }

  for (std::uint32_t i = 0; i < cfg.num_cores; ++i)
    cores_.push_back(std::make_unique<core::SimpleCore>(i, std::move(streams[i]), *this, cfg.core));
  chan_due_.assign(mem_->num_channels(), 0);
  chan_visits_.assign(mem_->num_channels(), 0);
  core_due_.assign(cfg.num_cores, 0);
  core_visits_.assign(cfg.num_cores, 0);
}

System::~System() = default;

obs::TraceSink& System::enable_trace(std::size_t capacity) {
  if (!trace_ || trace_->capacity() != capacity) {
    trace_ = std::make_unique<obs::TraceSink>(capacity);
    mem_->set_trace(trace_.get());
  }
  return *trace_;
}

void System::register_stats(obs::StatRegistry& reg, const std::string& prefix) const {
  const obs::StatRegistry::OwnerScope scope(reg, stats_alive_);
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    const std::string core_prefix = obs::join_path(prefix, "core" + std::to_string(i));
    const auto& cs = cores_[i]->stats();
    reg.counter(obs::join_path(core_prefix, "instructions"), &cs.instructions);
    reg.counter(obs::join_path(core_prefix, "loads"), &cs.loads);
    reg.counter(obs::join_path(core_prefix, "stores"), &cs.stores);
    reg.counter(obs::join_path(core_prefix, "stall_cycles"), &cs.stall_cycles);
    reg.counter(obs::join_path(core_prefix, "runahead_prefetches"), &cs.runahead_prefetches);
    l1s_[i]->register_stats(reg, obs::join_path(core_prefix, "l1"));
  }
  l2_->register_stats(reg, obs::join_path(prefix, "l2"));
  const std::string pf = obs::join_path(prefix, "prefetch");
  reg.counter(obs::join_path(pf, "issued"), &pf_stats_.issued);
  reg.counter(obs::join_path(pf, "useful"), &pf_stats_.useful);
  reg.counter(obs::join_path(pf, "useless"), &pf_stats_.useless);
  prefetcher_->register_stats(reg, pf);
  mem_->register_stats(reg, obs::join_path(prefix, "mem"));
}

bool System::enqueue_mem(const mem::Request& req, mem::CompletionCallback cb) {
  if (!mem_->enqueue(req, std::move(cb))) return false;
  Cycle& due = chan_due_[mem_->mapper().decode(req.addr).channel];
  due = std::min(due, now_);
  return true;
}

void System::enqueue_mem_write(Addr addr) {
  mem::Request wr;
  wr.addr = addr;
  wr.type = AccessType::Write;
  wr.core = 0;  // writebacks are not attributed to a core
  wr.arrive = now_;
  if (!mem_->can_accept(addr, AccessType::Write) || !enqueue_mem(wr)) {
    pending_writes_.push_back(addr);
  }
}

void System::flush_pending_writes() {
  while (!pending_writes_.empty()) {
    const Addr a = pending_writes_.front();
    mem::Request wr;
    wr.addr = a;
    wr.type = AccessType::Write;
    wr.arrive = now_;
    if (!mem_->can_accept(a, AccessType::Write) || !enqueue_mem(wr)) return;
    pending_writes_.pop_front();
  }
}

void System::retire_prefetched(Addr line, bool useful) {
  ++(useful ? pf_stats_.useful : pf_stats_.useless);
  IMA_TRACE(trace_.get(), .cycle = now_,
            .kind = useful ? obs::EventKind::PrefetchUseful : obs::EventKind::PrefetchUseless,
            .arg0 = line, .name = useful ? "pf-useful" : "pf-useless");
  std::uint64_t pc = 0;
  if (const auto it = prefetch_pc_.find(line); it != prefetch_pc_.end()) {
    pc = it->second;
    prefetch_pc_.erase(it);
  }
  if (trainable_) {
    if (useful) trainable_->notify_useful(line, pc);
    else trainable_->notify_useless(line, pc);
  }
}

void System::handle_l1_victim(std::uint32_t /*core*/, const cache::Cache::FillResult& fr) {
  if (!fr.evicted || !fr.evicted_dirty) return;
  // Dirty L1 victim writes back into L2; its own victim may cascade to DRAM.
  handle_l2_victim(l2_->fill(*fr.evicted, /*dirty=*/true));
}

void System::handle_l2_victim(const cache::Cache::FillResult& fr) {
  if (!fr.evicted) return;
  if (fr.evicted_prefetched) retire_prefetched(*fr.evicted, /*useful=*/false);
  if (fr.evicted_dirty) enqueue_mem_write(*fr.evicted);
}

void System::issue_prefetches(Addr addr, std::uint64_t pc, bool was_miss) {
  pf_candidates_.clear();
  prefetcher_->observe(addr, pc, was_miss, pf_candidates_);
  for (const auto& c : pf_candidates_) {
    const Addr line = line_base(c.addr);
    if (l2_->contains(line)) continue;
    if (!mem_->can_accept(line, AccessType::Read)) continue;
    mem::Request pf;
    pf.addr = line;
    pf.type = AccessType::Read;
    pf.is_prefetch = true;
    pf.arrive = now_;
    // Two-word closure (the line is the request's address): no allocation.
    const std::uint64_t cpc = c.pc;
    const bool ok = enqueue_mem(pf, [this, cpc](const mem::Request& r) {
      const Addr line = r.addr;
      const auto fr = l2_->fill(line, /*dirty=*/false, /*prefetched=*/true);
      prefetch_pc_[line] = cpc;
      handle_l2_victim(fr);
    });
    if (ok) {
      ++pf_stats_.issued;
      IMA_TRACE(trace_.get(), .cycle = now_, .kind = obs::EventKind::PrefetchIssue,
                .arg0 = line, .arg1 = cpc, .name = "pf-issue");
    }
  }
}

std::optional<Cycle> System::issue(std::uint32_t core, const workloads::TraceEntry& access,
                                   Cycle now, bool speculative) {
  const Addr line = line_base(access.addr);
  cache::Cache& l1 = *l1s_[core];

  if (speculative) {
    // Runahead prefetch: warm the L2 without touching architected state.
    if (l1.contains(line) || l2_->contains(line)) return now + 1;
    if (!mem_->can_accept(line, AccessType::Read)) return std::nullopt;
    mem::Request pf;
    pf.addr = line;
    pf.type = AccessType::Read;
    pf.core = core;
    pf.is_prefetch = true;
    pf.arrive = now;
    const bool ok = enqueue_mem(pf, [this, line](const mem::Request&) {
      handle_l2_victim(l2_->fill(line, /*dirty=*/false));
    });
    if (!ok) return std::nullopt;
    return now + 1;
  }

  // Peek whether this will need a DRAM read before mutating cache state, so
  // a full memory queue can be reported as "retry" without side effects.
  const bool l1_would_hit = l1.contains(line);
  const bool l2_would_hit = l2_->contains(line);
  const bool needs_dram_read =
      access.type == AccessType::Read && !l1_would_hit && !l2_would_hit;
  if (needs_dram_read && !mem_->can_accept(line, AccessType::Read, core)) return std::nullopt;

  const auto l1res = l1.access(line, access.type);
  if (l1res.hit) return now + cfg_.l1.hit_latency;
  handle_l1_victim(core, l1res.fill);

  if (access.type == AccessType::Write) {
    // No-fetch write allocate: the L1 line is now valid+dirty; nothing else
    // to do. (Write data reaches DRAM via the writeback chain.)
    issue_prefetches(line, access.pc, /*was_miss=*/!l2_would_hit);
    return now + cfg_.l1.hit_latency;
  }

  const auto l2res = l2_->access(line, AccessType::Read);
  if (l2res.hit) {
    if (l2res.hit_prefetched) retire_prefetched(line, /*useful=*/true);
    issue_prefetches(line, access.pc, /*was_miss=*/false);
    return now + cfg_.l2.hit_latency;
  }
  handle_l2_victim(l2res.fill);

  // Demand read first: it must claim the queue slot reserved by the
  // can_accept check above before prefetches can consume the remaining
  // capacity (a dropped demand enqueue would lose the wake-up callback and
  // wedge the core forever). The two-word closure fits std::function's
  // local buffer: no allocation per miss.
  mem::Request rd;
  rd.addr = line;
  rd.type = AccessType::Read;
  rd.core = core;
  rd.arrive = now;
  const bool ok = enqueue_mem(rd, [this, core](const mem::Request& r) {
    cores_[core]->wake(r.complete + cfg_.l2.hit_latency);
    // Poke: the woken core's cursor (kCycleNever while blocked) is stale.
    core_due_[core] = std::min(core_due_[core], now_);
  });
  assert(ok && "can_accept was checked above");
  (void)ok;

  issue_prefetches(line, access.pc, /*was_miss=*/true);
  return kCycleNever;
}

obs::Watchdog& System::arm_watchdog(std::uint64_t stall_cycles) {
  obs::Watchdog::Config wcfg;
  if (stall_cycles > 0) wcfg.stall_cycles = stall_cycles;
  watchdog_ = std::make_unique<obs::Watchdog>(wcfg);
  // Private registry: the artifact's stats snapshot must not depend on
  // whether the embedding harness registered this system anywhere.
  wd_registry_ = std::make_unique<obs::StatRegistry>();
  register_stats(*wd_registry_);
  watchdog_->set_registry(wd_registry_.get());
  if (trace_) watchdog_->set_trace(trace_.get());
  watchdog_->set_progress([this] {
    std::uint64_t t = mem_->progress_token();
    for (const auto& c : cores_)
      t += c->stats().instructions + c->stats().stall_cycles;
    return t;
  });
  // Per-shard (per-channel when no shard plan is armed) stall anchors: one
  // wedged channel fires even while the summed token keeps rising.
  watchdog_->set_shard_progress(
      [this](std::vector<obs::ShardProgress>& out) { mem_->shard_progress(out); });
  watchdog_->add_dump("memory", [this](std::ostream& os, Cycle now) { mem_->dump(os, now); });
  watchdog_->add_dump("cores", [this](std::ostream& os, Cycle now) {
    for (const auto& c : cores_) c->dump(os, now);
    os << "pending_writes=" << pending_writes_.size() << "\n";
  });
  // Escalation: a fire at a quiescent point (fail() from a drain deadline
  // at an epoch barrier) leaves a restorable checkpoint beside the
  // artifact; mid-epoch the save refuses and the artifact records why.
  watchdog_->set_checkpoint_writer([this](const std::string& path) { save(path); });
  mem_->set_watchdog(watchdog_.get());
  return *watchdog_;
}

Cycle System::run(Cycle max_cycles) {
  if (!watchdog_) {
    if (const char* env = std::getenv("IMA_WATCHDOG")) {
      if (const std::uint64_t n = std::strtoull(env, nullptr, 10); n > 0) arm_watchdog(n);
    }
  }
  // Per-component due cursors (DESIGN.md "Clocking model"): each channel
  // and each core is ticked only at its own events, not at the union of
  // everyone's. Exact because a tick at a non-event cycle is a no-op (the
  // per-cycle == skip-ahead invariant) and every outside change to a
  // component pokes it: an enqueue pokes its channel, a demand-read
  // completion the core it wakes. A poke lowers the cursor to now_, so a
  // component whose turn in this tick is still to come is ticked, and next
  // recomputes the cursor of every component ticked or poked at `now`.
  // The first tick ticks everything (a resumed run re-ticks the previous
  // run's end cycle, as the per-cycle reference does). PerCycle never
  // calls next, so every cursor stays at or below `now`.
  const std::uint32_t nch = mem_->num_channels();
  const auto ncores = static_cast<std::uint32_t>(cores_.size());
  std::fill(chan_due_.begin(), chan_due_.end(), now_);
  std::fill(core_due_.begin(), core_due_.end(), now_);
  // Forced all-component ticks bring the delta-accounted core stall and
  // retire counts up to date where someone reads them: at the window's
  // last cycle (the per-cycle reference's final tick) and, while a time
  // series is attached, at the cycle before each of its boundaries.
  // first_forced(c) is the first forced cycle at or after c.
  const Cycle last = max_cycles - 1;
  const Cycle period = timeseries_ ? timeseries_->data().period : 0;
  const auto first_forced = [last, period](Cycle c) {
    return period == 0 ? last : std::min(last, c / period * period + period - 1);
  };
  const auto tick = [&](Cycle now) {
    // Sample *before* any state mutation: skipped cycles are state-neutral,
    // so pre-tick sampling sees the same values in every clock mode.
    if (timeseries_) timeseries_->advance(now);
    now_ = now;
    if (first_forced(now) == now) {
      std::fill(chan_due_.begin(), chan_due_.end(), now);
      std::fill(core_due_.begin(), core_due_.end(), now);
    }
    for (std::uint32_t ch = 0; ch < nch; ++ch) {
      if (chan_due_[ch] > now) continue;
      ++chan_visits_[ch];
      mem_->controller(ch).tick(now);
    }
    // Writeback retries only happen on cycles where any are pending — the
    // event kernel never wakes just for an empty deque.
    if (!pending_writes_.empty()) flush_pending_writes();
    for (std::uint32_t i = 0; i < ncores; ++i) {
      if (core_due_[i] > now) continue;
      ++core_visits_[i];
      cores_[i]->tick(now);
    }
  };
  const auto done = [this] {
    for (const auto& c : cores_)
      if (!c->done()) return false;
    return true;
  };
  const auto next = [&](Cycle now) {
    // At most the next forced cycle (<= now once `last` is reached, which
    // ends the loop at the limit).
    Cycle nxt = pending_writes_.empty() ? first_forced(now + 1) : now + 1;
    for (std::uint32_t ch = 0; ch < nch; ++ch) {
      Cycle& due = chan_due_[ch];
      if (due <= now) due = std::max(mem_->controller(ch).next_event(now), now + 1);
      nxt = std::min(nxt, due);
    }
    for (std::uint32_t i = 0; i < ncores; ++i) {
      Cycle& due = core_due_[i];
      if (due <= now) due = std::max(cores_[i]->next_event(now), now + 1);
      nxt = std::min(nxt, due);
    }
    return nxt;
  };
  const Cycle end =
      watchdog_ ? sim::run_event_loop(cfg_.clock, now_, max_cycles, tick, done, next,
                                      [this](Cycle now) { watchdog_->iterate(now); })
                : sim::run_event_loop(cfg_.clock, now_, max_cycles, tick, done, next);
  now_ = end;
  // Boundaries between the last tick and the end cycle see no further state
  // changes; flushing them here keeps the sample stream end identical
  // across clock modes.
  if (timeseries_) timeseries_->advance(end);
  return now_;
}

Cycle System::next_event(Cycle now) const {
  if (!pending_writes_.empty()) return now + 1;
  Cycle next = mem_->next_event(now);
  for (const auto& c : cores_) next = std::min(next, c->next_event(now));
  return next;
}

System::EnergyBreakdown System::energy() const {
  EnergyBreakdown e;
  std::uint64_t instrs = 0;
  for (const auto& c : cores_) instrs += c->stats().instructions;
  e.compute = static_cast<double>(instrs) * cfg_.e_instr;

  std::uint64_t l1_accesses = 0;
  for (const auto& c : l1s_) l1_accesses += c->stats().hits + c->stats().misses;
  const std::uint64_t l2_accesses = l2_->stats().hits + l2_->stats().misses;
  e.cache = static_cast<double>(l1_accesses) * cfg_.e_l1_access +
            static_cast<double>(l2_accesses) * cfg_.e_l2_access;

  for (std::uint32_t ch = 0; ch < mem_->num_channels(); ++ch) {
    e.dram_dynamic += mem_->controller(ch).channel().stats().cmd_energy;
    e.dram_background += mem_->controller(ch).channel().background_energy(now_);
  }
  return e;
}

std::vector<double> System::core_ipcs() const {
  std::vector<double> out;
  out.reserve(cores_.size());
  for (const auto& c : cores_) out.push_back(c->stats().ipc(now_ ? now_ : 1));
  return out;
}

}  // namespace ima::sim
