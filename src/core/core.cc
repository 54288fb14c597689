#include "core/core.hh"

#include <algorithm>
#include <ostream>

#include "common/ckpt.hh"

namespace ima::core {

SimpleCore::SimpleCore(std::uint32_t id, std::unique_ptr<workloads::AccessStream> stream,
                       MemoryPort& port, const CoreConfig& cfg)
    : id_(id), stream_(std::move(stream)), port_(port), cfg_(cfg) {
  fetch_next();
}

void SimpleCore::fetch_next() {
  if (!lookahead_.empty()) {
    current_ = lookahead_.front();
    lookahead_.pop_front();
    if (runahead_pos_ > 0) --runahead_pos_;
  } else {
    current_ = stream_->next();
  }
  compute_left_ = current_.compute;
  access_pending_ = true;
}

void SimpleCore::runahead_step(Cycle now) {
  if (runahead_issued_ >= cfg_.runahead_depth) return;
  // Fetch further down the stream and issue the next load as a prefetch.
  // Stores and their side effects are dropped (runahead is speculative).
  while (runahead_pos_ >= lookahead_.size()) lookahead_.push_back(stream_->next());
  const workloads::TraceEntry& e = lookahead_[runahead_pos_];
  if (e.dependent) {
    // Address depends on an unreturned load value: runahead cannot compute
    // it (or anything after it) — stall until the blocking miss resolves.
    runahead_issued_ = cfg_.runahead_depth;
    return;
  }
  ++runahead_pos_;
  if (e.type != AccessType::Read) return;
  workloads::TraceEntry pf = e;
  const auto res = port_.issue(id_, pf, now, /*speculative=*/true);
  if (res.has_value()) {
    ++runahead_issued_;
    ++stats_.runahead_prefetches;
  } else {
    --runahead_pos_;  // queue full: retry this entry next cycle
  }
}

void SimpleCore::tick(Cycle now) {
  // Cycles of simulated time this tick covers (ticks may skip ahead; the
  // first tick ever covers exactly one cycle).
  Cycle elapsed = last_tick_ == kCycleNever ? 1 : now - last_tick_;
  const Cycle prev = now - elapsed;
  last_tick_ = now;
  if (done()) return;

  if (waiting_) {
    if (now < ready_at_) {
      stats_.stall_cycles += elapsed;
      if (cfg_.runahead) runahead_step(now);
      return;
    }
    // Waking: cycles (prev, ready_at_) stalled; [ready_at_, now] execute.
    if (ready_at_ > prev + 1) stats_.stall_cycles += ready_at_ - 1 - prev;
    elapsed = now - ready_at_ + 1;
    waiting_ = false;
    runahead_issued_ = 0;
    runahead_pos_ = 0;  // re-walk the lookahead architecturally
  }

  // Retire compute instructions at pipeline width per elapsed cycle. When
  // the compute ran out before `now`, the per-cycle reference issues the
  // access at the cycle after it ran out — which is `now`, since
  // next_event() reports that cycle and no later one — so fall through and
  // issue in this same tick.
  if (compute_left_ > 0) {
    const std::uint64_t need = (compute_left_ + cfg_.width - 1) / cfg_.width;
    const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        compute_left_, static_cast<std::uint64_t>(cfg_.width) * elapsed));
    compute_left_ -= n;
    stats_.instructions += n;
    stats_.finish_cycle = now;
    if (need >= elapsed || done()) return;
  }

  if (!access_pending_) return;

  const auto& access = current_;
  async_done_ = false;
  auto result = port_.issue(id_, access, now);

  if (!result.has_value()) {
    ++stats_.stall_cycles;  // queue full; retry next cycle
    return;
  }

  ++stats_.instructions;
  stats_.finish_cycle = now;
  if (access.type == AccessType::Read) ++stats_.loads;
  else ++stats_.stores;
  access_pending_ = false;

  if (access.type == AccessType::Read) {
    if (*result == kCycleNever) {
      // Asynchronous miss: block until the port calls wake().
      waiting_ = true;
      if (!async_done_) ready_at_ = kCycleNever;
      // If wake() already ran, ready_at_ holds the real wakeup cycle.
    } else if (*result > now + 1) {
      waiting_ = true;
      ready_at_ = *result;
    }
  }
  // Stores are posted: never block.

  fetch_next();
}

Cycle SimpleCore::next_event(Cycle now) const {
  if (done()) return kCycleNever;
  // First cycle of the remaining compute: the wake-up cycle while blocked,
  // else the cycle after this tick.
  Cycle start = now + 1;
  if (waiting_) {
    // Runahead issues one speculative access per stall cycle until the
    // depth budget is spent: no skipping while it is active.
    if (cfg_.runahead && runahead_issued_ < cfg_.runahead_depth) return now + 1;
    // kCycleNever while an async miss is outstanding: the wake-up pokes
    // the core (System::run) and its next event is recomputed then.
    if (ready_at_ == kCycleNever) return kCycleNever;
    start = ready_at_;
  }
  // The access issues (or retries) the cycle after the compute runs out;
  // the cycles in between only retire cfg_.width instructions each, which
  // the issuing tick accounts for. The one other boundary is the
  // instruction-limit crossing, where done() must turn true.
  const std::uint64_t steps = (compute_left_ + cfg_.width - 1) / cfg_.width;
  if (cfg_.instr_limit != 0) {
    const std::uint64_t left = cfg_.instr_limit - stats_.instructions;
    const std::uint64_t limit_steps = (left + cfg_.width - 1) / cfg_.width;
    if (limit_steps <= steps) return start + limit_steps - 1;
  }
  return start + steps;
}

void SimpleCore::dump(std::ostream& os, Cycle now) const {
  os << "core " << id_ << " @" << now << (done() ? " DONE" : "")
     << (waiting_ ? " WAITING" : "") << (access_pending_ ? " ACCESS-PENDING" : "")
     << " ready_at=";
  if (ready_at_ == kCycleNever)
    os << "never";
  else
    os << ready_at_;
  os << " compute_left=" << compute_left_ << " instrs=" << stats_.instructions
     << " loads=" << stats_.loads << " stores=" << stats_.stores
     << " stalls=" << stats_.stall_cycles << "\n";
}

namespace {

void put_entry(ckpt::Sink& s, const workloads::TraceEntry& e) {
  s.u32(e.compute);
  s.u64(e.addr);
  s.u8(static_cast<std::uint8_t>(e.type));
  s.u64(e.pc);
  s.b(e.dependent);
}

workloads::TraceEntry get_entry(ckpt::Source& s) {
  workloads::TraceEntry e;
  e.compute = s.u32();
  e.addr = s.u64();
  e.type = static_cast<AccessType>(s.u8());
  e.pc = s.u64();
  e.dependent = s.b();
  return e;
}

}  // namespace

void SimpleCore::save_state(ckpt::Sink& s) const {
  s.section("core");
  s.u64(id_);
  s.str(stream_->name());
  if (waiting_ && !async_done_ && ready_at_ == kCycleNever)
    throw ckpt::CheckpointError(ckpt::ErrorKind::State,
                                "core blocked on an outstanding asynchronous access");
  s.u64(lookahead_.size());
  for (const auto& e : lookahead_) put_entry(s, e);
  s.u64(runahead_pos_);
  s.u32(runahead_issued_);
  put_entry(s, current_);
  s.u32(compute_left_);
  s.b(access_pending_);
  s.b(waiting_);
  s.b(async_done_);
  s.u64(ready_at_);
  s.u64(last_tick_);
  s.u64(stats_.instructions);
  s.u64(stats_.loads);
  s.u64(stats_.stores);
  s.u64(stats_.stall_cycles);
  s.u64(stats_.runahead_prefetches);
  s.u64(stats_.finish_cycle);
  stream_->save_state(s);
}

void SimpleCore::load_state(ckpt::Source& s) {
  s.section("core");
  s.match_u64(id_, "core id");
  s.match_str(stream_->name(), "core stream");
  lookahead_.clear();
  const std::uint64_t n = s.u64();
  for (std::uint64_t i = 0; i < n; ++i) lookahead_.push_back(get_entry(s));
  runahead_pos_ = s.u64();
  runahead_issued_ = s.u32();
  current_ = get_entry(s);
  compute_left_ = s.u32();
  access_pending_ = s.b();
  waiting_ = s.b();
  async_done_ = s.b();
  ready_at_ = s.u64();
  last_tick_ = s.u64();
  stats_.instructions = s.u64();
  stats_.loads = s.u64();
  stats_.stores = s.u64();
  stats_.stall_cycles = s.u64();
  stats_.runahead_prefetches = s.u64();
  stats_.finish_cycle = s.u64();
  stream_->load_state(s);
}

}  // namespace ima::core
