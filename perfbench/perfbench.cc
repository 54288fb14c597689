// perfbench — end-to-end and per-layer benchmark of the simulator.
//
// One process runs one workload for a fixed host-time budget through the
// library's public API only:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Measurement protocol (see perfbench/README.md for the why):
//   1. set-up: kSetupReps samples, each the mean time of as many
//      constructions of the workload's objects as fit in kSetupSampleNs;
//      the lower decile of the samples is reported (setup_s);
//   2. warm-up windows run untimed, then windows of a fixed amount of
//      simulated work repeat until the budget is spent; host-time rates are
//      the upper decile over the steady-state windows (see run_rate);
//   3. simulated metrics and the result digest come from a fixed prefix of
//      windows, so they are a pure function of (workload, seed);
//   4. correctness: loss checks on the live run plus an equivalence check on
//      a short prefix (per-cycle == skip-ahead, 1 shard == N shards,
//      jobs 1 == N). Each check is one attempted operation; a failed check
//      counts the operations it lost (requests, points), at least one.
//
// With --trace 1, windows rotate between untraced and traced variants on
// the same simulated system (tracing sits outside the library, so the
// simulation is unchanged); spans around every public call are aggregated
// per window and written to --trace-out at exit.
//
// The last stdout line is one JSON object; perfbench/run.py turns it into
// the benchmark result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hh"
#include "common/rng.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "mem/refresh.hh"
#include "obs/stat_registry.hh"
#include "obs/tail.hh"
#include "service/facade.hh"
#include "sim/system.hh"
#include "workloads/stream.hh"
#include "workloads/tensor.hh"

extern char** environ;

using namespace ima;

namespace {

// ---------------------------------------------------------------------------
// Host time, statistics, digests

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile of v, interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Host rate of a run: the 90th percentile of its per-window rates. On a
/// shared host, other tenants slow whole stretches of a run by up to a third
/// (perfbench/README.md, "Noise"); the median window lands on whichever
/// regime dominated that run, while the upper decile tracks the uncontended
/// speed that a code change moves. The median and the slow tail are
/// reported beside it.
double run_rate(const std::vector<double>& v) { return quantile(v, 0.9); }

/// Slowest-window summary of a rate series: the lowest value that still
/// has at least 10 windows below it, and its percentile rank. Empty when
/// fewer than 11 windows ran.
struct SlowTail {
  double value = 0;
  double percentile = 0;
  bool valid = false;
};
SlowTail slow_tail(std::vector<double> v) {
  SlowTail t;
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  t.value = v[10];
  t.percentile = 100.0 * 10.0 / static_cast<double>(v.size());
  t.valid = true;
  return t;
}

/// FNV-1a over bytes, chained.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t mix_completion(std::uint64_t h, const mem::Request& r) {
  const std::uint64_t v[3] = {r.addr, r.complete, static_cast<std::uint64_t>(r.type)};
  return fnv(h, v, sizeof v);
}

/// Digest of a registry's full rendering ("path=value" per stat, sorted).
std::uint64_t render_digest(const obs::StatRegistry& reg, std::uint64_t h) {
  char buf[64];
  for (const auto& v : reg.snapshot().values) {
    h = fnv(h, v.path.data(), v.path.size());
    const int n = std::snprintf(buf, sizeof buf, "=%.17g\n", v.value);
    h = fnv(h, buf, static_cast<std::size_t>(n));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Tracing: per-window span aggregates, written at exit

struct SpanAcc {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  void add(std::uint64_t d) {
    ++calls;
    ns += d;
  }
  void merge(const SpanAcc& o) {
    calls += o.calls;
    ns += o.ns;
  }
};

/// RAII span timer; the untraced instantiation is empty and compiles away.
template <bool kOn>
struct Timer {
  explicit Timer(SpanAcc&) {}
};
template <>
struct Timer<true> {
  explicit Timer(SpanAcc& a) : acc(a), t0(now_ns()) {}
  ~Timer() { acc.add(now_ns() - t0); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  SpanAcc& acc;
  std::uint64_t t0;
};

/// Span names of one workload. Index 0 is the window itself; every other
/// span names its parent. Spans of one window share the window id. A span
/// with `width` > 1 runs its children on that many threads at once, so its
/// self time is width x span time minus child time (idle worker time).
class Trace {
 public:
  struct Def {
    std::string name;
    int parent = 0;
    unsigned width = 1;
  };
  explicit Trace(std::vector<Def> defs) : defs_(std::move(defs)), cur_(defs_.size()) {}

  SpanAcc& span(std::size_t i) { return cur_[i]; }

  void end_window(std::uint64_t id, std::uint64_t wall_ns) {
    cur_[0] = SpanAcc{1, wall_ns};
    Record r{id, cur_};
    records_.push_back(std::move(r));
    std::fill(cur_.begin(), cur_.end(), SpanAcc{});
  }
  SpanAcc total(std::size_t i) const {
    SpanAcc t;
    for (const auto& r : records_) t.merge(r.spans[i]);
    return t;
  }
  double ns_per_call(std::size_t i) const {
    const SpanAcc t = total(i);
    return t.calls ? static_cast<double>(t.ns) / static_cast<double>(t.calls) : 0.0;
  }

  void write(const std::string& path, const std::string& workload) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace file " + path);
    os << "{\"workload\":\"" << workload << "\",\"spans\":[";
    bool first = true;
    for (const auto& r : records_) {
      for (std::size_t i = 0; i < defs_.size(); ++i) {
        std::int64_t child = 0;
        for (std::size_t j = 1; j < defs_.size(); ++j)
          if (defs_[j].parent == static_cast<int>(i)) child += static_cast<std::int64_t>(r.spans[j].ns);
        const std::int64_t self =
            static_cast<std::int64_t>(r.spans[i].ns) * defs_[i].width - child;
        os << (first ? "" : ",") << "\n{\"window\":" << r.id << ",\"name\":\"" << defs_[i].name
           << "\",\"parent\":" << (i == 0 ? "null" : "\"" + defs_[defs_[i].parent].name + "\"")
           << ",\"calls\":" << r.spans[i].calls << ",\"ns\":" << r.spans[i].ns
           << ",\"self_ns\":" << self << "}";
        first = false;
      }
    }
    os << "\n]}\n";
  }

 private:
  struct Record {
    std::uint64_t id;
    std::vector<SpanAcc> spans;
  };
  std::vector<Def> defs_;
  std::vector<SpanAcc> cur_;
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Workload interface

using Metrics = std::map<std::string, double>;

struct WindowOut {
  double cycles = 0;        // simulated cycles advanced
  double requests = 0;      // memory requests completed
  double instructions = 0;  // simulated instructions retired
  double points = 0;        // design points completed
};

/// Simulated results of the fixed stats prefix.
struct SimOut {
  double read_p50 = 0, read_p99 = 0, served_per_kcycle = 0;
  std::uint64_t digest = 0;
};

/// Per-window host rates of the steady-state windows.
struct Rates {
  std::vector<double> cycles[3];  // simulated cycles/s, per window variant
  std::vector<double> requests, instructions, points;  // per s, variant 0 only
};

/// Correctness checks, counted in the same unit as Workload::operations():
/// a failed check adds the operations it lost (at least one) to `failed`.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  void expect(bool ok, const std::string& what, std::uint64_t lost = 1) {
    ++attempted;
    if (!ok) {
      failed += std::max<std::uint64_t>(1, lost);
      notes.push_back(what);
    }
  }
};

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

class Workload {
 public:
  virtual ~Workload() = default;
  virtual unsigned warmup_windows() const = 0;
  virtual unsigned prefix_windows() const = 0;
  /// Variants a traced run rotates through; variant 0 is the untraced
  /// reference, variant 1 the traced one.
  virtual unsigned variants() const { return 2; }
  virtual Trace make_trace() const = 0;
  /// One window of fixed simulated work. `tr` is null when untraced.
  virtual WindowOut window(Trace* tr, unsigned variant) = 0;
  virtual void begin_prefix() = 0;
  virtual SimOut end_prefix() = 0;
  /// Loss checks on the live run and the equivalence check.
  virtual Checks finish() = 0;
  /// Workload-specific per-layer values (simulated counts and span ratios).
  virtual void per_layer(Metrics& out, const Trace& tr, const Rates& rates) const = 0;
  /// Report-only metrics that exist on this workload alone.
  virtual void extra(Metrics&, const Rates&) const {}
  /// Operations the measured run attempted (requests, or design points).
  virtual std::uint64_t operations() const = 0;
  /// True when one thread does all the work, so the run may move it off a
  /// contended CPU (CpuHopper).
  virtual bool single_threaded() const { return true; }
};

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Keeps a single-threaded run on an uncontended CPU. On a shared host, a
/// vCPU whose physical core another guest keeps busy runs the simulator up
/// to a third slower, and which vCPUs are affected changes within seconds
/// (README "Noise"). The run pins its thread to one CPU and moves it to the
/// next allowed CPU whenever a window runs below kSlow x the fastest window
/// of its variant so far. The window right after a move refills the new
/// core's caches, so it is not judged.
class CpuHopper {
 public:
  static constexpr double kSlow = 0.85;

  CpuHopper() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    const int here = sched_getcpu();
    for (std::size_t i = 0; i < cpus_.size(); ++i)
      if (cpus_[i] == here) at_ = i;
    pin();
  }

  void observe(unsigned variant, double rate) {
    if (just_moved_) {
      just_moved_ = false;
      return;
    }
    double& best = best_[std::min<unsigned>(variant, 2)];
    best = std::max(best, rate);
    if (cpus_.size() < 2 || rate >= kSlow * best) return;
    at_ = (at_ + 1) % cpus_.size();
    pin();
    just_moved_ = true;
    ++hops_;
  }
  unsigned hops() const { return hops_; }

 private:
  void pin() const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[at_], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  std::vector<int> cpus_;
  std::size_t at_ = 0;
  double best_[3] = {0, 0, 0};
  bool just_moved_ = false;
  unsigned hops_ = 0;
};

constexpr sim::ClockMode kClock = sim::ClockMode::SkipAhead;

// ---------------------------------------------------------------------------
// Closed-loop MLP-window injection (mc_saturated, sched_sweep)

struct Injector {
  std::unique_ptr<workloads::AccessStream> stream;
  std::uint32_t mlp = 0;
  std::uint32_t outstanding = 0;
};

/// The heterogeneous 4-core mix of the scheduler experiments: a deep-window
/// streaming hog, a shallow-window random core, a row-local core and a
/// Zipf-skewed core (same parameters as the repository's C5/C10 mix, fixed
/// here so the benchmark's inputs do not move with the bench sources).
std::vector<Injector> hetero_mix(std::uint64_t seed) {
  std::vector<Injector> v;
  workloads::StreamParams p;
  p.footprint = 48ull << 20;
  p.seed = seed;
  v.push_back({workloads::make_streaming(p), 16});
  workloads::StreamParams q = p;
  q.base = 1ull << 30;
  q.seed = seed + 1;
  v.push_back({workloads::make_random(q), 2});
  workloads::StreamParams r = p;
  r.base = 2ull << 30;
  r.seed = seed + 2;
  v.push_back({workloads::make_row_local(r, 24, 8192), 8});
  workloads::StreamParams z = p;
  z.base = 3ull << 30;
  z.seed = seed + 3;
  v.push_back({workloads::make_zipf(z, 0.9), 4});
  return v;
}

/// Span indices of the closed-loop injection loop.
enum McSpan : std::size_t { kMcWindow, kMcTick, kMcNext, kMcAccept, kMcEnqueue, kMcStream };

/// Drives a MemorySystem from MLP-window injectors: every core below its
/// window injects each visited cycle; while all windows are full the loop
/// skips to the controller's next event.
class ClosedLoop {
 public:
  ClosedLoop(mem::MemorySystem& sys, std::uint64_t seed)
      : sys_(sys), cores_(hetero_mix(seed)), below_mlp_(static_cast<std::uint32_t>(cores_.size())) {}
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  template <bool T>
  Cycle run(Cycle from, Cycle to, sim::ClockMode mode, Trace* tr) {
    static SpanAcc sink;  // untraced timers ignore their accumulator
    auto span = [&](std::size_t i) -> SpanAcc& { return T ? tr->span(i) : sink; };
    Cycle prev = from;
    std::size_t depth = sys_.controller(0).read_queue_depth();
    const Cycle end = sim::run_event_loop(
        mode, from, to,
        [&](Cycle now) {
          if constexpr (T) {
            ++visits_;
            if (prefix_) {
              depth_cycles_ += static_cast<double>(depth) * static_cast<double>(now - prev);
              prev = now;
            }
          }
          if (below_mlp_ > 0) inject<T>(now, span);
          {
            Timer<T> t(span(kMcTick));
            sys_.tick(now);
          }
          if constexpr (T) depth = sys_.controller(0).read_queue_depth();
        },
        [] { return false; },
        [&](Cycle now) {
          if (below_mlp_ > 0) return now + 1;
          Timer<T> t(span(kMcNext));
          return sys_.next_event(now);
        });
    if constexpr (T) {
      if (prefix_) {
        depth_cycles_ += static_cast<double>(depth) * static_cast<double>(end - prev);
        depth_span_ += end - from;
      }
      traced_cycles_ += end - from;
    }
    return end;
  }

  /// Latency and completion recording for the stats prefix.
  void set_prefix(bool on) { prefix_ = on; }

  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t rejected_after_accept() const { return rejected_after_accept_; }
  std::uint64_t checksum() const { return checksum_; }
  const obs::TailRecorder& prefix_latency() const { return lat_; }
  std::uint64_t visits() const { return visits_; }
  Cycle traced_cycles() const { return traced_cycles_; }
  std::uint64_t accept_calls() const { return accept_calls_; }
  std::uint64_t accept_refused() const { return accept_refused_; }
  double depth_mean() const {
    return depth_span_ ? depth_cycles_ / static_cast<double>(depth_span_) : 0.0;
  }

 private:
  template <bool T, typename SpanFn>
  void inject(Cycle now, SpanFn& span) {
    for (std::size_t i = 0; i < cores_.size(); ++i) {
      Injector& c = cores_[i];
      while (c.outstanding < c.mlp) {
        workloads::TraceEntry e;
        {
          Timer<T> t(span(kMcStream));
          e = c.stream->next();
        }
        const auto core = static_cast<std::uint32_t>(i);
        bool ok;
        {
          Timer<T> t(span(kMcAccept));
          ok = sys_.can_accept(e.addr, e.type, core);
        }
        if constexpr (T) {
          ++accept_calls_;
          if (!ok) ++accept_refused_;
        }
        if (!ok) break;
        mem::Request r;
        r.addr = e.addr;
        r.type = e.type;
        r.core = core;
        r.arrive = now;
        if (++c.outstanding == c.mlp) --below_mlp_;
        {
          Timer<T> t(span(kMcEnqueue));
          ok = sys_.enqueue(r, [this, i](const mem::Request& done) { on_done(i, done); });
        }
        if (!ok) {  // can_accept admitted it: a reject is a lost request
          if (c.outstanding-- == c.mlp) ++below_mlp_;
          ++rejected_after_accept_;
          break;
        }
        ++enqueued_;
      }
    }
  }

  void on_done(std::size_t i, const mem::Request& done) {
    Injector& c = cores_[i];
    if (c.outstanding-- == c.mlp) ++below_mlp_;
    ++completed_;
    checksum_ = mix_completion(checksum_, done);
    if (prefix_ && done.type == AccessType::Read) lat_.add(done.complete - done.arrive);
  }

  mem::MemorySystem& sys_;
  std::vector<Injector> cores_;
  std::uint32_t below_mlp_;
  std::uint64_t enqueued_ = 0, completed_ = 0, rejected_after_accept_ = 0;
  std::uint64_t checksum_ = kFnvBasis;
  bool prefix_ = false;
  obs::TailRecorder lat_;
  // traced-window counters
  std::uint64_t visits_ = 0, accept_calls_ = 0, accept_refused_ = 0;
  Cycle traced_cycles_ = 0, depth_span_ = 0;
  double depth_cycles_ = 0;
};

mem::ControllerConfig four_core_ctrl() {
  mem::ControllerConfig c;
  c.num_cores = 4;
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// mc_saturated

class McSaturated final : public Workload {
 public:
  static constexpr Cycle kWindow = 50'000;

  McSaturated(std::uint64_t seed, sim::ClockMode mode = kClock)
      : seed_(seed), mode_(mode), sys_(dram::DramConfig::ddr4_2400(), four_core_ctrl()),
        loop_(sys_, seed) {
    sys_.set_clock_mode(mode);
    sys_.register_stats(reg_, "mem");
  }

  unsigned warmup_windows() const override { return 10; }
  unsigned prefix_windows() const override { return 40; }
  Trace make_trace() const override {
    return Trace({{"window", 0}, {"mem.tick", 0}, {"mem.next_event", 0}, {"mem.can_accept", 0},
                  {"mem.enqueue", 0}, {"workloads.next", 0}});
  }

  WindowOut window(Trace* tr, unsigned) override {
    const std::uint64_t c0 = loop_.completed();
    const Cycle from = now_;
    now_ = tr ? loop_.run<true>(from, from + kWindow, mode_, tr)
              : loop_.run<false>(from, from + kWindow, mode_, nullptr);
    return {static_cast<double>(now_ - from), static_cast<double>(loop_.completed() - c0), 0, 0};
  }

  void begin_prefix() override {
    loop_.set_prefix(true);
    start_ = sys_.aggregate_stats();
    prefix_from_ = now_;
    prefix_c0_ = loop_.completed();
  }
  SimOut end_prefix() override {
    loop_.set_prefix(false);
    const auto s = sys_.aggregate_stats();
    row_hits_ = static_cast<double>(s.row_hits - start_.row_hits);
    row_all_ = row_hits_ + static_cast<double>(s.row_misses - start_.row_misses) +
               static_cast<double>(s.row_conflicts - start_.row_conflicts);
    writes_ = static_cast<double>(s.writes_done - start_.writes_done);
    served_ = writes_ + static_cast<double>(s.reads_done - start_.reads_done);
    SimOut o;
    o.read_p50 = loop_.prefix_latency().percentile(0.50);
    o.read_p99 = loop_.prefix_latency().percentile(0.99);
    o.served_per_kcycle = 1000.0 * static_cast<double>(loop_.completed() - prefix_c0_) /
                          static_cast<double>(now_ - prefix_from_);
    o.digest = digest();
    return o;
  }

  std::uint64_t digest() const {
    const std::uint64_t v[2] = {loop_.checksum(), now_};
    return render_digest(reg_, fnv(kFnvBasis, v, sizeof v));
  }

  Checks finish() override {
    Checks c;
    sys_.drain(now_, now_ + 10'000'000);
    c.expect(!sys_.last_drain_clipped(), "mc_saturated: final drain clipped by its deadline");
    c.expect(loop_.enqueued() == loop_.completed(),
             "mc_saturated: lost requests (enqueued != completed)",
             abs_diff(loop_.enqueued(), loop_.completed()));
    c.expect(loop_.rejected_after_accept() == 0,
             "mc_saturated: enqueue rejected a request can_accept admitted",
             loop_.rejected_after_accept());
    // Equivalence: per-cycle == skip-ahead on a short prefix.
    McSaturated pc(seed_, sim::ClockMode::PerCycle), sa(seed_, sim::ClockMode::SkipAhead);
    for (int w = 0; w < 2; ++w) {
      pc.window(nullptr, 0);
      sa.window(nullptr, 0);
    }
    c.expect(pc.digest() == sa.digest(), "mc_saturated: per-cycle and skip-ahead digests differ");
    return c;
  }

  void per_layer(Metrics& m, const Trace& tr, const Rates&) const override {
    const double cyc = static_cast<double>(loop_.traced_cycles());
    m["mem.tick_ns_per_cycle"] = ratio(static_cast<double>(tr.total(kMcTick).ns), cyc);
    m["mem.next_event_ns_per_call"] = tr.ns_per_call(kMcNext);
    m["mem.enqueue_ns_per_call"] = tr.ns_per_call(kMcEnqueue);
    m["mem.can_accept_refused_ratio"] = ratio(static_cast<double>(loop_.accept_refused()),
                                              static_cast<double>(loop_.accept_calls()));
    m["mem.visit_ratio"] = ratio(static_cast<double>(loop_.visits()), cyc);
    m["mem.read_queue_depth_mean"] = loop_.depth_mean();
    m["mem.row_hit_ratio"] = ratio(row_hits_, row_all_);
    m["mem.write_ratio"] = ratio(writes_, served_);
    m["workloads.next_ns_per_access"] = tr.ns_per_call(kMcStream);
  }

  std::uint64_t operations() const override { return loop_.enqueued(); }

 private:
  std::uint64_t seed_;
  sim::ClockMode mode_;
  mem::MemorySystem sys_;
  ClosedLoop loop_;
  obs::StatRegistry reg_;
  Cycle now_ = 0;
  mem::Controller::Stats start_;
  Cycle prefix_from_ = 0;
  std::uint64_t prefix_c0_ = 0;
  double row_hits_ = 0, row_all_ = 0, writes_ = 0, served_ = 0;
};

// ---------------------------------------------------------------------------
// hierarchy

class Hierarchy final : public Workload {
 public:
  static constexpr Cycle kWindow = 100'000;
  enum Span : std::size_t { kWin, kRun };

  Hierarchy(std::uint64_t seed, sim::ClockMode mode = kClock) : seed_(seed) {
    sim::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.ctrl.num_cores = 4;
    cfg.core.instr_limit = 0;  // unbounded; windows run fixed cycles
    cfg.prefetch = sim::PrefetchKind::Stride;
    cfg.clock = mode;
    std::vector<std::unique_ptr<workloads::AccessStream>> streams;
    for (std::uint32_t i = 0; i < 4; ++i) {
      workloads::StreamParams p;
      p.base = static_cast<Addr>(i) << 30;
      p.seed = seed + i;
      if (i < 2) {
        p.footprint = 640ull << 10;  // both together fit in the 2 MiB L2
        p.compute_per_access = 4;
        streams.push_back(workloads::make_random(p));
      } else {
        p.footprint = 256ull << 20;  // streams far past the L2
        p.compute_per_access = 40;
        streams.push_back(workloads::make_streaming(p));
      }
    }
    sys_ = std::make_unique<sim::System>(cfg, std::move(streams));
    sys_->register_stats(reg_, "sys");
  }

  // Warm-up runs 2M cycles: the streaming cores alone fill the 2 MiB L2
  // several times over, so the stats prefix starts with warm caches.
  unsigned warmup_windows() const override { return 20; }
  unsigned prefix_windows() const override { return 40; }
  Trace make_trace() const override { return Trace({{"window", 0}, {"sim.run", 0}}); }

  WindowOut window(Trace* tr, unsigned) override {
    const double i0 = instructions(), r0 = served();
    const Cycle from = now_;
    if (tr) {
      Timer<true> t(tr->span(kRun));
      now_ = sys_->run(from + kWindow);
      traced_instr_ += instructions() - i0;
    } else {
      now_ = sys_->run(from + kWindow);
    }
    return {static_cast<double>(now_ - from), served() - r0, instructions() - i0, 0};
  }

  void begin_prefix() override {
    before_ = reg_.snapshot();
    prefix_from_ = now_;
  }
  SimOut end_prefix() override {
    const auto d = obs::StatRegistry::diff(before_, reg_.snapshot());
    double l1_hit = 0, l1_miss = 0, instr = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
      const std::string c = "sys.core" + std::to_string(i);
      const std::string l1 = c + ".l1";
      instr += d.at(c + ".instructions").value_or(0);
      l1_hit += d.at(l1 + ".hits").value_or(0);
      l1_miss += d.at(l1 + ".misses").value_or(0);
    }
    const double l2_hit = d.at("sys.l2.hits").value_or(0);
    const double l2_miss = d.at("sys.l2.misses").value_or(0);
    const double cyc = static_cast<double>(now_ - prefix_from_);
    layer_["cache.l1_miss_ratio"] = ratio(l1_miss, l1_hit + l1_miss);
    layer_["cache.l2_miss_ratio"] = ratio(l2_miss, l2_hit + l2_miss);
    layer_["cache.l1_accesses"] = l1_hit + l1_miss;
    layer_["cache.l2_accesses"] = l2_hit + l2_miss;
    layer_["cache.prefetch_useful_ratio"] =
        ratio(d.at("sys.prefetch.useful").value_or(0), d.at("sys.prefetch.issued").value_or(0));
    layer_["core.instructions"] = instr;
    layer_["core.ipc"] = ratio(instr, cyc);
    const auto& lat = sys_->memory().controller(0).stats().read_latency;
    const double reads = d.at("sys.mem.ctrl0.reads_done").value_or(0);
    const double writes = d.at("sys.mem.ctrl0.writes_done").value_or(0);
    const double hits = d.at("sys.mem.ctrl0.row_hits").value_or(0);
    const double rows = hits + d.at("sys.mem.ctrl0.row_misses").value_or(0) +
                        d.at("sys.mem.ctrl0.row_conflicts").value_or(0);
    layer_["mem.row_hit_ratio"] = ratio(hits, rows);
    layer_["mem.write_ratio"] = ratio(writes, reads + writes);
    SimOut o;
    o.read_p50 = lat.percentile(0.50);
    o.read_p99 = lat.percentile(0.99);
    o.served_per_kcycle = 1000.0 * ratio(reads + writes, cyc);
    ipc_ = layer_["core.ipc"];
    o.digest = digest();
    return o;
  }

  std::uint64_t digest() const {
    const std::uint64_t v = now_;
    return render_digest(reg_, fnv(kFnvBasis, &v, sizeof v));
  }

  Checks finish() override {
    Checks c;
    Hierarchy pc(seed_, sim::ClockMode::PerCycle), sa(seed_, sim::ClockMode::SkipAhead);
    for (int w = 0; w < 2; ++w) {
      pc.window(nullptr, 0);
      sa.window(nullptr, 0);
    }
    c.expect(pc.digest() == sa.digest(), "hierarchy: per-cycle and skip-ahead digests differ");
    return c;
  }

  void per_layer(Metrics& m, const Trace& tr, const Rates& rates) const override {
    for (const auto& [k, v] : layer_) m[k] = v;
    m["sim.run_ns_per_instruction"] = ratio(static_cast<double>(tr.total(kRun).ns), traced_instr_);
    m["core.instructions_per_s"] = run_rate(rates.instructions);
  }
  void extra(Metrics& m, const Rates& rates) const override {
    m["sim_instructions_per_s"] = run_rate(rates.instructions);
    m["sim_ipc"] = ipc_;
  }

  std::uint64_t operations() const override { return static_cast<std::uint64_t>(served()); }

 private:
  double instructions() const {
    double n = 0;
    for (std::uint32_t i = 0; i < 4; ++i)
      n += static_cast<double>(sys_->core_at(i).stats().instructions);
    return n;
  }
  double served() const {
    const auto& s = sys_->memory().controller(0).stats();
    return static_cast<double>(s.reads_done + s.writes_done);
  }

  std::uint64_t seed_;
  std::unique_ptr<sim::System> sys_;
  obs::StatRegistry reg_;
  Cycle now_ = 0;
  obs::StatRegistry::Snapshot before_;
  Cycle prefix_from_ = 0;
  double traced_instr_ = 0, ipc_ = 0;
  Metrics layer_;
};

// ---------------------------------------------------------------------------
// serve_open

/// Poisson interarrival in cycles (inverse CDF; never 0).
Cycle interarrival(Rng& rng, Cycle mean) {
  const double u = 1.0 - rng.next_double();
  const double gap = -std::log(u) * static_cast<double>(mean);
  return std::max<Cycle>(1, static_cast<Cycle>(std::ceil(gap)));
}

class ServeOpen final : public Workload {
 public:
  // Offered load: one inference per instance every kMeanIa cycles on
  // average (50 inferences/Mcycle/instance), on the flat-p50 side of the
  // C25 serving knee.
  static constexpr Cycle kMeanIa = 20'000;
  static constexpr std::uint64_t kInferencesPerWindow = 16;
  static constexpr Cycle kEpoch = 8192;
  enum Span : std::size_t { kWin, kPump, kSource, kComplete, kPop };

  ServeOpen(std::uint64_t seed, unsigned shards)
      : seed_(seed), shards_(shards), dram_(channels8()), sys_(dram_, ctrl(seed)), svc_(sys_),
        traffic_(tensor()), chans_(sys_.num_channels()) {
    sys_.set_clock_mode(kClock);
    sys_.set_shards(shards_, kEpoch);
    sys_.register_stats(reg_, "mem");
    const std::uint32_t nch = sys_.num_channels();
    const std::uint64_t inst_lines = (traffic_.footprint_bytes() + kLineBytes - 1) / kLineBytes;
    for (std::uint32_t i = 0; i < 2 * nch; ++i) {
      Inst in;
      in.id = i;
      in.rng.reseed(harness::job_seed(seed, i));
      in.line_base = (i / nch) * inst_lines;
      chans_[i % nch].insts.push_back(std::move(in));
    }
  }

  unsigned warmup_windows() const override { return 1; }
  unsigned prefix_windows() const override { return 16; }
  unsigned variants() const override { return 3; }  // untraced, traced, untraced at 1 shard
  Trace make_trace() const override {
    return Trace({{"window", 0},
                  {"service.pump", 0, shards_},
                  {"workloads.source_next", 1},
                  {"service.on_complete", 1},
                  {"service.pop", 0}});
  }

  WindowOut window(Trace* tr, unsigned variant) override {
    sys_.set_shards(variant == 2 ? 1 : shards_, kEpoch);
    const std::uint64_t done0 = completions_;
    const Cycle from = now_;
    now_ = tr ? run<true>(tr) : run<false>(nullptr);
    if (variant != 2) workers_used_ = sys_.shard_workers_used();
    return {static_cast<double>(now_ - from), static_cast<double>(completions_ - done0), 0, 0};
  }

  void begin_prefix() override {
    prefix_ = true;
    before_ = reg_.snapshot();
    prefix_from_ = now_;
    prefix_c0_ = completions_;
  }
  SimOut end_prefix() override {
    prefix_ = false;
    const auto d = obs::StatRegistry::diff(before_, reg_.snapshot());
    double hits = 0, rows = 0, reads = 0, writes = 0, ce = 0, due = 0, sdc = 0;
    for (std::uint32_t ch = 0; ch < sys_.num_channels(); ++ch) {
      const std::string p = "mem.ctrl" + std::to_string(ch);
      hits += d.at(p + ".row_hits").value_or(0);
      rows += d.at(p + ".row_hits").value_or(0) + d.at(p + ".row_misses").value_or(0) +
              d.at(p + ".row_conflicts").value_or(0);
      reads += d.at(p + ".reads_done").value_or(0);
      writes += d.at(p + ".writes_done").value_or(0);
      const auto& rs = sys_.controller(ch).reliability_engine()->stats();
      ce += static_cast<double>(rs.ce_words);
      due += static_cast<double>(rs.due_events);
      sdc += static_cast<double>(rs.sdc_reads);
    }
    layer_["mem.row_hit_ratio"] = ratio(hits, rows);
    layer_["mem.write_ratio"] = ratio(writes, reads + writes);
    // Engine stats are cumulative from cycle 0 to the end of the prefix.
    layer_["reliability.ce_words"] = ce;
    layer_["reliability.due_events"] = due;
    layer_["reliability.sdc_reads"] = sdc;
    SimOut o;
    o.read_p50 = lat_.percentile(0.50);
    o.read_p99 = lat_.percentile(0.99);
    o.served_per_kcycle =
        1000.0 * ratio(static_cast<double>(completions_ - prefix_c0_),
                       static_cast<double>(now_ - prefix_from_));
    o.digest = digest();
    return o;
  }

  std::uint64_t digest() const {
    const std::uint64_t v[2] = {checksum_, now_};
    return render_digest(reg_, fnv(kFnvBasis, v, sizeof v));
  }

  Checks finish() override {
    Checks c;
    c.expect(clipped_ == 0, "serve_open: a pump was clipped by its deadline");
    c.expect(svc_.pushed() == svc_.completed(), "serve_open: lost requests (pushed != completed)",
             abs_diff(svc_.pushed(), svc_.completed()));
    c.expect(completions_ == svc_.completed() && popped_ == svc_.completed(),
             "serve_open: responses missing from the facade queues",
             std::max(abs_diff(completions_, svc_.completed()), abs_diff(popped_, svc_.completed())));
    // Equivalence: 1 shard == N shards (N >= 2 even on a 1-CPU host: the
    // simulated result must not depend on the plan width).
    const unsigned wide = std::max(2u, shards_);
    ServeOpen one(seed_, 1), many(seed_, wide);
    for (int w = 0; w < 2; ++w) {
      one.window(nullptr, 0);
      many.window(nullptr, 0);
    }
    c.expect(one.digest() == many.digest() && one.clipped_ == 0 && many.clipped_ == 0,
             "serve_open: 1-shard and " + std::to_string(wide) + "-shard digests differ");
    return c;
  }

  void per_layer(Metrics& m, const Trace& tr, const Rates& rates) const override {
    for (const auto& [k, v] : layer_) m[k] = v;
    m["sim.shard_speedup"] = ratio(run_rate(rates.cycles[0]), run_rate(rates.cycles[2]));
    m["sim.shard_workers_used"] = workers_used_;
    m["service.on_complete_ns"] = tr.ns_per_call(kComplete);
    m["service.pop_ns_per_response"] = tr.ns_per_call(kPop);
    m["workloads.source_next_ns"] = tr.ns_per_call(kSource);
  }

  std::uint64_t operations() const override { return svc_.pushed(); }
  bool single_threaded() const override { return false; }

 private:
  struct Inst {
    std::uint32_t id = 0;
    Rng rng;
    Cycle t = 0;
    std::uint64_t cursor = 0, done = 0, line_base = 0;
    bool exhausted = false;
  };
  // Channel-local state: a channel's source only touches its own slot, so
  // shard threads never share a cache line.
  struct alignas(64) Chan {
    std::vector<Inst> insts;
    SpanAcc next_span;
  };

  static dram::DramConfig channels8() {
    auto c = dram::DramConfig::ddr4_2400();
    c.geometry.channels = 8;
    return c;
  }
  static mem::ControllerConfig ctrl(std::uint64_t seed) {
    mem::ControllerConfig c;
    c.reliability.enabled = true;
    c.reliability.ecc = reliability::EccKind::Secded;
    c.reliability.seed = seed;
    c.reliability.read_ber = 1e-6;  // EDEN-style read errors: SECDED corrects
    return c;
  }
  static workloads::TensorConfig tensor() {
    workloads::TensorConfig tc;
    tc.m = 32;
    tc.n = 32;
    tc.k = 64;
    tc.tile_m = 16;
    tc.tile_n = 16;
    tc.tile_k = 32;
    tc.act_streams = 2;
    return tc;
  }

  /// One window: every instance runs kInferencesPerWindow Poisson-spaced
  /// inferences starting after `now_`; the pump returns once all arrivals
  /// are served. Latency is timed from the intended arrival (Request::tag).
  template <bool T>
  Cycle run(Trace* tr) {
    static SpanAcc sink;  // untraced timers ignore their accumulator
    auto span = [&](std::size_t i) -> SpanAcc& { return T ? tr->span(i) : sink; };
    const Cycle from = now_;
    const std::uint64_t popped0 = popped_;
    for (auto& ch : chans_)
      for (auto& in : ch.insts) {
        in.t = from + interarrival(in.rng, kMeanIa);
        in.cursor = in.done = 0;
        in.exhausted = false;
      }
    const auto& g = dram_.geometry;
    const std::uint64_t lines = traffic_.accesses_per_pass();
    mem::MemorySystem::ChannelSource src;
    src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
      Timer<T> t(chans_[ch].next_span);
      Inst* best = nullptr;
      for (auto& in : chans_[ch].insts)
        if (!in.exhausted && (!best || in.t < best->t || (in.t == best->t && in.id < best->id)))
          best = &in;
      if (!best) return false;
      const auto acc = traffic_.at(best->cursor);
      std::uint64_t l = best->line_base + acc.offset / kLineBytes;
      dram::Coord c;
      c.channel = ch;
      c.column = static_cast<std::uint32_t>(l % g.columns);
      l /= g.columns;
      c.bank = static_cast<std::uint32_t>(l % g.banks);
      l /= g.banks;
      c.rank = static_cast<std::uint32_t>(l % g.ranks);
      l /= g.ranks;
      c.row = static_cast<std::uint32_t>(l % g.rows_per_bank());
      r = mem::Request{};
      r.addr = sys_.mapper().encode(c);
      r.type = acc.type;
      r.core = best->id;
      r.arrive = best->t;  // time-dated: admitted at this cycle
      r.tag = best->t;     // intended arrival, for source-to-data latency
      if (++best->cursor == lines) {
        best->cursor = 0;
        best->t += interarrival(best->rng, kMeanIa);
        if (++best->done == kInferencesPerWindow) best->exhausted = true;
      }
      return true;
    };
    src.on_complete = [&](std::uint32_t, const mem::Request& done) {
      Timer<T> t(span(kComplete));
      ++completions_;
      checksum_ = mix_completion(checksum_, done);
      if (prefix_ && done.type == AccessType::Read) lat_.add(done.complete - done.tag);
    };
    Cycle end;
    {
      Timer<T> t(span(kPump));
      end = svc_.pump(src, from, from + 100'000'000);
    }
    if (sys_.last_drain_clipped()) ++clipped_;
    {
      Timer<T> t(span(kPop));
      for (std::uint32_t ch = 0; ch < svc_.num_channels(); ++ch)
        while (!svc_.is_empty(ch)) {
          svc_.pop(ch);
          ++popped_;
        }
    }
    if constexpr (T) {
      SpanAcc& s = tr->span(kSource);
      for (auto& ch : chans_) {
        s.merge(ch.next_span);
        ch.next_span = SpanAcc{};
      }
      // pop is timed per window; report it per response.
      tr->span(kPop).calls = popped_ - popped0;
    }
    return end;
  }

  std::uint64_t seed_;
  unsigned shards_;
  dram::DramConfig dram_;
  mem::MemorySystem sys_;
  service::MemoryService svc_;
  workloads::TensorTraffic traffic_;
  std::vector<Chan> chans_;
  obs::StatRegistry reg_;
  Cycle now_ = 0;
  std::uint64_t completions_ = 0, popped_ = 0, clipped_ = 0;
  std::uint64_t checksum_ = kFnvBasis;
  bool prefix_ = false;
  obs::TailRecorder lat_;
  obs::StatRegistry::Snapshot before_;
  Cycle prefix_from_ = 0;
  std::uint64_t prefix_c0_ = 0;
  double workers_used_ = 0;
  Metrics layer_;
};

// ---------------------------------------------------------------------------
// sched_sweep

// Slowest scheduler first: the pool hands out jobs in index order, so
// longest-first packs the sweep. With RL (about 5x slower per point than
// the others) last, every sweep waited on one straggling RL job and the
// sweep time spread across runs tripled.
constexpr mem::SchedKind kKinds[] = {
    mem::SchedKind::Rl,    mem::SchedKind::ParBs,     mem::SchedKind::Bliss,
    mem::SchedKind::Tcm,   mem::SchedKind::Atlas,     mem::SchedKind::FrFcfs,
    mem::SchedKind::FrFcfsCap, mem::SchedKind::Fcfs};
// Metric-name spelling of kKinds, fixed here so metric names do not follow
// the library's display names.
constexpr const char* kKindNames[] = {"rl",    "par_bs",  "bliss",       "tcm",
                                      "atlas", "fr_fcfs", "fr_fcfs_cap", "fcfs"};

class SchedSweep final : public Workload {
 public:
  static constexpr Cycle kPointCycles = 100'000;
  // The FR-FCFS / all-bank point stands for the sweep's simulated metrics;
  // the digest covers every point.
  static constexpr std::size_t kReferencePoint = 2 * 5;  // kKinds[5], all-bank
  enum Span : std::size_t { kWin, kSweep, kJob };

  struct Point {
    mem::SchedKind kind;
    bool raidr;
  };
  struct PointOut {
    std::uint64_t served = 0;
    double p50 = 0, p99 = 0;
    std::uint64_t digest = 0;
    double wall_s = 0;
  };

  SchedSweep(std::uint64_t seed, unsigned jobs)
      : seed_(seed), jobs_(jobs),
        profile_(mem::RetentionProfile::generate(rows_per_channel(), 0.001, 0.01, seed)) {
    for (const auto k : kKinds)
      for (const bool raidr : {false, true}) points_.push_back({k, raidr});
  }

  unsigned warmup_windows() const override { return 1; }
  unsigned prefix_windows() const override { return 1; }
  Trace make_trace() const override {
    return Trace({{"window", 0}, {"harness.run_sweep", 0, jobs_}, {"harness.job", 1}});
  }

  WindowOut window(Trace* tr, unsigned) override {
    const auto t0 = now_ns();
    auto res = sweep(kPointCycles, jobs_);
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    ++windows_;
    failures_ += res.failures.size();
    WindowOut w;
    double job_sum = 0;
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!res.results[i]) continue;
      const PointOut& p = *res.results[i];
      w.requests += static_cast<double>(p.served);
      w.cycles += static_cast<double>(kPointCycles);
      w.points += 1;
      job_sum += p.wall_s;
      digests.push_back(p.digest);
      kind_cycles_[i / 2] += static_cast<double>(kPointCycles);
      kind_wall_[i / 2] += p.wall_s;
      job_walls_.push_back(p.wall_s);
    }
    // Every window repeats the same design points: results must repeat.
    if (first_digests_.empty()) {
      first_digests_ = digests;
      if (res.results[kReferencePoint]) reference_ = *res.results[kReferencePoint];
    } else if (digests != first_digests_) {
      ++repeat_mismatches_;
    }
    pool_eff_.push_back(ratio(job_sum, static_cast<double>(res.workers) * wall));
    if (tr) {
      tr->span(kSweep).add(static_cast<std::uint64_t>(wall * 1e9));
      for (const auto& r : res.results)
        if (r) tr->span(kJob).add(static_cast<std::uint64_t>(r->wall_s * 1e9));
    }
    return w;
  }

  void begin_prefix() override {}
  SimOut end_prefix() override {
    SimOut o;
    std::uint64_t h = kFnvBasis;
    for (const auto d : first_digests_) h = fnv(h, &d, sizeof d);
    o.digest = h;
    o.read_p50 = reference_.p50;
    o.read_p99 = reference_.p99;
    o.served_per_kcycle = 1000.0 * static_cast<double>(reference_.served) / kPointCycles;
    return o;
  }

  Checks finish() override {
    Checks c;
    c.expect(failures_ == 0, "sched_sweep: " + std::to_string(failures_) + " failed points",
             failures_);
    c.expect(repeat_mismatches_ == 0, "sched_sweep: a repeated sweep gave different results",
             repeat_mismatches_ * points_.size());
    // Equivalence: jobs 1 == N on a short prefix of every point.
    const unsigned wide = std::max(2u, jobs_);
    const auto one = sweep(50'000, 1), many = sweep(50'000, wide);
    bool same = one.ok() && many.ok();
    for (std::size_t i = 0; same && i < points_.size(); ++i)
      same = one.results[i]->digest == many.results[i]->digest;
    c.expect(same, "sched_sweep: jobs=1 and jobs=" + std::to_string(wide) + " digests differ");
    return c;
  }

  void per_layer(Metrics& m, const Trace&, const Rates& rates) const override {
    m["harness.pool_efficiency"] = median(pool_eff_);
    m["harness.job_s_p50"] = median(job_walls_);
    m["harness.job_s_max"] =
        job_walls_.empty() ? 0 : *std::max_element(job_walls_.begin(), job_walls_.end());
    m["harness.points_per_s"] = run_rate(rates.points);
    for (std::size_t k = 0; k < std::size(kKinds); ++k)
      m[std::string("sched.") + kKindNames[k] + ".sim_cycles_per_s"] =
          ratio(kind_cycles_[k], kind_wall_[k]);
  }

  void extra(Metrics& m, const Rates& rates) const override {
    m["points_per_s"] = run_rate(rates.points);
  }

  std::uint64_t operations() const override { return windows_ * points_.size(); }
  bool single_threaded() const override { return false; }

 private:
  static std::uint64_t rows_per_channel() {
    const auto g = dram::DramConfig::ddr4_2400().geometry;
    return static_cast<std::uint64_t>(g.ranks) * g.banks * g.rows_per_bank();
  }

  harness::SweepResult<PointOut> sweep(Cycle cycles, unsigned jobs) const {
    harness::SweepOptions opt;
    opt.jobs = jobs;
    opt.retries = 0;
    opt.timeout_seconds = 0;
    opt.label = [this](std::size_t i) {
      return std::string(mem::to_string(points_[i].kind)) +
             (points_[i].raidr ? "/raidr" : "/all-bank");
    };
    return harness::run_sweep(
        points_, [&](const Point& pt) { return run_point(pt, cycles); }, opt);
  }

  PointOut run_point(const Point& pt, Cycle cycles) const {
    const auto t0 = now_ns();
    const auto cfg = dram::DramConfig::ddr4_2400();
    mem::MemorySystem sys(cfg, four_core_ctrl());
    sys.set_clock_mode(kClock);
    sys.controller(0).set_scheduler(mem::make_scheduler(pt.kind, 4, seed_ + 13));
    if (pt.raidr) sys.controller(0).set_refresh_policy(mem::make_raidr(cfg, profile_));
    ClosedLoop loop(sys, seed_);
    loop.set_prefix(true);
    const Cycle end = loop.run<false>(0, cycles, kClock, nullptr);
    obs::StatRegistry reg;
    sys.register_stats(reg, "mem");
    PointOut o;
    o.served = loop.completed();
    o.p50 = loop.prefix_latency().percentile(0.50);
    o.p99 = loop.prefix_latency().percentile(0.99);
    const std::uint64_t v[2] = {loop.checksum(), end};
    o.digest = render_digest(reg, fnv(kFnvBasis, v, sizeof v));
    o.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    return o;
  }

  std::uint64_t seed_;
  unsigned jobs_;
  mem::RetentionProfile profile_;
  std::vector<Point> points_;
  std::uint64_t windows_ = 0, failures_ = 0, repeat_mismatches_ = 0;
  std::vector<std::uint64_t> first_digests_;
  PointOut reference_;
  std::array<double, std::size(kKinds)> kind_cycles_{}, kind_wall_{};
  std::vector<double> job_walls_, pool_eff_;
};

// ---------------------------------------------------------------------------
// Command line and run protocol

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <mc_saturated|hierarchy|serve_open|sched_sweep>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--trace-out") a.trace_out = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 120) usage("--seconds must be in (0, 120]");
  return a;
}

/// Every IMA_* variable can change the simulation or its parallelism (or
/// is a mistyped knob that silently does nothing); refuse them all.
void refuse_ima_env() {
  std::vector<std::string> set;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "IMA_", 4) == 0) set.emplace_back(*e, std::strcspn(*e, "="));
  if (set.empty()) return;
  std::cerr << "perfbench: refusing to run with simulator environment knobs set:";
  for (const auto& s : set) std::cerr << ' ' << s;
  std::cerr << "\n(unset them; the benchmark pins shard width, job width and clock mode itself)\n";
  std::exit(2);
}

void refuse_unoptimized() {
  const std::string bt = PERFBENCH_BUILD_TYPE;
  bool optimized = bt == "Release" || bt == "RelWithDebInfo";
#ifndef __OPTIMIZE__
  optimized = false;
#endif
  if (!optimized) {
    std::cerr << "perfbench: refusing an unoptimized build (" << bt << ")\n";
    std::exit(2);
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(line.find_first_not_of(' ', p + 1));
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `width` is the shard and job width: min(4, CPUs available).
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        unsigned width) {
  if (name == "mc_saturated") return std::make_unique<McSaturated>(seed);
  if (name == "hierarchy") return std::make_unique<Hierarchy>(seed);
  if (name == "serve_open") return std::make_unique<ServeOpen>(seed, width);
  if (name == "sched_sweep") return std::make_unique<SchedSweep>(seed, width);
  usage("unknown workload " + name);
}

/// Set-up samples per run, spread evenly over the measured time so they
/// sample the same host conditions as the windows. One construction takes
/// 0.05-1 ms, too short to time steadily, so each sample is the mean over
/// as many throw-away constructions as fit in kSetupSampleNs.
constexpr unsigned kSetupReps = 25;
constexpr std::uint64_t kSetupSampleNs = 50'000'000;

/// Set-up time of a run: the 10th percentile of its samples. Co-tenants
/// slow construction by up to half for stretches of a fraction of a second
/// (README "Noise"), and the slow share of a run varies from run to run, so
/// the median sample lands on either regime. The lower decile tracks the
/// uncontended time, as run_rate's upper decile does for host rates.
double setup_time(const std::vector<double>& v) { return quantile(v, 0.1); }

int run(const Args& a) {
  // Read before CpuHopper narrows this thread's affinity mask.
  const unsigned nproc = host_cpus();
  const unsigned width = std::min(4u, nproc);

  // 1. Set-up: the measured object, then kSetupReps samples of throw-away
  // constructions, the first now and the rest interleaved with the windows.
  const std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, width);
  std::vector<double> setup;
  const auto sample_setup = [&] {
    const auto t0 = now_ns();
    std::uint64_t n = 0, dt = 0;
    do {
      make_workload(a.workload, a.seed, width);
      ++n;
      dt = now_ns() - t0;
    } while (dt < kSetupSampleNs);
    setup.push_back(static_cast<double>(dt) * 1e-9 / static_cast<double>(n));
  };
  sample_setup();

  // 2. Windows until the budget is spent (and at least the stats prefix).
  Trace tr = w->make_trace();
  const unsigned warm = w->warmup_windows(), prefix_end = warm + w->prefix_windows();
  const unsigned nvar = a.trace ? w->variants() : 1;
  Rates rates;
  SimOut sim;
  std::optional<CpuHopper> hopper;
  if (w->single_threaded()) hopper.emplace();
  const auto start = now_ns();
  const auto budget = static_cast<std::uint64_t>(a.seconds * 1e9);
  for (unsigned i = 0;; ++i) {
    const auto elapsed = now_ns() - start;
    if (i >= prefix_end && elapsed >= budget) break;
    if (setup.size() < kSetupReps && elapsed >= budget / kSetupReps * setup.size()) sample_setup();
    if (i == warm) w->begin_prefix();
    const unsigned variant = i % nvar;
    Trace* t = variant == 1 ? &tr : nullptr;
    const auto t0 = now_ns();
    const WindowOut o = w->window(t, variant);
    const auto dt = now_ns() - t0;
    if (t) tr.end_window(i, dt);
    if (i + 1 == prefix_end) sim = w->end_prefix();
    if (i < warm) continue;
    const double s = static_cast<double>(dt) * 1e-9;
    rates.cycles[variant].push_back(o.cycles / s);
    if (hopper) hopper->observe(variant, o.cycles / s);
    if (variant == 0) {
      rates.points.push_back(o.points / s);
      rates.requests.push_back(o.requests / s);
      rates.instructions.push_back(o.instructions / s);
    }
  }
  const double measured_s = static_cast<double>(now_ns() - start) * 1e-9;
  const double rss = peak_rss_mb();

  // 3. Correctness.
  Checks checks = w->finish();
  const std::uint64_t attempted = w->operations() + checks.attempted;
  const std::uint64_t failed = checks.failed;
  for (const auto& n : checks.notes) std::cerr << "perfbench: FAILED " << n << "\n";

  // 4. Metrics.
  Metrics e2e;
  e2e["sim_cycles_per_s"] = run_rate(rates.cycles[0]);
  e2e["requests_per_s"] = run_rate(rates.requests);
  e2e["setup_s"] = setup_time(setup);
  e2e["peak_rss_mb"] = rss;
  e2e["sim_read_p50_cycles"] = sim.read_p50;
  e2e["sim_read_p99_cycles"] = sim.read_p99;
  e2e["sim_served_per_kcycle"] = sim.served_per_kcycle;
  Metrics extra;
  w->extra(extra, rates);
  extra["sim_cycles_per_s_median"] = median(rates.cycles[0]);
  extra["setup_s_median"] = median(setup);
  extra["error_rate"] = ratio(static_cast<double>(failed), static_cast<double>(attempted));

  Metrics layer;
  if (a.trace) {
    w->per_layer(layer, tr, rates);
    layer["trace.overhead_ratio"] = ratio(run_rate(rates.cycles[0]), run_rate(rates.cycles[1]));
    if (!a.trace_out.empty()) tr.write(a.trace_out, a.workload);
  }

  // 5. Report: one JSON line.
  std::ostringstream os;
  os << "{\"workload\":" << json_str(a.workload) << ",\"seed\":" << a.seed
     << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"host\":{\"nproc\":" << nproc
     << ",\"cpu\":" << json_str(cpu_model()) << ",\"build\":" << json_str(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_str(PERFBENCH_COMPILER) << "},\"pinned\":{\"shards\":"
     << (a.workload == "serve_open" ? width : 0)
     << ",\"jobs\":" << (a.workload == "sched_sweep" ? width : 0)
     << ",\"clock\":" << json_str(sim::to_string(kClock)) << "},\"measured_s\":" << num(measured_s)
     << ",\"windows\":" << rates.cycles[0].size()
     << ",\"cpu_hops\":" << (hopper ? hopper->hops() : 0) << ",\"digest\":" << json_str(hex(sim.digest));
  {
    std::vector<double> r = rates.cycles[0];
    std::sort(r.begin(), r.end());
    os << ",\"window_deciles\":[";
    for (int q = 1; q < 10; ++q)
      os << (q > 1 ? "," : "") << num(r.empty() ? 0 : r[r.size() * q / 10]);
    os << "]";
  }
  const SlowTail slow = slow_tail(rates.cycles[0]);
  os << ",\"slow\":{\"sim_cycles_per_s\":" << num(slow.value)
     << ",\"percentile\":" << num(slow.percentile) << ",\"valid\":" << (slow.valid ? "true" : "false")
     << "}";
  const auto block = [&](const char* name, const Metrics& m) {
    os << ",\"" << name << "\":{";
    bool first = true;
    for (const auto& [k, v] : m) {
      os << (first ? "" : ",") << json_str(k) << ":" << num(v);
      first = false;
    }
    os << "}";
  };
  block("end_to_end", e2e);
  block("extra", extra);
  block("per_layer", layer);
  os << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"correct\":" << (failed == 0 ? "true" : "false") << "}";
  std::cout << os.str() << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  refuse_ima_env();
  refuse_unoptimized();
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
