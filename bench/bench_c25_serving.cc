// C25 — open-loop tensor serving: memory latency tails vs offered load.
//
// Claim: many concurrent model instances issuing tiled tensor traffic
// (workloads::TensorTraffic) through the service facade at Poisson arrival
// times show the classic serving curve — p50 memory latency flat until the
// knee, p99/p999 exploding as offered load approaches channel saturation —
// and the open-loop accounting loses nothing: every arrival completes, at
// every IMA_JOBS / IMA_SHARDS width, byte-identically.
//
// Latency here is source-to-data: Request::complete minus the *intended*
// arrival stamp carried in Request::tag, so time spent waiting for a queue
// slot under backpressure is included (the congested tail an
// admission-clocked measurement hides). The epoch-quantized cycle returned
// by the pump is reported as end_cycle but never used for latency math —
// see MemorySystem::drain.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "harness/pool.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "obs/tail.hh"
#include "service/facade.hh"
#include "workloads/tensor.hh"

using namespace ima;

namespace {

/// Poisson interarrival in cycles (inverse-CDF on a (0,1] uniform; the
/// 1 - next_double() flip keeps log() off zero). Never returns 0.
Cycle interarrival(Rng& rng, Cycle mean) {
  const double u = 1.0 - rng.next_double();
  const double gap = -std::log(u) * static_cast<double>(mean);
  return std::max<Cycle>(1, static_cast<Cycle>(std::ceil(gap)));
}

struct PointOut {
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  double p50 = 0, p99 = 0, p999 = 0, mean = 0, max = 0;
  Cycle end = 0;
  std::uint64_t checksum = 0;
  bool clipped = false;
  double span_err = 0;
};

/// One offered-load point: `instances` model instances, each running
/// `inferences` Poisson-spaced passes of the tile traffic, homed to channel
/// (instance % channels) so every per-channel source stays channel-local.
PointOut run_point(Cycle mean_ia, std::uint64_t inferences, unsigned shards) {
  auto dram_cfg = dram::DramConfig::ddr4_2400();
  dram_cfg.geometry.channels = 8;
  mem::ControllerConfig ctrl;
  ctrl.record_spans = true;
  mem::MemorySystem sys(dram_cfg, ctrl);
  sys.set_shards(shards);
  service::MemoryService svc(sys);

  workloads::TensorConfig tc;
  tc.m = 32;
  tc.n = 32;
  tc.k = 64;
  tc.tile_m = 16;
  tc.tile_n = 16;
  tc.tile_k = 32;
  tc.act_streams = 2;  // activation tiles re-fetched once (buffer pressure)
  const workloads::TensorTraffic traffic(tc);
  const std::uint64_t lines = traffic.accesses_per_pass();
  const auto& g = dram_cfg.geometry;
  const std::uint32_t nch = sys.num_channels();
  const std::uint32_t kInstances = 2 * nch;

  struct Inst {
    std::uint32_t id = 0;
    Rng rng;
    Cycle t = 0;             // intended arrival of the current inference
    std::uint64_t cursor = 0;  // next access within the current pass
    std::uint64_t done = 0;
    bool exhausted = false;
    std::uint64_t line_base = 0;  // footprint slot within the home channel
  };
  // Instances are per-channel state: channel ch's next() only ever touches
  // by_ch[ch], which is what keeps drain_sourced width-invariant.
  std::vector<std::vector<Inst>> by_ch(nch);
  const std::uint64_t inst_lines = (traffic.footprint_bytes() + kLineBytes - 1) / kLineBytes;
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    Inst in;
    in.id = i;
    in.rng.reseed(harness::job_seed(0xC25, i));
    in.line_base = (i / nch) * inst_lines;
    in.t = interarrival(in.rng, mean_ia);
    by_ch[i % nch].push_back(std::move(in));
  }

  PointOut out;
  obs::TailRecorder lat;
  mem::MemorySystem::ChannelSource src;
  src.next = [&](std::uint32_t ch, Cycle, mem::Request& r) {
    // Earliest (t, id) among this channel's live instances: per-channel
    // arrive stamps come out nondecreasing, ties broken deterministically.
    Inst* best = nullptr;
    for (auto& in : by_ch[ch])
      if (!in.exhausted && (!best || in.t < best->t || (in.t == best->t && in.id < best->id)))
        best = &in;
    if (!best) return false;
    const auto acc = traffic.at(best->cursor);
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
    r.addr = sys.mapper().encode(c);
    r.type = acc.type;
    r.core = best->id;
    r.arrive = best->t;  // time-dated feed: held until this cycle
    r.tag = best->t;     // intended arrival, for source-to-data latency
    if (++best->cursor == lines) {
      best->cursor = 0;
      best->t += interarrival(best->rng, mean_ia);
      if (++best->done == inferences) best->exhausted = true;
    }
    return true;
  };
  src.on_complete = [&](std::uint32_t ch, const mem::Request& done) {
    lat.add(done.complete - done.tag);
    out.checksum = (out.checksum * 1099511628211ull) ^ done.addr ^
                   (static_cast<std::uint64_t>(done.complete) << 1) ^ ch;
    ++out.completions;
  };

  out.end = svc.pump(src, 0);
  out.clipped = sys.last_drain_clipped();
  out.arrivals = svc.pushed();
  out.p50 = lat.percentile(0.50);
  out.p99 = lat.percentile(0.99);
  out.p999 = lat.percentile(0.999);
  out.mean = lat.mean();
  out.max = lat.max();
  // Span decomposition must stay exact under serving traffic too.
  double span_sum = 0, e2e_sum = 0;
  for (std::uint32_t ch = 0; ch < nch; ++ch) {
    const auto* sp = sys.controller(ch).spans();
    span_sum += sp->queue.sum() + sp->stall.sum() + sp->refresh.sum() + sp->xfer.sum();
    e2e_sum += sys.controller(ch).stats().read_latency.sum();
  }
  out.span_err = span_sum - e2e_sum;
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "C25: open-loop tensor serving",
      "Claim: Poisson tensor-serving traffic through the service facade "
      "shows flat p50 but exploding p99/p999 toward channel saturation, "
      "with zero lost requests at any load and width-invariant results.");

  // Offered load per instance: mean cycles between inference arrivals.
  const std::vector<Cycle> means = {160'000, 80'000, 40'000, 20'000, 10'000, 5'000, 2'500};
  const std::uint64_t inferences = bench::smoke_scaled(12, 4);
  const unsigned shards = std::max(1u, harness::default_shards());

  const auto res = bench::sweep(
      "serving", means,
      [&](Cycle mean_ia, harness::JobContext& ctx) {
        const PointOut o = run_point(mean_ia, inferences, shards);
        const double offered = 1e6 / static_cast<double>(mean_ia);
        // Appended piecewise: operator+ on a literal and a temporary trips
        // GCC 12's -Wrestrict false positive.
        std::string p = "p";
        p += std::to_string(ctx.index);
        p += '.';
        ctx.fragment.metric(p + "offered_per_mcycle_per_instance", offered);
        ctx.fragment.metric(p + "arrivals", static_cast<double>(o.arrivals));
        ctx.fragment.metric(p + "completions", static_cast<double>(o.completions));
        ctx.fragment.metric(p + "lat_p50", o.p50);
        ctx.fragment.metric(p + "lat_p99", o.p99);
        ctx.fragment.metric(p + "lat_p999", o.p999);
        ctx.fragment.metric(p + "lat_mean", o.mean);
        ctx.fragment.metric(p + "lat_max", o.max);
        ctx.fragment.metric(p + "end_cycle", static_cast<double>(o.end));
        ctx.fragment.metric(p + "deadline_clipped", o.clipped ? 1 : 0);
        ctx.fragment.metric(p + "span_stage_sum_error", o.span_err);
        ctx.fragment.metric(p + "checksum",
                            static_cast<double>(o.checksum % 1'000'000'007ull));
        ctx.fragment.row({Table::fmt_si(offered, 1), Table::fmt_int(o.arrivals),
                          Table::fmt_int(o.completions), Table::fmt(o.p50, 0),
                          Table::fmt(o.p99, 0), Table::fmt(o.p999, 0),
                          Table::fmt(o.mean, 1)});
        return o;
      });

  Table t({"offered/Mcyc/inst", "arrivals", "completions", "p50", "p99", "p999", "mean"});
  bench::add_sweep_rows(t, res);
  bench::print_table(t, "memory latency (cycles, source-to-data) vs offered load");

  // Validation: open-loop accounting must be loss-free at every point, and
  // the tail must actually rise toward saturation.
  bool ok = res.ok();
  for (const auto& opt : res.results) {
    if (!opt) continue;  // already a failure via res.ok()
    if (opt->arrivals != opt->completions || opt->clipped || opt->span_err != 0) ok = false;
  }
  if (ok && res.at(res.results.size() - 1).p999 <= res.at(0).p999) ok = false;
  if (!ok) {
    std::cerr << "serving bench: lost requests, clipped drain, span mismatch "
                 "or flat tail under load\n";
    return 1;
  }

  // In-binary width check on the heaviest point: 1 shard vs the wide plan
  // must agree bit-for-bit (checksum covers every completion's address and
  // cycle). The cross-process IMA_JOBS/IMA_SHARDS matrix lives in
  // bench_diff_check.
  {
    const PointOut serial = run_point(means.back(), inferences, 1);
    unsigned wide = harness::default_shards();
    if (wide == 0) wide = 8;
    const PointOut sharded = run_point(means.back(), inferences, wide);
    const bool equal = serial.checksum == sharded.checksum &&
                       serial.end == sharded.end &&
                       serial.completions == sharded.completions;
    bench::record_metric("serving_shard_equal", equal ? 1 : 0);
    if (!equal) {
      std::cerr << "serving bench: 1-shard and " << wide
                << "-shard runs diverge\n";
      return 1;
    }
  }

  bench::print_shape(
      "p50 roughly flat across load points; p99/p999 rising sharply at the "
      "last points (channel saturation); arrivals == completions everywhere; "
      "identical BENCH json at any IMA_JOBS/IMA_SHARDS.");
  return 0;
}
