#include "sim/checkpoint.hh"

#include <algorithm>

#include "sim/system.hh"

namespace ima::sim {

void System::save_state(ckpt::Sink& s) const {
  s.section("system");
  // Config fingerprint: a restore target built from a different wiring
  // would otherwise deserialize garbage into the wrong components.
  s.u64(cfg_.num_cores);
  s.str(to_string(cfg_.prefetch));
  s.u64(now_);

  mem_->save_state(s);  // throws State unless quiescent
  for (const auto& l1 : l1s_) l1->save_state(s);
  l2_->save_state(s);
  for (const auto& c : cores_) c->save_state(s);
  prefetcher_->save_state(s);

  s.u64(pending_writes_.size());
  for (std::size_t i = 0; i < pending_writes_.size(); ++i)
    s.u64(pending_writes_.at(i));

  // The L2's prefetch-marked lines, sorted, then the unordered PC map
  // (which put_map sorts): the image is byte-stable across hosts and
  // library versions.
  std::vector<Addr> pf = l2_->prefetched_lines();
  std::sort(pf.begin(), pf.end());
  ckpt::put_vec_u64(s, pf);
  ckpt::put_map(s, prefetch_pc_, [](ckpt::Sink& sk, const std::uint64_t& pc) { sk.u64(pc); });

  s.u64(pf_stats_.issued);
  s.u64(pf_stats_.useful);
  s.u64(pf_stats_.useless);
  s.u64(pf_stats_.dropped_by_filter);
}

void System::load_state(ckpt::Source& s) {
  s.section("system");
  s.match_u64(cfg_.num_cores, "core count");
  s.match_str(to_string(cfg_.prefetch), "prefetcher kind");
  now_ = s.u64();

  mem_->load_state(s);
  for (auto& l1 : l1s_) l1->load_state(s);
  l2_->load_state(s);
  for (auto& c : cores_) c->load_state(s);
  prefetcher_->load_state(s);

  pending_writes_.clear();
  const std::uint64_t n_pending = s.u64();
  for (std::uint64_t i = 0; i < n_pending; ++i) pending_writes_.push_back(s.u64());

  std::vector<Addr> pf;
  ckpt::get_vec_u64(s, pf);
  for (const Addr line : pf) {
    if (!l2_->contains(line)) s.fail(ckpt::ErrorKind::Format, "prefetched line not in the L2");
    l2_->fill(line, /*dirty=*/false, /*prefetched=*/true);  // resident: sets the mark only
  }
  ckpt::get_map(s, prefetch_pc_, [](ckpt::Source& sk) { return sk.u64(); });

  pf_stats_.issued = s.u64();
  pf_stats_.useful = s.u64();
  pf_stats_.useless = s.u64();
  pf_stats_.dropped_by_filter = s.u64();
}

void System::save(const std::string& path) const {
  ckpt::write_file(path, ckpt::seal(checkpoint(*this)));
}

void System::restore(const std::string& path) {
  sim::restore(*this, ckpt::open(ckpt::read_file(path)));
}

ckpt::Blob checkpoint(const System& sys) {
  ckpt::Sink sink;
  sys.save_state(sink);
  ckpt::Blob blob;
  blob.payload = sink.take();
  return blob;
}

void restore(System& sys, const ckpt::Blob& blob) {
  ckpt::Source src(blob.payload);
  sys.load_state(src);
  if (!src.done()) src.fail(ckpt::ErrorKind::Format, "trailing bytes after system state");
}

}  // namespace ima::sim
