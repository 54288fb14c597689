#include "common/rng.hh"

#include <array>
#include <bit>
#include <cmath>
#include <mutex>
#include <optional>

#include "common/ckpt.hh"

namespace ima {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// The last few zeta(n, theta) results, shared by every thread: sweep points
// and set-up loops build generators of the same shape over and over, and a
// large n costs kZetaExactCutoff std::pow calls (about 1 ms). Keyed by
// theta's bit pattern, so a hit returns the very double the sum gave.
class ZetaMemo {
 public:
  std::optional<double> find(std::uint64_t n, std::uint64_t theta_bits) {
    const std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < size_; ++i)
      if (slots_[i].n == n && slots_[i].theta_bits == theta_bits) return slots_[i].zeta;
    return std::nullopt;
  }

  void insert(std::uint64_t n, std::uint64_t theta_bits, double zeta) {
    const std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < size_; ++i)  // another thread summed it first
      if (slots_[i].n == n && slots_[i].theta_bits == theta_bits) return;
    slots_[next_] = {n, theta_bits, zeta};
    next_ = (next_ + 1) % slots_.size();
    if (size_ < slots_.size()) ++size_;
  }

 private:
  struct Slot {
    std::uint64_t n = 0;
    std::uint64_t theta_bits = 0;
    double zeta = 0.0;
  };
  std::mutex mu_;
  std::array<Slot, 16> slots_{};  // guarded by mu_
  std::size_t size_ = 0;          // guarded by mu_
  std::size_t next_ = 0;          // guarded by mu_
};

ZetaMemo& zeta_memo() {
  static ZetaMemo memo;
  return memo;
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless bounded draw; slight modulo bias is
  // irrelevant at 64-bit width for simulator purposes, but we use the
  // multiply-shift reduction to avoid the modulo cost.
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(bound);
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Rng::save_state(ckpt::Sink& s) const {
  for (std::uint64_t w : s_) s.u64(w);
}

void Rng::load_state(ckpt::Source& s) {
  for (auto& w : s_) w = s.u64();
}

void ZipfGenerator::save_state(ckpt::Sink& s) const {
  s.u64(n_);
  s.f64(theta_);
  rng_.save_state(s);
}

void ZipfGenerator::load_state(ckpt::Source& s) {
  s.match_u64(n_, "zipf n");
  const double theta = s.f64();
  if (std::bit_cast<std::uint64_t>(theta) != std::bit_cast<std::uint64_t>(theta_))
    s.fail(ckpt::ErrorKind::Config, "zipf theta mismatch");
  rng_.load_state(s);
}

double ZipfGenerator::zeta(std::uint64_t n, double theta) {
  // Exact prefix sum up to the cutoff; for larger n, close the tail with
  // the Euler–Maclaurin expansion of sum_{i=K+1..n} i^-theta:
  //   integral_K^n x^-theta dx + (f(n) - f(K)) / 2 + (f'(n) - f'(K)) / 12
  // which at K = 65536 is accurate to ~1e-12 relative — far below the
  // resolution of any draw — while keeping setup bounded instead of O(n).
  const std::uint64_t theta_bits = std::bit_cast<std::uint64_t>(theta);
  if (const auto hit = zeta_memo().find(n, theta_bits)) return *hit;
  const std::uint64_t exact_n = n < kZetaExactCutoff ? n : kZetaExactCutoff;
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= exact_n; ++i)
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  if (n <= kZetaExactCutoff) {
    zeta_memo().insert(n, theta_bits, sum);
    return sum;
  }

  const double K = static_cast<double>(kZetaExactCutoff);
  const double N = static_cast<double>(n);
  const double fK = std::pow(K, -theta);
  const double fN = std::pow(N, -theta);
  const double integral = theta == 1.0
                              ? std::log(N / K)
                              : (std::pow(N, 1.0 - theta) - std::pow(K, 1.0 - theta)) /
                                    (1.0 - theta);
  const double trapezoid = 0.5 * (fN - fK);
  const double derivative = -theta * (fN / N - fK / K) / 12.0;
  const double z = sum + integral + trapezoid + derivative;
  zeta_memo().insert(n, theta_bits, z);
  return z;
}

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  if (n_ == 0) n_ = 1;
  // Guard the Gray et al. domain: alpha = 1/(1-theta) is infinite at
  // theta == 1 and the draws silently become NaN. Clamp instead.
  if (!(theta_ >= 0.0)) theta_ = 0.0;  // also catches NaN
  if (theta_ >= 1.0) theta_ = kMaxTheta;
  zeta2_ = zeta(2, theta_);
  zetan_ = zeta(n_, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2_ / zetan_);
}

std::uint64_t ZipfGenerator::next() {
  if (theta_ <= 0.0) return rng_.next_below(n_);
  const double u = rng_.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto idx = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return idx >= n_ ? n_ - 1 : idx;
}

}  // namespace ima
