#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace wlan::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream id into the seed through one splitmix64 round so that
  // consecutive stream ids produce unrelated states.
  std::uint64_t sm = seed;
  std::uint64_t base = splitmix64(sm);
  std::uint64_t sm2 = base ^ (stream * 0xda942042e4dd58b5ULL);
  for (auto& s : s_) s = splitmix64(sm2);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  assert(n > 0);
  // Lemire's multiply-shift rejection method: unbiased for all n.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_int(span));
}

std::uint64_t Rng::geometric(double p) {
  if (p >= 1.0) return 0;
  if (p <= 0.0) throw std::invalid_argument("geometric: p must be in (0,1]");
  // Inversion: floor(log(U) / log(1-p)) counts failures before a success.
  const double u = 1.0 - uniform();  // in (0, 1]
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("exponential: mean must be > 0");
  const double u = 1.0 - uniform();
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller; we always burn two uniforms for reproducibility.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

std::size_t Rng::discrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("discrete: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("discrete: zero total weight");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: land on the last bin
}

}  // namespace wlan::util
