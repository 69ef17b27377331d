// Deterministic random number generation for the simulator.
//
// We deliberately avoid <random> distributions: their output is
// implementation-defined, which would make simulation results differ across
// standard libraries. The generator (xoshiro256**) and every distribution
// here are specified bit-for-bit, so a (seed, stream) pair reproduces a run
// exactly on any platform.
//
// Streams: each stochastic entity (station, controller, placement) derives
// its own independent stream from a master seed via splitmix64, so adding a
// node or reordering draws in one entity never perturbs another.
#pragma once

#include <cstdint>
#include <vector>

namespace wlan::util {

/// splitmix64 step; used for seeding and for stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 (Blackman & Vigna, public domain), a small, fast,
/// high-quality 64-bit PRNG suitable for simulation workloads.
class Rng {
 public:
  /// Seeds the generator from `seed` via splitmix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Seeds a sub-stream: distinct `stream` values yield statistically
  /// independent generators for the same master seed.
  Rng(std::uint64_t seed, std::uint64_t stream);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
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

  /// Uniform double in [0, 1) with 53-bit resolution.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) using Lemire rejection (unbiased). n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]). A NaN
  /// p consumes a draw and fails.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Up to `limit` bernoulli(p) trials, stopping at the first success:
  /// returns how many ran (0 when limit <= 0) and sets `hit` to whether
  /// the last one succeeded. Same draws and answers as calling bernoulli(p)
  /// in that loop: none for p <= 0 or p >= 1, one per trial otherwise.
  int bernoulli_run(double p, int limit, bool& hit) {
    hit = false;
    if (limit <= 0) return 0;
    if (p <= 0.0) return limit;
    if (p >= 1.0) {
      hit = true;
      return 1;
    }
    for (int k = 1; k <= limit; ++k) {
      if (uniform() < p) {
        hit = true;
        return k;
      }
    }
    return limit;
  }

  /// Geometric number of failures before first success, success prob p in
  /// (0, 1]. Mean (1-p)/p. Used for p-persistent contention windows.
  std::uint64_t geometric(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Random index from a discrete distribution given by non-negative
  /// weights (need not be normalized). Requires a positive total weight.
  std::size_t discrete(const std::vector<double>& weights);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace wlan::util
