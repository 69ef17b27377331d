// Unit tests for the traffic layer: arrival generators (determinism and
// distribution), the bounded PacketQueue (FIFO, tail drop, occupancy
// integral), and the DelayHistogram (bucketing, exact mean, hand-computed
// percentiles, and its touched-range storage against the dense reference
// in tests/reference/).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reference/dense_histogram.hpp"
#include "stats/delay.hpp"
#include "traffic/arrival.hpp"
#include "traffic/queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace wlan;
using traffic::TrafficConfig;
using traffic::TrafficModel;

// ------------------------------------------------------------- generators

TEST(Arrivals, CbrProducesExactConstantGaps) {
  traffic::CbrArrivals cbr(sim::Duration::microseconds(125));
  util::Rng rng(7);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(cbr.next_gap(rng), sim::Duration::microseconds(125));
}

TEST(Arrivals, CbrRejectsNonPositiveGap) {
  EXPECT_THROW(traffic::CbrArrivals(sim::Duration::zero()),
               std::invalid_argument);
}

TEST(Arrivals, MeanInterarrivalMatchesLoadAndPayload) {
  // 8000-bit payloads at 1 Mb/s -> exactly 8 ms between packets.
  const auto cfg = TrafficConfig::poisson(1.0);
  EXPECT_EQ(traffic::mean_interarrival(cfg, 8000),
            sim::Duration::milliseconds(8));
  // 4 Mb/s -> 2 ms.
  EXPECT_EQ(traffic::mean_interarrival(TrafficConfig::cbr(4.0), 8000),
            sim::Duration::milliseconds(2));
}

TEST(Arrivals, MeanInterarrivalRejectsNonPositiveLoad) {
  auto cfg = TrafficConfig::poisson(0.0);
  EXPECT_THROW(traffic::mean_interarrival(cfg, 8000), std::invalid_argument);
}

TEST(Arrivals, PoissonStreamIsDeterministicPerSeed) {
  traffic::PoissonArrivals a(sim::Duration::milliseconds(1));
  traffic::PoissonArrivals b(sim::Duration::milliseconds(1));
  util::Rng ra(42, 9), rb(42, 9), rc(42, 10);
  bool any_differs = false;
  for (int i = 0; i < 100; ++i) {
    const auto ga = a.next_gap(ra);
    EXPECT_EQ(ga, b.next_gap(rb));  // same (seed, stream): identical
    traffic::PoissonArrivals c(sim::Duration::milliseconds(1));
    if (ga != c.next_gap(rc)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);  // different stream: different gaps
}

TEST(Arrivals, PoissonMeanApproximatesConfiguredGap) {
  traffic::PoissonArrivals a(sim::Duration::milliseconds(2));
  util::Rng rng(1, 1);
  double sum_s = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum_s += a.next_gap(rng).s();
  EXPECT_NEAR(sum_s / n, 2e-3, 2e-5);  // within 1 %
}

TEST(Arrivals, OnOffEmitsPeakGapsAndSilences) {
  // Peak gap 1 ms, mean burst 10 ms, mean silence 40 ms.
  traffic::OnOffArrivals a(sim::Duration::milliseconds(1), 0.010, 0.040);
  util::Rng rng(5, 2);
  int in_burst = 0, with_silence = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto gap = a.next_gap(rng);
    ASSERT_GT(gap, sim::Duration::zero());
    if (gap == sim::Duration::milliseconds(1)) {
      ++in_burst;
    } else {
      EXPECT_GT(gap, sim::Duration::milliseconds(1));  // peak gap + silence
      ++with_silence;
    }
  }
  // Mean burst holds ~10 packets, so silences are ~1/10 of the gaps.
  EXPECT_GT(in_burst, 4 * with_silence);
  EXPECT_GT(with_silence, n / 50);
}

TEST(Arrivals, OnOffLongRunRateMatchesOfferedLoad) {
  const auto cfg = TrafficConfig::on_off(2.0, 0.010, 0.040);
  auto gen = traffic::make_arrival_process(cfg, 8000);
  util::Rng rng(3, 1);
  double total_s = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) total_s += gen->next_gap(rng).s();
  const double rate_mbps = n * 8000.0 / total_s / 1e6;
  EXPECT_NEAR(rate_mbps, 2.0, 0.1);  // duty-cycle compensation works
}

TEST(Arrivals, TraceReplaysGapsInOrderAndWraps) {
  traffic::TraceArrivals a({sim::Duration::milliseconds(1),
                            sim::Duration::milliseconds(2),
                            sim::Duration::milliseconds(3)},
                           /*repeat=*/true);
  util::Rng rng(1);
  for (int lap = 0; lap < 3; ++lap) {
    EXPECT_EQ(a.next_gap(rng), sim::Duration::milliseconds(1));
    EXPECT_EQ(a.next_gap(rng), sim::Duration::milliseconds(2));
    EXPECT_EQ(a.next_gap(rng), sim::Duration::milliseconds(3));
  }
}

TEST(Arrivals, NonRepeatingTraceGoesSilent) {
  traffic::TraceArrivals a({sim::Duration::milliseconds(5)}, /*repeat=*/false);
  util::Rng rng(1);
  EXPECT_EQ(a.next_gap(rng), sim::Duration::milliseconds(5));
  EXPECT_LT(a.next_gap(rng), sim::Duration::zero());  // exhausted sentinel
  EXPECT_LT(a.next_gap(rng), sim::Duration::zero());  // stays exhausted
}

TEST(Arrivals, TraceRejectsEmptyAndNegative) {
  EXPECT_THROW(traffic::TraceArrivals({}, true), std::invalid_argument);
  EXPECT_THROW(
      traffic::TraceArrivals({sim::Duration::nanoseconds(-5)}, true),
      std::invalid_argument);
}

TEST(Arrivals, FactoryBuildsEveryFiniteModelAndRejectsSaturated) {
  EXPECT_THROW(traffic::make_arrival_process(TrafficConfig(), 8000),
               std::invalid_argument);
  EXPECT_EQ(traffic::make_arrival_process(TrafficConfig::cbr(1.0), 8000)
                ->name(),
            "CBR");
  EXPECT_EQ(traffic::make_arrival_process(TrafficConfig::poisson(1.0), 8000)
                ->name(),
            "Poisson");
  EXPECT_EQ(traffic::make_arrival_process(
                TrafficConfig::on_off(1.0, 0.01, 0.04), 8000)
                ->name(),
            "OnOff");
  EXPECT_EQ(traffic::make_arrival_process(TrafficConfig::trace({0.001}), 8000)
                ->name(),
            "Trace");
}

// ------------------------------------------------------------------ queue

TEST(PacketQueue, FifoOrderAndSizes) {
  traffic::PacketQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_TRUE(q.push(sim::Time::from_ns(100)));
  EXPECT_TRUE(q.push(sim::Time::from_ns(200)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().enqueued, sim::Time::from_ns(100));
  q.pop(sim::Time::from_ns(300));
  EXPECT_EQ(q.front().enqueued, sim::Time::from_ns(200));
  q.pop(sim::Time::from_ns(400));
  EXPECT_TRUE(q.empty());
}

TEST(PacketQueue, TailDropsWhenFullAndCounts) {
  traffic::PacketQueue q(2);
  EXPECT_TRUE(q.push(sim::Time::from_ns(1)));
  EXPECT_TRUE(q.push(sim::Time::from_ns(2)));
  EXPECT_FALSE(q.push(sim::Time::from_ns(3)));  // full
  EXPECT_FALSE(q.push(sim::Time::from_ns(4)));
  EXPECT_EQ(q.arrivals(), 4u);
  EXPECT_EQ(q.drops(), 2u);
  EXPECT_DOUBLE_EQ(q.drop_rate(), 0.5);
  // Draining opens space again.
  q.pop(sim::Time::from_ns(5));
  EXPECT_TRUE(q.push(sim::Time::from_ns(6)));
  EXPECT_EQ(q.drops(), 2u);
}

TEST(PacketQueue, RingWrapsAcrossManyCycles) {
  traffic::PacketQueue q(3);
  std::int64_t next = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    ASSERT_TRUE(q.push(sim::Time::from_ns(++next)));
    ASSERT_TRUE(q.push(sim::Time::from_ns(++next)));
    EXPECT_EQ(q.front().enqueued, sim::Time::from_ns(next - 1));
    q.pop(sim::Time::from_ns(next));
    EXPECT_EQ(q.front().enqueued, sim::Time::from_ns(next));
    q.pop(sim::Time::from_ns(next));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.drops(), 0u);
}

TEST(PacketQueue, OccupancyIntegralHandComputed) {
  traffic::PacketQueue q(8);
  // size 1 over [0,10), 2 over [10,30), 1 over [30,40):
  // integral = 10 + 40 + 10 = 60 packet-ns; mean over 40 ns = 1.5.
  EXPECT_TRUE(q.push(sim::Time::from_ns(0)));
  EXPECT_TRUE(q.push(sim::Time::from_ns(10)));
  q.pop(sim::Time::from_ns(30));
  EXPECT_DOUBLE_EQ(q.mean_occupancy(sim::Time::from_ns(40)), 1.5);
  // Querying later keeps integrating the current size (1):
  // 10 + 40 + 30 = 80 packet-ns over 60 ns.
  EXPECT_DOUBLE_EQ(q.mean_occupancy(sim::Time::from_ns(60)), 80.0 / 60.0);
}

TEST(PacketQueue, ResetStatsKeepsPacketsAndRestartsIntegral) {
  traffic::PacketQueue q(2);
  EXPECT_TRUE(q.push(sim::Time::from_ns(0)));
  EXPECT_FALSE(q.push(sim::Time::from_ns(1)) && q.push(sim::Time::from_ns(2)));
  q.reset_stats(sim::Time::from_ns(100));
  EXPECT_EQ(q.arrivals(), 0u);
  EXPECT_EQ(q.drops(), 0u);
  EXPECT_EQ(q.size(), 2u);  // queued packets survive the warm-up boundary
  EXPECT_EQ(q.front().enqueued, sim::Time::from_ns(0));  // true enqueue time
  // Integral restarts at the reset point: size 2 throughout.
  EXPECT_DOUBLE_EQ(q.mean_occupancy(sim::Time::from_ns(150)), 2.0);
}

TEST(PacketQueue, RejectsZeroCapacity) {
  EXPECT_THROW(traffic::PacketQueue(0), std::invalid_argument);
}

// -------------------------------------------------------- delay histogram

TEST(DelayHistogram, BucketMappingIsLogLinear) {
  using H = stats::DelayHistogram;
  // Values below 32 ns get exact buckets.
  for (std::uint64_t v = 0; v < 32; ++v) EXPECT_EQ(H::bucket_of(v), v);
  // First octave is still exact (width 1).
  EXPECT_EQ(H::bucket_of(32), 32u);
  EXPECT_EQ(H::bucket_of(63), 63u);
  // Then 32 sub-buckets per octave.
  EXPECT_EQ(H::bucket_of(64), 64u);
  EXPECT_EQ(H::bucket_of(65), 64u);
  EXPECT_EQ(H::bucket_of(127), 95u);
  EXPECT_EQ(H::bucket_of(128), 96u);
  // Every value lands in a bucket whose [low, low+width) contains it.
  for (std::uint64_t v : {0ull, 31ull, 32ull, 100ull, 1000ull, 123456ull,
                          987654321ull, 1234567890123ull}) {
    const auto b = H::bucket_of(v);
    EXPECT_LE(H::bucket_low(b), v);
    EXPECT_LT(v, H::bucket_low(b) + H::bucket_width(b));
  }
}

TEST(DelayHistogram, ExactMeanMinMaxCount) {
  stats::DelayHistogram h;
  h.record(sim::Duration::nanoseconds(100));
  h.record(sim::Duration::nanoseconds(300));
  h.record(sim::Duration::nanoseconds(200));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean_s(), 200e-9);  // the mean is exact, not bucketed
  EXPECT_DOUBLE_EQ(h.min_s(), 100e-9);
  EXPECT_DOUBLE_EQ(h.max_s(), 300e-9);
}

TEST(DelayHistogram, QuantilesHandComputedOnExactBuckets) {
  // 32 samples at 0..31 ns: every sample has its own width-1 bucket, so
  // quantile(q) = rank's bucket low + 1 * 1.0 (single sample -> frac 1).
  stats::DelayHistogram h;
  for (int v = 0; v < 32; ++v) h.record(sim::Duration::nanoseconds(v));
  // rank = ceil(0.5 * 32) = 16 -> bucket 15 -> 15 + 1 = 16 ns.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 16e-9);
  // rank = ceil(0.95 * 32) = 31 -> bucket 30 -> 31 ns.
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 31e-9);
  // Extremes.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-9);   // rank clamps to 1 -> bucket 0
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 32e-9);  // rank 32 -> bucket 31
}

TEST(DelayHistogram, QuantileInterpolatesWithinABucket) {
  // 1000 ns lands in the bucket [992, 1008) (width 16). With 10 equal
  // samples, quantile(0.5) -> rank 5 -> 992 + 16 * 5/10 = 1000 ns.
  stats::DelayHistogram h;
  for (int i = 0; i < 10; ++i) h.record(sim::Duration::nanoseconds(1000));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1000e-9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1008e-9);  // rank 10 -> bucket top
  EXPECT_LE(h.quantile(0.5), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
}

TEST(DelayHistogram, MergeAddsDistributions) {
  stats::DelayHistogram a, b;
  a.record(sim::Duration::nanoseconds(10));
  b.record(sim::Duration::nanoseconds(20));
  b.record(sim::Duration::nanoseconds(30));
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean_s(), 20e-9);
  EXPECT_DOUBLE_EQ(a.min_s(), 10e-9);
  EXPECT_DOUBLE_EQ(a.max_s(), 30e-9);
}

TEST(DelayHistogram, EmptyAndResetReturnZero) {
  stats::DelayHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  h.record(sim::Duration::milliseconds(1));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(DelayHistogram, NegativeDelaysClampToZero) {
  stats::DelayHistogram h;
  h.record(sim::Duration::nanoseconds(-100));
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean_s(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_s(), 0.0);
}

TEST(DelayHistogram, RestoreRoundTripsAndARejectLeavesItUnchanged) {
  using H = stats::DelayHistogram;
  H h;
  for (int ns : {1000, 0, 100, 7, 100})
    h.record(sim::Duration::nanoseconds(ns));
  H back;
  ASSERT_TRUE(back.restore(h.nonzero_buckets(), h.count(), h.raw_sum_ns(),
                           h.raw_min_ns(), h.raw_max_ns()));
  EXPECT_EQ(back.nonzero_buckets(), h.nonzero_buckets());
  EXPECT_EQ(back.stored_buckets(), h.stored_buckets());
  EXPECT_EQ(back.quantile(0.5), h.quantile(0.5));
  // Duplicate index: rejected, and `back` keeps what it held.
  const std::vector<H::Bucket> dup = {{0, 1}, {0, 1}, {190, 3}};
  EXPECT_FALSE(back.restore(dup, 5, 1207, 0, 1000));
  EXPECT_EQ(back.nonzero_buckets(), h.nonzero_buckets());
  EXPECT_EQ(back.count(), 5u);
  // The empty histogram restores from nothing.
  EXPECT_TRUE(back.restore({}, 0, 0, 0, 0));
  EXPECT_EQ(back.count(), 0u);
  EXPECT_EQ(back.stored_buckets(), 0u);
}

// ------------------------------------- range storage vs the dense reference

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// A delay over octaves [lo, hi] of nanoseconds, with the edge cases
/// mixed in: 0, below 32 ns (width-1 buckets), negative (clamped to 0),
/// and the largest delays a Duration holds, which land in the highest
/// bucket a delay can reach.
sim::Duration random_delay(util::Rng& rng, int lo, int hi) {
  switch (rng.uniform_int(std::uint64_t{64})) {
    case 0:
      return sim::Duration::zero();
    case 1:
      return sim::Duration::nanoseconds(rng.uniform_int(0, 31));
    case 2:
      return sim::Duration::nanoseconds(rng.uniform_int(-1'000'000, -1));
    case 3:
      return sim::Duration::nanoseconds(
          std::numeric_limits<std::int64_t>::max() - rng.uniform_int(0, 1023));
    default: {
      const std::int64_t base = std::int64_t{1} << rng.uniform_int(lo, hi);
      return sim::Duration::nanoseconds(base + rng.uniform_int(0, base - 1));
    }
  }
}

/// Every reported number agrees bit for bit, the sparse view lists the
/// reference's nonzero buckets, and the range form holds exactly
/// bucket_of(max) - bucket_of(min) + 1 counters (none when empty).
void expect_matches_reference(const stats::DelayHistogram& h,
                              const reference::DenseDelayHistogram& ref) {
  using H = stats::DelayHistogram;
  EXPECT_EQ(h.count(), ref.count());
  EXPECT_EQ(h.raw_sum_ns(), ref.sum_ns());
  EXPECT_EQ(h.raw_min_ns(), ref.min_ns());
  EXPECT_EQ(h.raw_max_ns(), ref.max_ns());
  EXPECT_EQ(bits(h.mean_s()), bits(ref.mean_s()));
  EXPECT_EQ(bits(h.min_s()), bits(ref.min_s()));
  EXPECT_EQ(bits(h.max_s()), bits(ref.max_s()));
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(bits(h.quantile(q)), bits(ref.quantile(q))) << "q=" << q;
  std::vector<H::Bucket> nonzero;
  for (std::size_t b = 0; b < ref.counts().size(); ++b)
    if (ref.counts()[b] != 0) nonzero.push_back({b, ref.counts()[b]});
  EXPECT_EQ(h.nonzero_buckets(), nonzero);
  const std::size_t range =
      ref.count() == 0
          ? 0
          : H::bucket_of(ref.max_ns()) - H::bucket_of(ref.min_ns()) + 1;
  EXPECT_EQ(h.stored_buckets(), range);
}

TEST(DelayHistogram, RangeStorageMatchesTheDenseReference) {
  // Per seed: six parts, each recording a stream over its own octave
  // window (some empty, some reaching the top bucket), so the merges meet
  // an empty target, disjoint ranges below and above, and overlapping and
  // nested ones. Then a reset and fresh records on the merged result.
  constexpr int kParts = 6;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    std::vector<stats::DelayHistogram> parts(kParts);
    std::vector<reference::DenseDelayHistogram> refs(kParts);
    for (int p = 0; p < kParts; ++p) {
      const auto lo = rng.uniform_int(5, 34);
      const auto hi = lo + rng.uniform_int(0, 5);
      const auto n = rng.uniform_int(0, 60);
      for (std::int64_t i = 0; i < n; ++i) {
        const auto d = random_delay(rng, static_cast<int>(lo),
                                    static_cast<int>(hi));
        parts[p].record(d);
        refs[p].record(d);
      }
      expect_matches_reference(parts[p], refs[p]);
    }

    std::vector<int> order(kParts);
    for (int p = 0; p < kParts; ++p) order[p] = p;
    for (int p = kParts - 1; p > 0; --p)
      std::swap(order[p], order[rng.uniform_int(0, p)]);
    stats::DelayHistogram whole;
    reference::DenseDelayHistogram whole_ref;
    for (int p : order) {
      whole.merge(parts[p]);
      whole_ref.merge(refs[p]);
      expect_matches_reference(whole, whole_ref);
    }
    // A part absorbs the whole, which can grow it at both ends at once,
    // and the whole absorbs itself.
    parts[order[0]].merge(whole);
    refs[order[0]].merge(whole_ref);
    expect_matches_reference(parts[order[0]], refs[order[0]]);
    whole.merge(whole);
    whole_ref.merge(whole_ref);
    expect_matches_reference(whole, whole_ref);

    whole.reset();
    whole_ref.reset();
    expect_matches_reference(whole, whole_ref);
    for (int i = 0; i < 40; ++i) {
      const auto d = random_delay(rng, 8, 20);
      whole.record(d);
      whole_ref.record(d);
    }
    expect_matches_reference(whole, whole_ref);
    if (HasFailure()) return;
  }
}

}  // namespace
