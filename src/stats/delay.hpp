// Per-packet delay statistics: exact mean plus fixed-bucket log-histogram
// percentiles (p50/p95/p99 for the load-sweep drivers).
//
// The bucketing is HdrHistogram-style and purely integral — value 0..31 ns
// maps to its own bucket, and above that each octave splits into 32
// log-linear sub-buckets (~3 % relative resolution) — so recording and
// quantile extraction involve no libm calls and are bit-identical across
// platforms and thread counts, like everything else in this repo.
// Percentiles interpolate linearly inside the winning bucket, which makes
// them hand-computable in unit tests.
//
// Only the buckets between the smallest and the largest sample are stored:
// bucket_of(min) .. bucket_of(max), one counter each, and none at all
// before the first sample. A run's delays touch a few hundred of the 2048
// buckets, so a histogram costs what its samples span (at most 16 KB), and
// equal sample sets give member-wise equal histograms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"

namespace wlan::stats {

class DelayHistogram {
 public:
  /// 32 sub-buckets per octave of nanoseconds; 2048 buckets cover the
  /// full 63-bit ns range (the defensive clamp in bucket_of never fires).
  static constexpr std::uint64_t kSubBuckets = 32;
  static constexpr std::size_t kNumBuckets = 2048;

  /// One entry of the sparse view: a bucket index and its nonzero count.
  struct Bucket {
    std::size_t index = 0;
    std::uint64_t count = 0;
    friend bool operator==(const Bucket&, const Bucket&) = default;
  };

  void record(sim::Duration delay);

  std::uint64_t count() const { return count_; }

  /// Exact mean of recorded delays, seconds. 0 when empty.
  double mean_s() const;

  /// Exact extremes (not bucketed), seconds. 0 when empty.
  double min_s() const;
  double max_s() const;

  /// Quantile q in [0, 1], seconds: finds the bucket holding the
  /// ceil(q * count)-th smallest sample (rank >= 1) and interpolates
  /// linearly within it. 0 when empty.
  double quantile(double q) const;

  /// Merges another histogram into this one (per-station -> whole-run).
  void merge(const DelayHistogram& other);

  /// Empties the histogram; the counters' memory is kept for reuse.
  void reset();

  /// Counters held: bucket_of(max) - bucket_of(min) + 1, or 0 when empty.
  std::size_t stored_buckets() const { return counts_.size(); }

  /// Bucket index for a delay of `ns` nanoseconds (exposed for tests).
  static std::size_t bucket_of(std::uint64_t ns);
  /// Inclusive lower edge / width of bucket `b`, nanoseconds.
  static std::uint64_t bucket_low(std::size_t b);
  static std::uint64_t bucket_width(std::size_t b);

  // Raw internals, (de)serialized bit-exactly by exp::run_cache.
  /// The nonzero buckets, ascending by index.
  std::vector<Bucket> nonzero_buckets() const;
  std::uint64_t raw_sum_ns() const { return sum_ns_; }
  std::uint64_t raw_min_ns() const { return min_ns_; }
  std::uint64_t raw_max_ns() const { return max_ns_; }
  /// Restores a histogram captured via the raw accessors above. Returns
  /// false and leaves *this unchanged unless the input is one record() and
  /// merge() can build: indices below kNumBuckets and strictly ascending,
  /// counts nonzero and summing to `count`; when `count` > 0, min_ns <=
  /// max_ns and the first and last indices are bucket_of(min_ns) and
  /// bucket_of(max_ns); when `count` is 0, zero sum, min and max.
  bool restore(std::span<const Bucket> buckets, std::uint64_t count,
               std::uint64_t sum_ns, std::uint64_t min_ns,
               std::uint64_t max_ns);

 private:
  /// Last stored bucket; requires count_ > 0.
  std::size_t last() const { return first_ + counts_.size() - 1; }
  /// Extends the stored range to buckets [lo, hi], which must contain it.
  void cover(std::size_t lo, std::size_t hi);

  /// counts_[i] counts bucket first_ + i.
  std::vector<std::uint64_t> counts_;
  std::size_t first_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t min_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

}  // namespace wlan::stats
