// Dense delay histogram: one counter for each of the 2048 buckets,
// allocated up front and walked in full. The delay-histogram differential
// in tests/test_traffic.cpp holds stats::DelayHistogram, which stores only
// the buckets between its smallest and largest sample, to it.
//
// It shares the bucket scheme (bucket_of / bucket_low / bucket_width) with
// production, which the DelayHistogram unit tests pin on their own; what it
// checks is the storage: growth, merges of shifted ranges, reset, and the
// quantile walk.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "stats/delay.hpp"

namespace wlan::reference {

class DenseDelayHistogram {
 public:
  static constexpr std::size_t kNumBuckets = stats::DelayHistogram::kNumBuckets;

  DenseDelayHistogram();

  void record(sim::Duration delay);
  void merge(const DenseDelayHistogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  std::uint64_t min_ns() const { return min_ns_; }
  std::uint64_t max_ns() const { return max_ns_; }
  double mean_s() const;
  double min_s() const;
  double max_s() const;
  double quantile(double q) const;

  /// All 2048 bucket counts.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t min_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

}  // namespace wlan::reference
