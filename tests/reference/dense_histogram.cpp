#include "reference/dense_histogram.hpp"

#include <algorithm>
#include <cmath>

namespace wlan::reference {

using H = stats::DelayHistogram;

DenseDelayHistogram::DenseDelayHistogram() : counts_(kNumBuckets, 0) {}

void DenseDelayHistogram::record(sim::Duration delay) {
  const std::uint64_t ns =
      delay.ns() > 0 ? static_cast<std::uint64_t>(delay.ns()) : 0;
  ++counts_[H::bucket_of(ns)];
  if (count_ == 0) {
    min_ns_ = max_ns_ = ns;
  } else {
    min_ns_ = std::min(min_ns_, ns);
    max_ns_ = std::max(max_ns_, ns);
  }
  ++count_;
  sum_ns_ += ns;
}

double DenseDelayHistogram::mean_s() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_ns_) / static_cast<double>(count_) / 1e9;
}

double DenseDelayHistogram::min_s() const {
  return count_ == 0 ? 0.0 : static_cast<double>(min_ns_) / 1e9;
}

double DenseDelayHistogram::max_s() const {
  return count_ == 0 ? 0.0 : static_cast<double>(max_ns_) / 1e9;
}

double DenseDelayHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (cum + counts_[b] >= target) {
      const double frac = static_cast<double>(target - cum) /
                          static_cast<double>(counts_[b]);
      const double ns = static_cast<double>(H::bucket_low(b)) +
                        static_cast<double>(H::bucket_width(b)) * frac;
      return ns / 1e9;
    }
    cum += counts_[b];
  }
  return static_cast<double>(max_ns_) / 1e9;  // unreachable
}

void DenseDelayHistogram::merge(const DenseDelayHistogram& other) {
  for (std::size_t b = 0; b < kNumBuckets; ++b) counts_[b] += other.counts_[b];
  if (other.count_ > 0) {
    min_ns_ = count_ == 0 ? other.min_ns_ : std::min(min_ns_, other.min_ns_);
    max_ns_ = count_ == 0 ? other.max_ns_ : std::max(max_ns_, other.max_ns_);
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

void DenseDelayHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ns_ = 0;
  min_ns_ = 0;
  max_ns_ = 0;
}

}  // namespace wlan::reference
