#include "stats/delay.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace wlan::stats {

std::size_t DelayHistogram::bucket_of(std::uint64_t ns) {
  std::size_t idx;
  if (ns < kSubBuckets) {
    idx = static_cast<std::size_t>(ns);
  } else {
    // Octave = position of the most significant bit; the top 5 bits below
    // it select the log-linear sub-bucket.
    const int msb = std::bit_width(ns) - 1;  // >= 5
    const int shift = msb - 5;
    idx = static_cast<std::size_t>(kSubBuckets) *
              static_cast<std::size_t>(shift + 1) +
          static_cast<std::size_t>((ns >> shift) - kSubBuckets);
  }
  return std::min(idx, kNumBuckets - 1);
}

std::uint64_t DelayHistogram::bucket_low(std::size_t b) {
  if (b < kSubBuckets) return b;
  const std::size_t shift = b / kSubBuckets - 1;
  const std::uint64_t sub = b % kSubBuckets + kSubBuckets;
  return sub << shift;
}

std::uint64_t DelayHistogram::bucket_width(std::size_t b) {
  if (b < kSubBuckets) return 1;
  return std::uint64_t{1} << (b / kSubBuckets - 1);
}

void DelayHistogram::record(sim::Duration delay) {
  const std::uint64_t ns =
      delay.ns() > 0 ? static_cast<std::uint64_t>(delay.ns()) : 0;
  const std::size_t b = bucket_of(ns);
  if (count_ == 0) {
    counts_.assign(1, 0);
    first_ = b;
    min_ns_ = max_ns_ = ns;
  } else {
    if (b < first_ || b > last())
      cover(std::min(b, first_), std::max(b, last()));
    min_ns_ = std::min(min_ns_, ns);
    max_ns_ = std::max(max_ns_, ns);
  }
  ++counts_[b - first_];
  ++count_;
  sum_ns_ += ns;
}

void DelayHistogram::cover(std::size_t lo, std::size_t hi) {
  // Capacity at least doubles, so growth is amortised, and never exceeds
  // kNumBuckets, so a histogram never holds more than a dense one would.
  const std::size_t need = hi - lo + 1;
  if (need > counts_.capacity())
    counts_.reserve(std::min(kNumBuckets,
                             std::max(need, 2 * counts_.capacity())));
  counts_.insert(counts_.begin(), first_ - lo, 0);
  counts_.resize(need, 0);
  first_ = lo;
}

double DelayHistogram::mean_s() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_ns_) / static_cast<double>(count_) / 1e9;
}

double DelayHistogram::min_s() const {
  return count_ == 0 ? 0.0 : static_cast<double>(min_ns_) / 1e9;
}

double DelayHistogram::max_s() const {
  return count_ == 0 ? 0.0 : static_cast<double>(max_ns_) / 1e9;
}

double DelayHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    if (cum + c >= target) {
      // Linear interpolation across the bucket's span: the k-th of n
      // samples in [lo, lo + width) sits at lo + width * k / n.
      const std::size_t b = first_ + i;
      const double frac =
          static_cast<double>(target - cum) / static_cast<double>(c);
      const double ns = static_cast<double>(bucket_low(b)) +
                        static_cast<double>(bucket_width(b)) * frac;
      return ns / 1e9;
    }
    cum += c;
  }
  return static_cast<double>(max_ns_) / 1e9;  // unreachable
}

void DelayHistogram::merge(const DelayHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    counts_.assign(other.counts_.begin(), other.counts_.end());
    first_ = other.first_;
    min_ns_ = other.min_ns_;
    max_ns_ = other.max_ns_;
  } else {
    cover(std::min(first_, other.first_), std::max(last(), other.last()));
    const std::size_t offset = other.first_ - first_;
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
      counts_[offset + i] += other.counts_[i];
    min_ns_ = std::min(min_ns_, other.min_ns_);
    max_ns_ = std::max(max_ns_, other.max_ns_);
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

void DelayHistogram::reset() {
  counts_.clear();
  first_ = 0;
  count_ = 0;
  sum_ns_ = 0;
  min_ns_ = 0;
  max_ns_ = 0;
}

std::vector<DelayHistogram::Bucket> DelayHistogram::nonzero_buckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    if (counts_[i] != 0) out.push_back({first_ + i, counts_[i]});
  return out;
}

bool DelayHistogram::restore(std::span<const Bucket> buckets,
                             std::uint64_t count, std::uint64_t sum_ns,
                             std::uint64_t min_ns, std::uint64_t max_ns) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const Bucket& b = buckets[i];
    const bool ascending = i == 0 || buckets[i - 1].index < b.index;
    if (b.index >= kNumBuckets || !ascending || b.count == 0 ||
        b.count > count - total)
      return false;
    total += b.count;
  }
  if (total != count) return false;
  if (count == 0) {
    if (sum_ns != 0 || min_ns != 0 || max_ns != 0) return false;
    reset();
    return true;
  }
  if (min_ns > max_ns || buckets.front().index != bucket_of(min_ns) ||
      buckets.back().index != bucket_of(max_ns))
    return false;
  first_ = buckets.front().index;
  counts_.assign(buckets.back().index - first_ + 1, 0);
  for (const Bucket& b : buckets) counts_[b.index - first_] = b.count;
  count_ = count;
  sum_ns_ = sum_ns;
  min_ns_ = min_ns;
  max_ns_ = max_ns;
  return true;
}

}  // namespace wlan::stats
