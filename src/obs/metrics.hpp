// Latency histogram: log2-bucketed nanosecond samples with p50/p99
// extraction, lock-free on the record path (relaxed atomics). No program
// records into one at present; the serving layer counts in
// serve::ServiceStats and traces each query instead.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace pushpull::obs {

// Latency histogram over nanosecond samples. Bucket i holds samples whose
// bit width is i, i.e. values in [2^(i-1), 2^i) — 65 buckets cover the full
// uint64 range in constant memory with one relaxed fetch_add per record.
// Percentiles come back as the midpoint of the bucket holding the requested
// rank: exact to within a factor of ~1.5, which is the right fidelity for
// p50/p99 tail tracking (and the price of a wait-free record path).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(std::uint64_t ns) noexcept {
    buckets_[std::bit_width(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

  // p in [0, 100]. Returns the midpoint of the bucket containing the p-th
  // percentile sample (0 for an empty histogram).
  std::uint64_t percentile(double p) const noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

}  // namespace pushpull::obs
