// Metrics registry: named counters, gauges, and log2-bucketed latency
// histograms with p50/p99 extraction. No program records into one at
// present; the serving layer counts in serve::ServiceStats and traces each
// query instead.
//
// All instruments are lock-free on the record path (relaxed atomics); the
// registry itself takes a mutex only on name lookup, so callers hold the
// returned reference — instruments have stable addresses for the registry's
// lifetime and are never removed. Serialization goes through any writer with
// the bench JsonWriter's add(key, double)/add(key, long long) shape, keeping
// this header free of bench dependencies.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace pushpull::obs {

class Counter {
 public:
  void inc(std::int64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

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

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Dumps every instrument through `w` (JsonWriter-shaped): counters as
  // integers, gauges as doubles, histograms as .count/.p50_ns/.p99_ns/
  // .mean_ns. Keys are prefix + name, emitted in sorted-name order so the
  // artifact is deterministic.
  template <class Writer>
  void write_to(Writer& w, const std::string& prefix = "metrics.") const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      w.add(prefix + name, static_cast<long long>(c->value()));
    }
    for (const auto& [name, g] : gauges_) {
      w.add(prefix + name, g->value());
    }
    for (const auto& [name, h] : histograms_) {
      w.add(prefix + name + ".count", static_cast<long long>(h->count()));
      w.add(prefix + name + ".p50_ns",
            static_cast<long long>(h->percentile(50.0)));
      w.add(prefix + name + ".p99_ns",
            static_cast<long long>(h->percentile(99.0)));
      w.add(prefix + name + ".mean_ns", h->mean());
    }
  }

  // Test hygiene: zero every counter/histogram (gauges keep their last set).
  // Instruments stay registered — references held by callers remain valid.
  void reset_all();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace pushpull::obs
