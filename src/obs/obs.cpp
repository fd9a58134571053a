// Out-of-line obs layer: the Chrome trace_event exporter and the metrics
// registry. Nothing here is on a hot path — recording is fully inline in the
// headers; this file only runs when a trace is serialized or a metric is
// first looked up.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace pushpull::obs {

// --- Tracer export -----------------------------------------------------------

std::vector<std::pair<int, TraceEvent>> Tracer::sorted_events() const {
  std::vector<std::pair<int, TraceEvent>> out;
  out.reserve(static_cast<std::size_t>(recorded()));
  for (int s = 0; s < opt_.max_threads; ++s) {
    const Ring& r = rings_[static_cast<std::size_t>(s)];
    // Acquire head before reading the buffer: pairs with the writer's
    // release store, so events [0, h) are fully written.
    const std::uint64_t h = r.head.load(std::memory_order_acquire);
    const TraceEvent* buf = r.buf.load(std::memory_order_acquire);
    if (h == 0 || buf == nullptr) continue;
    for (std::uint64_t i = 0; i < h; ++i) {
      const TraceEvent& ev = buf[i];
      out.emplace_back(ev.tid >= 0 ? ev.tid : s, ev);
    }
  }
  // Nested ScopedSpans record inner-first; sorting by timestamp within each
  // exported lane restores wall-clock order (the golden-test invariant).
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.second.ts_ns < b.second.ts_ns;
                   });
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<std::pair<int, TraceEvent>> events = sorted_events();

  // Rebase to the earliest timestamp so traces start near t=0 in the viewer
  // (steady_clock's epoch is boot time). Order and durations are unchanged.
  std::uint64_t base_ns = ~std::uint64_t{0};
  for (const auto& [tid, ev] : events) base_ns = std::min(base_ns, ev.ts_ns);
  if (events.empty()) base_ns = 0;

  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\n\"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const int tid = events[i].first;
    const TraceEvent& ev = events[i].second;
    out += "{\"name\": \"";
    out += json_escape(ev.name);
    out += "\", \"cat\": \"";
    out += json_escape(ev.cat);
    out += "\", \"ph\": \"";
    out += ev.ph;
    out += '"';
    std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f",
                  static_cast<double>(ev.ts_ns - base_ns) / 1e3);
    out += buf;
    if (ev.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                    static_cast<double>(ev.dur_ns) / 1e3);
      out += buf;
    } else if (ev.ph == 'i') {
      out += ", \"s\": \"t\"";  // instant scope: thread
    }
    std::snprintf(buf, sizeof(buf), ", \"pid\": 1, \"tid\": %d", tid);
    out += buf;
    out += ", \"args\": {";
    bool first = true;
    if (ev.mode != nullptr) {
      out += "\"mode\": \"";
      out += json_escape(ev.mode);
      out += '"';
      first = false;
    }
    for (int a = 0; a < ev.n_args; ++a) {
      if (!first) out += ", ";
      first = false;
      out += '"';
      out += json_escape(ev.args[a].key);
      out += "\": ";
      std::snprintf(buf, sizeof(buf), "%.9g", ev.args[a].value);
      out += buf;
    }
    out += "}}";
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "],\n\"otherData\": {";
  std::snprintf(buf, sizeof(buf),
                "\"recorded\": %" PRIu64 ", \"dropped\": %" PRIu64 "}\n}\n",
                recorded(), dropped());
  out += buf;
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace file '%s'\n", path.c_str());
    return false;
  }
  const std::string json = chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to '%s'\n", path.c_str());
  return ok;
}

// --- Histogram ---------------------------------------------------------------

std::uint64_t Histogram::percentile(double p) const noexcept {
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0;
  p = std::min(std::max(p, 0.0), 100.0);
  // Nearest-rank percentile, 1-based: rank = ceil(p/100 * N); p=0 maps to
  // the first sample. Ceil (not floor) so p99 of two samples picks the
  // larger one.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += counts[i];
    if (cum >= rank) {
      if (i == 0) return 0;  // bucket 0 holds only the value 0
      const std::uint64_t lo = std::uint64_t{1} << (i - 1);
      const std::uint64_t hi =
          i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
      return lo + (hi - lo) / 2;
    }
  }
  return 0;  // unreachable: cum == total >= rank by the loop end
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// --- MetricsRegistry ---------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::reset_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace pushpull::obs
