// Harness helpers shared by the three workloads: percentiles with the
// ten-samples-beyond rule, due-time lag accounting, payload/stream digests,
// the peak-RSS reader, span recording through obs::Tracer, the result every
// workload reports into, and the single-threaded operation-count ledger.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include <omp.h>

#include "obs/trace.hpp"
#include "perf/counters.hpp"
#include "perf/instr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() { return pushpull::obs::now_ns(); }

// --- percentiles -------------------------------------------------------------

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// Samples strictly beyond the p-th percentile of an n-sample run.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const auto at = static_cast<std::size_t>(std::max(rank, 1.0));
  return n > at ? n - at : 0;
}

// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

// --- host steal --------------------------------------------------------------

// Aggregate CPU time from the first line of /proc/stat (clock ticks).
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

inline CpuTimes cpu_times() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  f >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  CpuTimes t;
  for (unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

// Share of CPU time the hypervisor gave to other guests between two reads.
inline double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

// Windows in which the hypervisor stole more than this share of CPU time
// measure the host as much as the program (on the VM this benchmark was
// defined on, 7–30 % steal slowed every workload by 20 % or more).
inline constexpr double kMaxStealShare = 0.02;

// Samples /proc/stat on its own thread every 50 ms until stop(), so every
// measurement window can be tagged with the host's steal share during it.
class StealMonitor {
 public:
  StealMonitor() : thread_([this] { run(); }) {}
  ~StealMonitor() { stop(); }
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Steal share over the samples bracketing [t0, t1); valid after stop().
  double share(std::uint64_t t0, std::uint64_t t1) const {
    if (ticks_.size() < 2) return 0.0;
    std::size_t a = 0;
    while (a + 1 < ticks_.size() && ticks_[a + 1].t_ns <= t0) ++a;
    std::size_t b = a + 1;
    while (b + 1 < ticks_.size() && ticks_[b].t_ns < t1) ++b;
    return steal_share(ticks_[a].cpu, ticks_[b].cpu);
  }

 private:
  struct Tick {
    std::uint64_t t_ns;
    CpuTimes cpu;
  };

  void run() {
    while (true) {
      ticks_.push_back({now_ns(), cpu_times()});
      if (stop_.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  std::vector<Tick> ticks_;  // written by thread_ only until stop() joins it
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- windowed statistics -----------------------------------------------------

// A value observed at a time (ns on the now_ns() clock).
struct Sample {
  std::uint64_t t_ns = 0;
  double v = 0.0;
};

// The timed phase cut into fixed windows of samples. Windows with more than
// kMaxStealShare host steal are left out when at least one window is clean.
struct Windows {
  std::vector<std::vector<double>> kept;
  std::size_t total = 0;
  std::size_t noisy = 0;

  // `host.share(a, b)` gives the steal share over [a, b) (a StealMonitor).
  template <class Host>
  Windows(const std::vector<Sample>& s, std::uint64_t t0, std::uint64_t window_ns,
          const Host& host) {
    std::map<std::uint64_t, std::vector<double>> by_window;
    for (const Sample& x : s) {
      by_window[(x.t_ns - std::min(x.t_ns, t0)) / window_ns].push_back(x.v);
    }
    std::vector<std::vector<double>> all;
    for (auto& [w, v] : by_window) {
      const std::uint64_t a = t0 + w * window_ns;
      if (host.share(a, a + window_ns) > kMaxStealShare) {
        ++noisy;
      } else {
        kept.push_back(v);
      }
      all.push_back(std::move(v));
    }
    total = all.size();
    if (kept.empty()) kept = std::move(all);
  }

  std::vector<double> pooled() const {
    std::vector<double> out;
    for (const auto& v : kept) out.insert(out.end(), v.begin(), v.end());
    return out;
  }

  // Median over kept windows holding at least `min_n` samples of stat(window);
  // stat over the pooled kept samples when no window holds that many.
  template <class Stat>
  double median_of(std::size_t min_n, Stat stat) const {
    std::vector<double> per;
    for (const auto& v : kept) {
      if (v.size() >= min_n) per.push_back(stat(v));
    }
    if (!per.empty()) return percentile(per, 50.0);
    const std::vector<double> all = pooled();
    return all.empty() ? 0.0 : stat(all);
  }

  // Median over kept windows of their p-th percentile, counting only windows
  // with ten samples beyond it.
  double percentile_of(double p) const {
    std::size_t min_n = 1;
    while (!percentile_supported(min_n, p)) ++min_n;
    return median_of(min_n, [p](const std::vector<double>& v) { return percentile(v, p); });
  }
};

// --- due-time lag ------------------------------------------------------------

// How late a paced generator (open-loop dispatcher, writer) ran: for each
// item, actual start minus due time, clamped at 0 (early is on time).
class LagTracker {
 public:
  void note(std::uint64_t due_ns, std::uint64_t start_ns) {
    lag_ms_.push_back(start_ns > due_ns
                          ? static_cast<double>(start_ns - due_ns) * 1e-6
                          : 0.0);
  }
  void merge(const LagTracker& o) {
    lag_ms_.insert(lag_ms_.end(), o.lag_ms_.begin(), o.lag_ms_.end());
  }
  std::size_t count() const { return lag_ms_.size(); }
  double p99_ms() const { return percentile(lag_ms_, 99.0); }
  double max_ms() const {
    return lag_ms_.empty() ? 0.0
                           : *std::max_element(lag_ms_.begin(), lag_ms_.end());
  }

 private:
  std::vector<double> lag_ms_;
};

// Sleep until a steady_clock deadline given in now_ns() units.
inline void sleep_until_ns(std::uint64_t t_ns) {
  const std::uint64_t now = now_ns();
  if (t_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
}

// Keeps every vCPU of a shared VM from halting while a workload runs: one
// SCHED_IDLE thread per CPU that spins on `pause`, so it only ever runs when
// the CPU would otherwise idle and yields to any program thread at once. On
// the VM this benchmark was defined on, a halted vCPU came back to speed only
// after ~1.2 s (fixed work ran 3–4x slower) and woke late under host load,
// which made open-loop latency read host contention rather than the program.
// The program's own threads, defaults and oversubscription are untouched.
class IdleSpinners {
 public:
  // Starts the spinners, lets them run `warm_s` seconds, then waits up to
  // `calm_wait_s` more for a second with at most kMaxStealShare host steal, so
  // set-up and timing do not start inside a burst of host contention.
  IdleSpinners(double warm_s, double calm_wait_s) {
    for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
      threads_.emplace_back([this] {
        sched_param sp{};
        // A spinner that cannot drop to SCHED_IDLE would compete with the
        // program's threads: it does not spin at all.
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
    const std::uint64_t t0 = now_ns();
    const auto give_up = t0 + static_cast<std::uint64_t>(calm_wait_s * 1e9);
    CpuTimes a = cpu_times();
    while (now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const CpuTimes b = cpu_times();
      if (steal_share(a, b) <= kMaxStealShare) break;
      a = b;
    }
    waited_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  // Seconds spent waiting for a calm second after the warm-up.
  double waited_s() const { return waited_s_; }

 private:
  std::atomic<bool> stop_{false};
  double waited_s_ = 0.0;
  std::vector<std::thread> threads_;
};

// --- digests -----------------------------------------------------------------

// FNV-1a over raw bytes: payload digests (bitwise answer checks) and input
// stream digests (same seed ⇒ same digest).
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

template <class T>
std::uint64_t digest_of(const std::vector<T>& v) {
  Digest d;
  d.vec(v);
  return d.get();
}

// --- peak RSS ----------------------------------------------------------------

// A "<key> <n> kB" field (e.g. "VmHWM:") of a /proc/<pid>/status text, in
// kB; -1 when absent.
inline long parse_status_kb(std::string_view status, std::string_view key) {
  const std::size_t at = status.find(key);
  if (at == std::string_view::npos) return -1;
  std::size_t i = at + key.size();
  while (i < status.size() && (status[i] == ' ' || status[i] == '\t')) ++i;
  long kb = 0;
  bool any = false;
  while (i < status.size() && status[i] >= '0' && status[i] <= '9') {
    kb = kb * 10 + (status[i] - '0');
    ++i;
    any = true;
  }
  return any ? kb : -1;
}

// A field of /proc/self/status in MB (0 when /proc is unavailable).
inline double status_mb(std::string_view key) {
  std::ifstream f("/proc/self/status");
  std::stringstream ss;
  ss << f.rdbuf();
  const long kb = parse_status_kb(ss.str(), key);
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

// Process high-water resident set, in MB.
inline double peak_rss_mb() { return status_mb("VmHWM:"); }

// --- spans -------------------------------------------------------------------

// The benchmark's own spans around each call into a layer. Categories start
// with "bench." so they never mix with spans the library records itself.
// A null tracer (untraced runs) makes every call a no-op.
struct Spans {
  pushpull::obs::Tracer* tracer = nullptr;

  void span(const char* cat, const char* name, std::uint64_t t0,
            std::uint64_t t1, double id) const {
    if (tracer == nullptr) return;
    pushpull::obs::TraceEvent ev;
    ev.name = name;
    ev.cat = cat;
    ev.ts_ns = t0;
    ev.dur_ns = t1 > t0 ? t1 - t0 : 0;
    ev.arg("id", id);
    tracer->record(ev);
  }
};

// Span durations (ms) of the benchmark's own spans, keyed by name, plus the
// id of each span for per-query joins.
struct SpanTable {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, std::map<long long, double>> by_id;

  static SpanTable from(const pushpull::obs::Tracer& t) {
    SpanTable st;
    for (const auto& [tid, ev] : t.sorted_events()) {
      if (std::strncmp(ev.cat, "bench.", 6) != 0) continue;
      const double ms = static_cast<double>(ev.dur_ns) * 1e-6;
      st.ms[ev.name].push_back(ms);
      if (ev.n_args > 0) {
        st.by_id[ev.name][static_cast<long long>(ev.args[0].value)] += ms;
      }
    }
    return st;
  }

  const std::vector<double>& of(const std::string& name) const {
    static const std::vector<double> empty;
    const auto it = ms.find(name);
    return it == ms.end() ? empty : it->second;
  }
  // Summed duration of the spans `name` recorded under `id` (0 when none).
  double at(const std::string& name, long long id) const {
    const auto it = by_id.find(name);
    if (it == by_id.end()) return 0.0;
    const auto jt = it->second.find(id);
    return jt == it->second.end() ? 0.0 : jt->second;
  }
  double p(const std::string& name, double pct) const {
    return percentile(of(name), pct);
  }
  double sum(const std::string& name) const {
    double s = 0.0;
    for (double x : of(name)) s += x;
    return s;
  }
};

// --- results -----------------------------------------------------------------

// What one workload run hands back to main: the answer-check verdict, the
// attempted/failed operation counts and every metric it measured by name.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double v) { values[name] = v; }
  double get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  pushpull::obs::Tracer* tracer = nullptr;  // set on the traced pass only
};

// Median of the set-up repetitions a workload makes before its timed phase.
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// --- operation-count ledger --------------------------------------------------

// Replays `kernel(instr)` on one OpenMP thread under CountingInstr and files
// its reads/writes/atomics/locks (the paper's Table 1 columns) under
// engine.<name>.*. Single-threaded, on seeded inputs, so two runs of one seed
// record identical counts.
template <class F>
void count_ops(RunResult& r, const std::string& name, F&& kernel) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  pushpull::PerfCounters pc(1);
  kernel(pushpull::CountingInstr(pc));
  omp_set_num_threads(saved);
  const pushpull::CounterBlock c = pc.total();
  const std::string p = "engine." + name + ".";
  r.set(p + "reads", static_cast<double>(c.reads));
  r.set(p + "writes", static_cast<double>(c.writes));
  r.set(p + "atomics", static_cast<double>(c.atomics));
  r.set(p + "locks", static_cast<double>(c.locks));
}

}  // namespace perfbench
