// perfbench — the repository benchmark program.
//
//   perfbench --workload serve_live|ingest_repair|analytics_static
//             --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics.
// --trace 1 runs it untraced and then traced with the same seed, reports the
// per-layer metrics of the traced pass plus obs.trace_overhead_pct, and
// writes the traced pass's spans as Chrome JSON to --trace-file.
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (name → value and unit). Exit code 1 on any wrong answer, 2 on a
// usage error or an unwritable trace file.
#include <cstdlib>
#include <string>
#include <thread>

#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

// Every per-layer metric appears on every workload; one whose layer is not on
// that workload's path reads 0 (README.md lists which layer each workload
// exercises).
constexpr MetricSpec kPerLayer[] = {
    {"graph.snapshot_ms.p50", "ms"},
    {"graph.snapshot_ms.p99", "ms"},
    {"graph.commit_us.p50", "us"},
    {"graph.commit_us.p99", "us"},
    {"graph.writer_lag_ms.p99", "ms"},
    {"graph.stage_us.p50", "us"},
    {"graph.compact_ms.p50", "ms"},
    {"graph.overlay_entries", "count"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.overhead_ms.p50", "ms"},
    {"serve.overhead_ms.p99", "ms"},
    {"serve.batch_merge_ratio", "ratio"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.behind_batches.p50", "count"},
    {"core.bfs_snap_ms.p50", "ms"},
    {"core.sssp_snap_ms.p50", "ms"},
    {"core.inc_bfs_ms.p50", "ms"},
    {"core.inc_cc_ms.p50", "ms"},
    {"core.inc_fallback_ratio", "ratio"},
    {"core.bfs_ms.p50", "ms"},
    {"core.sssp_ms.p50", "ms"},
    {"core.cc_ms.p50", "ms"},
    {"core.pr_pull_ms.p50", "ms"},
    {"core.pr_push_ms.p50", "ms"},
    {"core.bfs.pull_level_share", "ratio"},
    {"core.cc.rounds", "count"},
#define PERFBENCH_LEDGER(k)                                                  \
  {"engine." k ".reads", "count"}, {"engine." k ".writes", "count"},         \
      {"engine." k ".atomics", "count"}, {"engine." k ".locks", "count"}
    PERFBENCH_LEDGER("bfs_snap"),
    PERFBENCH_LEDGER("sssp_snap"),
    PERFBENCH_LEDGER("inc_bfs"),
    PERFBENCH_LEDGER("inc_cc"),
    PERFBENCH_LEDGER("bfs"),
    PERFBENCH_LEDGER("sssp"),
    PERFBENCH_LEDGER("cc"),
    PERFBENCH_LEDGER("pr_pull"),
    PERFBENCH_LEDGER("pr_push"),
#undef PERFBENCH_LEDGER
    {"obs.trace_overhead_pct", "%"},
    {"bench.gen_lag_ms.p99", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.samples", "count"},
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
  int harness_threads;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_live|ingest_repair|analytics_static --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') usage("bad value for " + flag + ": " + v);
  return x;
}

void print_json(const RunResult& r, bool traced) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, r.get(m.name), m.unit);
    out += buf;
    first = false;
  };
  if (traced) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_file;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, v);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      trace = v == "1" ? 1 : 0;
    } else if (flag == "--trace-file") {
      trace_file = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_seed || seconds == 0.0 || trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }

  const Workload workloads[] = {
      {"serve_live", run_serve_live, serve_live_harness_threads()},
      {"ingest_repair", run_ingest_repair, 1},
      {"analytics_static", run_analytics_static, 1},
  };
  const Workload* wl = nullptr;
  for (const Workload& w : workloads) {
    if (workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage("unknown workload '" + workload + "'");

  std::printf("perfbench %s seed %llu seconds %.0f trace %d\n", wl->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("threads: cpus %u  omp_get_max_threads %d  service workers %d  "
              "harness threads %d  idle spinners %u\n",
              std::thread::hardware_concurrency(), omp_get_max_threads(),
              pushpull::serve::ServiceOptions{}.workers, wl->harness_threads,
              std::max(1u, std::thread::hardware_concurrency()));

  RunConfig cfg;
  cfg.seed = seed;
  cfg.seconds = seconds;
  std::printf("untraced pass:\n");
  RunResult plain = wl->run(cfg);
  if (trace == 0) {
    print_json(plain, false);
    return plain.correct ? 0 : 1;
  }

  pushpull::obs::TracerOptions topt;
  topt.events_per_thread = std::size_t{1} << 16;
  pushpull::obs::Tracer tracer(topt);
  cfg.tracer = &tracer;
  std::printf("traced pass:\n");
  RunResult traced = wl->run(cfg);
  const double base = plain.get("latency_p50_ms");
  traced.set("obs.trace_overhead_pct",
             base > 0.0 ? (traced.get("latency_p50_ms") - base) / base * 100.0 : 0.0);
  traced.correct = traced.correct && plain.correct;
  traced.attempted += plain.attempted;
  traced.failed += plain.failed;
  std::printf("trace: %llu events, %llu dropped; overhead %.2f%% on latency p50\n",
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()),
              traced.get("obs.trace_overhead_pct"));
  std::printf("ledger (single-threaded CountingInstr replay):\n");
  for (const auto& [name, value] : traced.values) {
    if (name.rfind("engine.", 0) == 0) std::printf("  %-28s %.0f\n", name.c_str(), value);
  }
  if (!trace_file.empty() && !tracer.write_chrome_json(trace_file)) return 2;
  print_json(traced, true);
  return traced.correct ? 0 : 1;
}
