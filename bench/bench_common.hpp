// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure of Besta et al., HPDC'17 (see
// DESIGN.md §4 for the experiment index and EXPERIMENTS.md for measured
// results). Graphs are the seeded synthetic analogs of the paper's SNAP
// datasets; `--scale=K` shifts every analog by K powers of two so runtimes
// can be tuned to the machine (negative = smaller).
#pragma once

#include <omp.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/runtime.hpp"
#include "engine/policy.hpp"
#include "graph/analogs.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/numa.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pushpull::bench {

inline void print_banner(const std::string& experiment, const std::string& claim) {
  std::printf("==========================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("Threads: %d on %d cpus (see EXPERIMENTS.md for caveats)\n",
              omp_get_max_threads(), numa::topology().cpus);
  std::printf("==========================================================================\n");
}

inline void print_graph_line(const std::string& name, const Csr& g) {
  std::printf("graph %-5s n=%d arcs=%lld d_avg=%.2f d_max=%d\n", name.c_str(),
              g.n(), static_cast<long long>(g.num_arcs()), g.avg_degree(),
              g.max_degree());
}

// Median-of-repeats timing helper.
template <class F>
double time_s(F&& fn, int repeats = 1) {
  double best = 1e100;
  for (int r = 0; r < repeats; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.elapsed_s());
  }
  return best;
}

// Shared CLI surface of the shared-memory benches (fig1_coloring, fig2_sssp,
// fig5_bc_scaling, fig6_strategies, micro_kernels): the graph-size shift, the
// engine-policy selection, and an optional real edge-list file. Every binary
// accepts the identical flag set:
//   --scale=K                     shift the synthetic analogs by K powers of 2
//   --policy=push|pull|gs|grs|fe|pa|all   engine strategies to sweep
//   --graph=FILE                  load a SNAP-style edge list instead of the
//                                 analogs (weights read when present)
//   --seed=S                      re-seed the analog generators (and any
//                                 bench-local randomness, e.g. update
//                                 streams); 0 = the builtin per-analog seeds,
//                                 so default runs stay bit-identical
//   --trace=FILE                  record a Chrome trace_event JSON of the run
//                                 (chrome://tracing / Perfetto); empty = off
struct SmCli {
  int scale = 0;
  std::uint64_t seed = 0;  // 0 = the analogs' builtin seeds
  std::vector<engine::StrategyKind> policies;
  std::string graph_path;  // empty = the synthetic analogs
  std::string trace_path;  // empty = no trace
  // Built-graph cache: a multi-GB --graph file is parsed and symmetrized
  // once per (name, weighted) even when a bench loads it in several sections.
  mutable std::map<std::string, Csr> cache;
};

inline SmCli parse_sm_cli(Cli& cli, int default_scale,
                          const char* default_policy = "all") {
  SmCli out;
  out.scale = static_cast<int>(cli.get_int("scale", default_scale));
  out.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  out.policies =
      engine::parse_strategy_list(cli.get_string("policy", default_policy));
  out.graph_path = cli.get_string("graph", "");
  out.trace_path = cli.get_string("trace", "");
  return out;
}

// --trace=FILE plumbing: owns the live tracer for a traced bench run and
// serializes it on finish(). When the path is empty the session is inactive
// and tracer() returns nullptr — kernels taking a tracer pointer treat null
// as off, so benches can thread `session.tracer()` unconditionally.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) tracer_ = std::make_unique<obs::Tracer>();
  }

  bool active() const noexcept { return tracer_ != nullptr; }
  obs::Tracer* tracer() noexcept { return tracer_.get(); }

  // Writes the Chrome JSON (no-op when inactive). Returns false on I/O
  // failure so callers can exit non-zero instead of shipping a bad artifact.
  bool finish() {
    if (!active()) return true;
    const bool ok = tracer_->write_chrome_json(path_);
    if (ok) {
      std::printf("\ntrace: %llu events (%llu dropped) -> %s\n",
                  static_cast<unsigned long long>(tracer_->recorded()),
                  static_cast<unsigned long long>(tracer_->dropped()),
                  path_.c_str());
    }
    return ok;
  }

 private:
  std::string path_;
  std::unique_ptr<obs::Tracer> tracer_;
};

// Converts per-rank superstep records into trace spans, one lane per rank
// (tid = 1000 + rank so dist lanes sort below the compute threads). No-op
// with a null tracer. `label` names the kernel/variant the supersteps belong
// to (e.g. "bfs/msg-passing").
inline void export_supersteps(
    obs::Tracer* tracer,
    const std::vector<std::vector<dist::SuperstepRecord>>& per_rank,
    const std::string& label) {
  if (tracer == nullptr) return;
  // TraceEvent stores const char* (the recording path never allocates), so
  // bench-built labels are interned for the life of the process.
  static std::deque<std::string> interned;
  interned.push_back(label);
  const char* name = interned.back().c_str();
  for (int r = 0; r < static_cast<int>(per_rank.size()); ++r) {
    int step = 0;
    for (const dist::SuperstepRecord& rec :
         per_rank[static_cast<std::size_t>(r)]) {
      obs::TraceEvent ev;
      ev.name = name;
      ev.cat = "superstep";
      ev.ph = 'X';
      ev.ts_ns = rec.t0_ns;
      ev.dur_ns = rec.t1_ns - rec.t0_ns;
      ev.tid = 1000 + r;
      ev.arg("superstep", step)
          .arg("msgs_sent", static_cast<double>(rec.delta.msgs_sent))
          .arg("bytes_sent", static_cast<double>(rec.delta.bytes_sent))
          .arg("drains", static_cast<double>(rec.delta.drains))
          .arg("bytes_drained", static_cast<double>(rec.delta.bytes_drained))
          .arg("rma_ops",
               static_cast<double>(rec.delta.rma_puts + rec.delta.rma_gets +
                                   rec.delta.rma_accs + rec.delta.rma_faas))
          .arg("edge_ops", static_cast<double>(rec.delta.edge_ops));
      // First four destination lanes inline; Perfetto queries cover the rest.
      for (int l = 0; l < 4 && l < dist::kSuperstepLanes; ++l) {
        const char* names[4] = {"lane0_bytes", "lane1_bytes", "lane2_bytes",
                                "lane3_bytes"};
        ev.arg(names[l], static_cast<double>(rec.lane_bytes[l]));
      }
      tracer->record(ev);
      ++step;
    }
  }
}

// One admission/budget vocabulary for every serving-style path. A kernel
// invocation in some domain records `<domain>.<kernel>.latency` (nanosecond
// histogram — p50/p99 land in the --json artifact via write_to) plus
// `<domain>.<kernel>.degraded` when it missed its budget: an incremental
// repair that fell back to full recompute (domain "update"), a query the
// admission controller rejected or that blew its op/time budget (domain
// "serve"). src/serve/service.cpp records the same key shape internally, so
// BENCH_update.json and BENCH_serve.json read as one schema
// (docs/metrics-schema.md).
inline void account_budget(const std::string& domain, const std::string& kernel,
                           double seconds, bool degraded) {
  auto& m = obs::MetricsRegistry::global();
  const std::string base = domain + "." + kernel;
  m.histogram(base + ".latency")
      .record(static_cast<std::uint64_t>(seconds * 1e9));
  if (degraded) m.counter(base + ".degraded").inc();
}

// Graph names this run sweeps: the loaded file (basename) or the analogs.
inline std::vector<std::string> sm_graph_names(const SmCli& sm) {
  if (!sm.graph_path.empty()) {
    const auto slash = sm.graph_path.find_last_of('/');
    return {slash == std::string::npos ? sm.graph_path
                                       : sm.graph_path.substr(slash + 1)};
  }
  return analog_names();
}

// Loads one graph of the sweep: the --graph file (symmetrized; when a
// weighted graph is requested the file's weight column is honored as-is —
// files without one get the parser's unit weights, never synthesized values)
// or the named analog. Cached per (name, weighted) for the life of the run.
inline const Csr& sm_load_graph(const SmCli& sm, const std::string& name,
                                bool weighted = false) {
  const std::string key = name + (weighted ? "#w" : "");
  auto it = sm.cache.find(key);
  if (it != sm.cache.end()) return it->second;
  if (sm.graph_path.empty()) {
    return sm.cache
        .emplace(key, analog_by_name(name, sm.scale, weighted, sm.seed))
        .first->second;
  }
  vid_t n = 0;
  EdgeList edges = read_edge_list(sm.graph_path, &n);
  BuildOptions opts;
  opts.keep_weights = weighted;
  return sm.cache.emplace(key, build_csr(n, std::move(edges), opts))
      .first->second;
}

// Shared CLI surface of the distributed benches (fig3_dm_scaling,
// fig3_dm_traversals, weak_scaling): the graph-size shift, the rank-count
// sweep (powers of two), and the transport backend selection.
struct DistCli {
  int scale = 0;
  int max_ranks = 16;
  std::vector<int> ranks;                    // 1, 2, 4, ..., max_ranks
  std::vector<dist::BackendKind> backends;   // from --backend=emu|shm|both
};

// Parses --<scale_flag>/--max-ranks/--backend with shared semantics
// (weak_scaling keeps its historical --base-scale spelling via scale_flag).
// Requesting shm on a platform without process-shared primitives drops the
// backend with a note instead of failing, so scripted sweeps keep working.
inline DistCli parse_dist_cli(Cli& cli, int default_scale, int default_max_ranks,
                              const char* scale_flag = "scale") {
  DistCli out;
  out.scale = static_cast<int>(cli.get_int(scale_flag, default_scale));
  out.max_ranks = static_cast<int>(cli.get_int("max-ranks", default_max_ranks));
  for (int r = 1; r <= out.max_ranks; r *= 2) out.ranks.push_back(r);
  const std::string backend = cli.get_string("backend", "emu");
  if (backend != "emu" && backend != "shm" && backend != "both") {
    std::fprintf(stderr, "unknown --backend=%s (expected emu, shm or both)\n",
                 backend.c_str());
    std::exit(2);
  }
  if (backend == "emu" || backend == "both") {
    out.backends.push_back(dist::BackendKind::Emu);
  }
  if (backend == "shm" || backend == "both") {
    if (dist::shm_backend_available()) {
      out.backends.push_back(dist::BackendKind::Shm);
    } else {
      std::printf("note: shm backend unavailable on this platform; skipped\n");
    }
  }
  return out;
}

// The three communication styles in the order every distributed bench
// sweeps and prints them.
inline constexpr dist::DistVariant kDistVariants[3] = {
    dist::DistVariant::PushRma, dist::DistVariant::PullRma,
    dist::DistVariant::MsgPassing};

// One (modeled, measured) timing pair per variant for one rank count.
struct VariantTimes {
  double modeled_s = 0.0;
  double wall_s = 0.0;
};

// The side-by-side timing tables shared by the strong-scaling benches: one
// table of modeled seconds (authoritative for emu) and one of measured
// wall-clock seconds (authoritative for shm), columns in kDistVariants
// order. `mp_speedup` appends the paper's headline ratio column.
inline void print_variant_tables(const std::string& what,
                                 const std::string& label,
                                 const std::vector<int>& ranks,
                                 const std::vector<std::array<VariantTimes, 3>>& runs,
                                 bool mp_speedup) {
  const auto emit = [&](const char* kind, double VariantTimes::* metric) {
    std::printf("\n%s, %s (%s):\n", what.c_str(), label.c_str(), kind);
    std::vector<std::string> header{"P", "Pushing-RMA", "Pulling-RMA",
                                    "Msg-Passing"};
    if (mp_speedup) header.push_back("MP speedup vs push");
    Table table(header);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      std::vector<std::string> row{std::to_string(ranks[i]),
                                   Table::num(runs[i][0].*metric, 4),
                                   Table::num(runs[i][1].*metric, 4),
                                   Table::num(runs[i][2].*metric, 4)};
      if (mp_speedup) {
        row.push_back(Table::num(runs[i][0].*metric / runs[i][2].*metric, 1) +
                      "x");
      }
      table.add_row(row);
    }
    table.print();
  };
  emit("modeled seconds", &VariantTimes::modeled_s);
  emit("measured wall-clock seconds, slowest rank", &VariantTimes::wall_s);
}

// One line explaining which of the side-by-side timings is authoritative for
// the chosen backend.
inline void print_backend_banner(dist::BackendKind k) {
  std::printf("\n=== backend: %s — %s ===\n", dist::to_string(k),
              k == dist::BackendKind::Emu
                  ? "ranks are threads; modeled CommCosts time is "
                    "authoritative, wall clock measures the scheduler"
                  : "ranks are processes over POSIX shared memory; wall "
                    "clock is real, modeled time shown for comparison");
}

// --- JSON artifact sink ------------------------------------------------------
//
// Flat key → value metric dump so CI can upload each smoke run's headline
// numbers (BENCH_*.json workflow artifacts) and the perf trajectory can be
// tracked across PRs instead of only living in EXPERIMENTS.md. Benches that
// support it take `--json=FILE` and record a handful of scalars; keys are
// bench-chosen (e.g. "fig4.pull.find_minimum_s").
class JsonWriter {
 public:
  void add(const std::string& key, double value) {
    // JSON has no nan/inf literals; a failed measurement becomes null so the
    // artifact stays parseable.
    if (!std::isfinite(value)) {
      entries_.emplace_back(key, "null");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    entries_.emplace_back(key, buf);
  }

  void add(const std::string& key, long long value) {
    entries_.emplace_back(key, std::to_string(value));
  }

  // Values (and keys, in write()) are JSON-escaped: a --graph path with `"`
  // or `\` must still produce a parseable artifact.
  void add_string(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += json_escape(value);
    quoted += '"';
    entries_.emplace_back(key, std::move(quoted));
  }

  // Writes {"k": v, ...} to `path` (no-op when empty); aborts the bench with
  // a message on I/O failure so CI does not upload a half-written artifact.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --json file '%s'\n", path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", json_escape(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// Machine-topology stanza, stamped into every BENCH_*.json artifact: timings
// and scaling numbers are meaningless without the sockets / cpus / LLC size /
// hugepage state they were measured on, and CI artifacts outlive the runner
// that produced them.
inline void add_machine_stanza(JsonWriter& json) {
  const numa::Topology& topo = numa::topology();
  json.add("machine.numa_nodes", static_cast<long long>(topo.nodes));
  json.add("machine.cpus", static_cast<long long>(topo.cpus));
  json.add("machine.llc_bytes", static_cast<long long>(topo.llc_bytes));
  json.add("machine.transparent_hugepages",
           static_cast<long long>(topo.transparent_hugepages ? 1 : 0));
  json.add("machine.topology_from_sysfs",
           static_cast<long long>(topo.from_sysfs ? 1 : 0));
  json.add("machine.omp_max_threads",
           static_cast<long long>(omp_get_max_threads()));
}

}  // namespace pushpull::bench
