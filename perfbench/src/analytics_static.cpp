// analytics_static — one caller runs a fixed bundle of whole-graph kernels on
// the static weighted orc* analog CSR: direction-optimizing BFS, Δ-stepping
// SSSP (push), connected components, and PageRank pull and push (the paper's
// own contrast). All its work is in engine and core on the raw-CSR path under
// one OpenMP team: no storage, no service. It is the predicted no-change case
// for storage, serving and thread-budget changes. Its working set (about
// 15 MB) fits the last-level cache, so it measures compute and
// synchronisation rather than DRAM bandwidth.
#include <cmath>

#include "core/baselines/baselines.hpp"
#include "core/baselines/union_find.hpp"
#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/pagerank.hpp"
#include "core/sssp_delta.hpp"
#include "graph/builder.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using pushpull::Csr;
using pushpull::weight_t;

namespace {

// Call counts per bundle, fixed so each kernel class takes a comparable share
// of bundle time on the commit that defined the benchmark.
constexpr int kBfsCalls = 12;
constexpr int kSsspCalls = 1;
constexpr int kCcCalls = 3;
constexpr int kPrPullCalls = 3;
constexpr int kPrPushCalls = 1;
constexpr int kPrIterations = 2;
constexpr weight_t kDelta = 16.0f;
constexpr int kSetupReps = 5;
constexpr std::uint64_t kWindowNs = 1'000'000'000;
constexpr double kSsspTol = 1e-4;  // tests/test_sssp.cpp
constexpr double kPrTol = 1e-9;    // tests/test_pagerank.cpp

pushpull::PageRankOptions pr_options() {
  pushpull::PageRankOptions o;
  o.iterations = kPrIterations;
  return o;
}

// Sequential references, computed once before the timed phase.
struct References {
  std::vector<std::vector<vid_t>> bfs;
  std::vector<std::vector<weight_t>> sssp;
  std::vector<vid_t> cc;
  std::vector<double> pr;
};

References references(const Csr& g, const AnalyticsInputs& in) {
  References ref;
  for (vid_t s : in.bfs_sources) ref.bfs.push_back(pushpull::baseline::bfs(g, s).dist);
  for (vid_t s : in.sssp_sources) ref.sssp.push_back(pushpull::baseline::dijkstra(g, s));
  pushpull::UnionFind uf(g.n());
  for (vid_t u = 0; u < g.n(); ++u) {
    for (vid_t v : g.neighbors(u)) uf.unite(u, v);
  }
  // Label = smallest vertex id in the component, as connected_components.
  std::vector<vid_t> min_of(static_cast<std::size_t>(g.n()), g.n());
  for (vid_t v = 0; v < g.n(); ++v) {
    vid_t& m = min_of[static_cast<std::size_t>(uf.find(v))];
    m = std::min(m, v);
  }
  for (vid_t v = 0; v < g.n(); ++v) {
    ref.cc.push_back(min_of[static_cast<std::size_t>(uf.find(v))]);
  }
  ref.pr = pushpull::pagerank_seq(g, pr_options());
  return ref;
}

bool near(const std::vector<weight_t>& got, const std::vector<weight_t>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isinf(want[i]) ? !std::isinf(got[i])
                            : std::fabs(got[i] - want[i]) > kSsspTol) {
      return false;
    }
  }
  return true;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

// One bundle's answers and direction statistics. Kept until the bundle span
// closes, then checked against the references outside it.
struct Bundle {
  std::vector<std::size_t> bfs_src;
  std::vector<std::vector<vid_t>> bfs;
  std::vector<std::size_t> sssp_src;
  std::vector<std::vector<weight_t>> sssp;
  std::vector<std::vector<vid_t>> cc;
  std::vector<std::vector<double>> pr_pull;
  std::vector<std::vector<double>> pr_push;
  int bfs_levels = 0;
  int bfs_pull_levels = 0;
  int cc_rounds = 0;
};

// One bundle; bundle number `k` rotates through the seeded sources.
template <class TracerT>
Bundle run_bundle(const Csr& g, const AnalyticsInputs& in, std::size_t k,
                  TracerT* tracer, const Spans& spans) {
  Bundle out;
  const auto id = static_cast<double>(k);
  for (int c = 0; c < kBfsCalls; ++c) {
    const std::size_t s = (k + static_cast<std::size_t>(c)) % in.bfs_sources.size();
    const std::uint64_t t0 = now_ns();
    pushpull::BfsResult r = pushpull::bfs_direction_optimizing(
        g, in.bfs_sources[s], pushpull::DirOptParams{}, pushpull::NullInstr{}, tracer);
    spans.span("bench.core", "bfs", t0, now_ns(), id);
    out.bfs_levels += static_cast<int>(r.level_dirs.size());
    for (pushpull::Direction d : r.level_dirs) {
      out.bfs_pull_levels += d == pushpull::Direction::Pull ? 1 : 0;
    }
    out.bfs_src.push_back(s);
    out.bfs.push_back(std::move(r.dist));
  }
  for (int c = 0; c < kSsspCalls; ++c) {
    const std::size_t s = (k + static_cast<std::size_t>(c)) % in.sssp_sources.size();
    const std::uint64_t t0 = now_ns();
    pushpull::DeltaSteppingResult r =
        pushpull::sssp_delta_push(g, in.sssp_sources[s], kDelta);
    spans.span("bench.core", "sssp", t0, now_ns(), id);
    out.sssp_src.push_back(s);
    out.sssp.push_back(std::move(r.dist));
  }
  for (int c = 0; c < kCcCalls; ++c) {
    const std::uint64_t t0 = now_ns();
    pushpull::CcResult r = pushpull::connected_components(
        g, pushpull::CcOptions{}, pushpull::NullInstr{}, tracer);
    spans.span("bench.core", "cc", t0, now_ns(), id);
    out.cc_rounds += r.rounds;
    out.cc.push_back(std::move(r.comp));
  }
  for (int c = 0; c < kPrPullCalls; ++c) {
    const std::uint64_t t0 = now_ns();
    out.pr_pull.push_back(
        pushpull::pagerank_pull(g, pr_options(), pushpull::NullInstr{}, tracer));
    spans.span("bench.core", "pr_pull", t0, now_ns(), id);
  }
  for (int c = 0; c < kPrPushCalls; ++c) {
    const std::uint64_t t0 = now_ns();
    out.pr_push.push_back(
        pushpull::pagerank_push(g, pr_options(), pushpull::NullInstr{}, tracer));
    spans.span("bench.core", "pr_push", t0, now_ns(), id);
  }
  return out;
}

bool check(const Bundle& b, const References& ref) {
  bool ok = true;
  for (std::size_t i = 0; i < b.bfs.size(); ++i) ok &= b.bfs[i] == ref.bfs[b.bfs_src[i]];
  for (std::size_t i = 0; i < b.sssp.size(); ++i) ok &= near(b.sssp[i], ref.sssp[b.sssp_src[i]]);
  for (const auto& c : b.cc) ok &= c == ref.cc;
  for (const auto& p : b.pr_pull) ok &= max_abs_diff(p, ref.pr) <= kPrTol;
  for (const auto& p : b.pr_push) {
    ok &= max_abs_diff(p, ref.pr) <= kPrTol;
    ok &= max_abs_diff(p, b.pr_pull.front()) <= kPrTol;  // push against pull
  }
  return ok;
}

struct Loop {
  std::uint64_t t0 = 0;
  std::vector<Sample> latency;  // at bundle start
  long long bfs_levels = 0;
  long long bfs_pull_levels = 0;
  long long cc_rounds = 0;
};

template <class TracerT>
Loop run_loop(const RunConfig& cfg, const Csr& g, const AnalyticsInputs& in,
              const References& ref, TracerT* tracer, RunResult& res) {
  const Spans spans{cfg.tracer};
  Loop loop;
  loop.t0 = now_ns();
  const std::uint64_t t_end = loop.t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  for (std::size_t k = 0; now_ns() < t_end; ++k) {
    const std::uint64_t t0 = now_ns();
    const Bundle b = run_bundle(g, in, k, tracer, spans);
    const std::uint64_t t1 = now_ns();
    spans.span("bench.e2e", "bundle", t0, t1, static_cast<double>(k));
    loop.latency.push_back({t0, static_cast<double>(t1 - t0) * 1e-6});
    loop.bfs_levels += b.bfs_levels;
    loop.bfs_pull_levels += b.bfs_pull_levels;
    loop.cc_rounds += b.cc_rounds;
    ++res.attempted;
    if (!check(b, ref)) {
      ++res.failed;
      res.correct = false;
    }
  }
  return loop;
}

}  // namespace

RunResult run_analytics_static(const RunConfig& cfg) {
  RunResult res;
  const AnalyticsInputs in = make_analytics_inputs(cfg.seed);
  std::printf("  inputs: edges %016llx  bfs sources %016llx  sssp sources %016llx\n",
              static_cast<unsigned long long>(digest(in.edges)),
              static_cast<unsigned long long>(digest(in.bfs_sources)),
              static_cast<unsigned long long>(digest(in.sssp_sources)));

  pushpull::BuildOptions bo;
  bo.keep_weights = true;
  const References ref = references(pushpull::build_csr(in.n, pushpull::EdgeList(in.edges), bo), in);

  // --- set-up: build_csr, one warm-up bundle --------------------------------
  auto spin = std::make_unique<IdleSpinners>(kWarmUpS, kCalmWaitS);
  std::printf("  host: waited %.1f s for a calm second before set-up\n", spin->waited_s());
  Csr g;
  std::vector<double> setup_s;
  const Spans none{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g = Csr{};
    pushpull::EdgeList edges = in.edges;
    const std::uint64_t t0 = now_ns();
    g = pushpull::build_csr(in.n, std::move(edges), bo);
    run_bundle(g, in, 0, static_cast<pushpull::obs::NullTracer*>(nullptr), none);
    setup_s.push_back(seconds_since(t0));
  }
  res.set("setup_s", median(setup_s));

  // --- timed phase ----------------------------------------------------------
  StealMonitor host;
  const Loop loop =
      cfg.tracer != nullptr
          ? run_loop(cfg, g, in, ref, cfg.tracer, res)
          : run_loop(cfg, g, in, ref, static_cast<pushpull::obs::NullTracer*>(nullptr), res);
  host.stop();
  spin.reset();
  res.set("peak_rss_mb", peak_rss_mb());
  // Bundles are too long for ten beyond p90 in a window: pool the bundles of
  // the windows the host left alone.
  const Windows win(loop.latency, loop.t0, kWindowNs, host);
  const std::vector<double> lat = win.pooled();
  double busy_s = 0.0;
  for (double ms : lat) busy_s += ms * 1e-3;
  res.set("latency_p50_ms", percentile(lat, 50.0));
  res.set("latency_p90_ms", percentile(lat, 90.0));
  res.set("throughput_per_s", busy_s > 0.0 ? static_cast<double>(lat.size()) / busy_s : 0.0);

  std::printf("  graph: n %d, %lld arcs; bundle: %d bfs, %d sssp, %d cc, %d pr_pull, "
              "%d pr_push (%d iterations)\n",
              g.n(), static_cast<long long>(g.num_arcs()), kBfsCalls, kSsspCalls,
              kCcCalls, kPrPullCalls, kPrPushCalls, kPrIterations);
  std::printf("  latency p50 %.3f ms  p90 %.3f ms  (%zu bundles, %zu beyond p90)\n",
              percentile(lat, 50.0), percentile(lat, 90.0), lat.size(),
              samples_beyond(lat.size(), 90.0));
  std::printf("  host: steal %.1f%% of CPU time during the timed phase; left out "
              "%zu of %zu windows above %.0f%%\n",
              host.share(loop.t0, now_ns()) * 100.0, win.noisy, win.total,
              kMaxStealShare * 100.0);
  std::printf("  checks: %llu of %llu bundles failed\n",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  if (cfg.tracer == nullptr) return res;

  // --- per-layer metrics from the benchmark's spans -------------------------
  const SpanTable sp = SpanTable::from(*cfg.tracer);
  for (const char* k : {"bfs", "sssp", "cc", "pr_pull", "pr_push"}) {
    res.set(std::string("core.") + k + "_ms.p50", sp.p(k, 50));
  }
  res.set("core.bfs.pull_level_share",
          loop.bfs_levels > 0 ? static_cast<double>(loop.bfs_pull_levels) /
                                    static_cast<double>(loop.bfs_levels)
                              : 0.0);
  res.set("core.cc.rounds", static_cast<double>(loop.cc_rounds) /
                                static_cast<double>(kCcCalls * loop.latency.size()));
  res.set("bench.latency_p99_ms", percentile(lat, 99.0));
  res.set("bench.samples", static_cast<double>(lat.size()));
  const double total = sp.sum("bundle");
  std::printf("  kernel shares of bundle time: bfs %.3f  sssp %.3f  cc %.3f  "
              "pr_pull %.3f  pr_push %.3f\n",
              sp.sum("bfs") / total, sp.sum("sssp") / total, sp.sum("cc") / total,
              sp.sum("pr_pull") / total, sp.sum("pr_push") / total);

  // Operation counts: one call of each kernel class on the first sources.
  const vid_t bs = in.bfs_sources.front();
  const vid_t ss = in.sssp_sources.front();
  count_ops(res, "bfs", [&](auto instr) {
    pushpull::bfs_direction_optimizing(g, bs, pushpull::DirOptParams{}, instr);
  });
  count_ops(res, "sssp", [&](auto instr) { pushpull::sssp_delta_push(g, ss, kDelta, instr); });
  count_ops(res, "cc", [&](auto instr) {
    pushpull::connected_components(g, pushpull::CcOptions{}, instr);
  });
  count_ops(res, "pr_pull", [&](auto instr) { pushpull::pagerank_pull(g, pr_options(), instr); });
  count_ops(res, "pr_push", [&](auto instr) { pushpull::pagerank_push(g, pr_options(), instr); });
  return res;
}

}  // namespace perfbench
