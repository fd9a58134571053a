// ingest_repair — the write-heavy use of the storage layer: one caller stages
// a seeded 3:1 insert/delete batch on a directed R-MAT DeltaGraph, commits,
// snapshots, repairs BFS levels and weak-CC labels from the previous answers,
// and compacts every kCompactEvery batches. It covers what serve_live never
// runs: the directed two-sided overlay, compaction and core/incremental.
// PageRank repair is left out: it costs tens of milliseconds per batch and
// would hide every storage change.
#include <memory>

#include "core/incremental.hpp"
#include "graph/builder.hpp"
#include "graph/delta_graph.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using pushpull::DeltaGraph;
using pushpull::EdgeUpdate;
using pushpull::IncrementalStats;
using pushpull::NullInstr;
using pushpull::SnapshotView;

namespace {

constexpr int kCompactEvery = 4;  // 1 batch in 4 pays compaction: p90 lands among them
constexpr int kSetupReps = 15;  // set-up takes ~15 ms: the median of many
// Upper bound on the batch rate, so the pre-generated stream outlasts the run.
constexpr double kMaxBatchesPerS = 500.0;
// Latency and throughput are medians over these windows of the timed phase.
constexpr std::uint64_t kWindowNs = 1'000'000'000;

struct Loop {
  std::size_t batches = 0;
  std::size_t updates = 0;
  std::size_t repairs = 0;
  std::size_t fallbacks = 0;
  std::uint64_t t0 = 0;
  std::vector<double> latency_ms;
  std::vector<Sample> latency;  // at batch start
};

// The timed batch loop. TracerT is obs::NullTracer on untraced runs (the
// production instantiation) and obs::Tracer on the traced run.
template <class TracerT>
Loop run_loop(const RunConfig& cfg, const IngestInputs& in, DeltaGraph& dg,
              std::vector<vid_t> dist, std::vector<vid_t> comp, TracerT* tracer,
              RunResult& res) {
  const Spans spans{cfg.tracer};
  Loop loop;
  loop.t0 = now_ns();
  const std::uint64_t t_end = loop.t0 + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  for (std::size_t b = 0; b < in.batches.size() && now_ns() < t_end; ++b) {
    const std::vector<EdgeUpdate>& batch = in.batches[b];
    const std::span<const EdgeUpdate> updates(batch);
    const auto id = static_cast<double>(b);
    IncrementalStats bst;
    IncrementalStats cst;

    const std::uint64_t s0 = now_ns();
    bool staged = true;
    for (const EdgeUpdate& u : batch) {
      staged &= u.insert ? dg.add_edge(u.u, u.v) : dg.remove_edge(u.u, u.v);
    }
    const std::uint64_t s1 = now_ns();
    dg.commit();
    const std::uint64_t s2 = now_ns();
    const SnapshotView snap = dg.snapshot();
    const std::uint64_t s3 = now_ns();
    std::vector<vid_t> nd =
        pushpull::incremental_bfs(snap, updates, in.root, dist, &bst, NullInstr{}, tracer);
    const std::uint64_t s4 = now_ns();
    std::vector<vid_t> nc =
        pushpull::incremental_cc(snap, updates, comp, &cst, NullInstr{}, tracer);
    const std::uint64_t s5 = now_ns();
    const bool compacting = (b + 1) % kCompactEvery == 0;
    if (compacting) dg.compact();
    const std::uint64_t s6 = now_ns();

    spans.span("bench.graph", "stage", s0, s1, id);
    spans.span("bench.graph", "commit", s1, s2, id);
    spans.span("bench.graph", "snapshot", s2, s3, id);
    spans.span("bench.core", "inc_bfs", s3, s4, id);
    spans.span("bench.core", "inc_cc", s4, s5, id);
    if (compacting) spans.span("bench.graph", "compact", s5, s6, id);
    spans.span("bench.e2e", "batch", s0, s6, id);
    loop.latency_ms.push_back(static_cast<double>(s6 - s0) * 1e-6);
    loop.latency.push_back({s0, loop.latency_ms.back()});
    loop.repairs += 2;
    loop.fallbacks += (bst.fell_back ? 1 : 0) + (cst.fell_back ? 1 : 0);
    ++loop.batches;
    loop.updates += batch.size();

    // Check against full recompute on the same snapshot, outside the span.
    ++res.attempted;
    if (!staged || nd != pushpull::bfs_levels(snap, in.root) ||
        nc != pushpull::cc_labels(snap)) {
      ++res.failed;
      res.correct = false;
    }
    dist = std::move(nd);
    comp = std::move(nc);
  }
  if (loop.batches == in.batches.size() && now_ns() < t_end) {
    std::printf("  note: the input stream ran out before --seconds elapsed\n");
  }
  return loop;
}

}  // namespace

RunResult run_ingest_repair(const RunConfig& cfg) {
  RunResult res;
  const IngestInputs in = make_ingest_inputs(
      cfg.seed, static_cast<std::size_t>(cfg.seconds * kMaxBatchesPerS) + 16);
  std::printf("  inputs: edges %016llx  batches %016llx  (n %d, %zu arcs, "
              "%zu batches of %zu updates, root %d)\n",
              static_cast<unsigned long long>(digest(in.edges)),
              static_cast<unsigned long long>(digest(in.batches)), in.n,
              in.edges.size(), in.batches.size(), in.batches.front().size(), in.root);

  // --- set-up: build_digraph, DeltaGraph, the first answers ----------------
  auto spin = std::make_unique<IdleSpinners>(kWarmUpS, kCalmWaitS);
  std::printf("  host: waited %.1f s for a calm second before set-up\n", spin->waited_s());
  std::unique_ptr<DeltaGraph> dg;
  std::vector<vid_t> dist;
  std::vector<vid_t> comp;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dg.reset();
    pushpull::EdgeList edges = in.edges;
    const std::uint64_t t0 = now_ns();
    dg = std::make_unique<DeltaGraph>(pushpull::build_digraph(in.n, std::move(edges)));
    const SnapshotView snap = dg->snapshot();
    dist = pushpull::bfs_levels(snap, in.root);
    comp = pushpull::cc_labels(snap);
    setup_s.push_back(seconds_since(t0));
  }
  res.set("setup_s", median(setup_s));

  // --- timed phase ----------------------------------------------------------
  Loop loop;
  StealMonitor host;
  if (cfg.tracer != nullptr) {
    dg->set_tracer(cfg.tracer);
    loop = run_loop(cfg, in, *dg, dist, comp, cfg.tracer, res);
  } else {
    loop = run_loop(cfg, in, *dg, dist, comp,
                    static_cast<pushpull::obs::NullTracer*>(nullptr), res);
  }
  host.stop();
  spin.reset();
  res.set("peak_rss_mb", peak_rss_mb());
  double busy_s = 0.0;
  for (double ms : loop.latency_ms) busy_s += ms * 1e-3;
  const std::vector<double>& lat = loop.latency_ms;
  const auto batch_size = static_cast<double>(in.batches.front().size());
  const Windows win(loop.latency, loop.t0, kWindowNs, host);
  res.set("latency_p50_ms", win.percentile_of(50.0));
  res.set("latency_p90_ms", win.percentile_of(90.0));
  // Updates applied and repaired per second inside the batch spans.
  res.set("throughput_per_s", win.median_of(1, [&](const std::vector<double>& v) {
            double ms = 0.0;
            for (double x : v) ms += x;
            return batch_size * static_cast<double>(v.size()) / (ms * 1e-3);
          }));
  const double fallback_ratio =
      loop.repairs > 0 ? static_cast<double>(loop.fallbacks) /
                             static_cast<double>(loop.repairs)
                       : 0.0;

  std::printf("  loop: %zu batches, %zu updates, %.3f s inside batch spans (%.0f "
              "updates/s pooled, median window %.0f); compaction every %d batches\n",
              loop.batches, loop.updates, busy_s,
              busy_s > 0.0 ? static_cast<double>(loop.updates) / busy_s : 0.0,
              res.get("throughput_per_s"), kCompactEvery);
  std::printf("  latency p50 %.3f ms  p90 %.3f ms  (medians over 1 s windows; all-sample "
              "p50 %.3f ms  p90 %.3f ms over %zu samples, %zu beyond p90)  p99 %.3f ms "
              "(%zu beyond p99%s)\n",
              res.get("latency_p50_ms"), res.get("latency_p90_ms"),
              percentile(lat, 50.0), percentile(lat, 90.0), lat.size(),
              samples_beyond(lat.size(), 90.0), percentile(lat, 99.0),
              samples_beyond(lat.size(), 99.0),
              percentile_supported(lat.size(), 99.0) ? "" : ", below the ten-sample rule");
  std::printf("  repairs: %zu of %zu fell back to full recompute (%.4f)\n",
              loop.fallbacks, loop.repairs, fallback_ratio);
  std::printf("  lag: closed loop, every batch is due when the previous one "
              "returns (0 by construction)\n");
  std::printf("  host: steal %.1f%% of CPU time during the timed phase; left out "
              "%zu of %zu windows above %.0f%%\n",
              host.share(loop.t0, now_ns()) * 100.0, win.noisy, win.total,
              kMaxStealShare * 100.0);
  std::printf("  checks: %llu of %llu batches failed\n",
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  if (cfg.tracer == nullptr) return res;

  // --- per-layer metrics from the benchmark's spans -------------------------
  const SpanTable sp = SpanTable::from(*cfg.tracer);
  res.set("graph.snapshot_ms.p50", sp.p("snapshot", 50));
  res.set("graph.snapshot_ms.p99", sp.p("snapshot", 99));
  res.set("graph.commit_us.p50", sp.p("commit", 50) * 1e3);
  res.set("graph.commit_us.p99", sp.p("commit", 99) * 1e3);
  res.set("graph.stage_us.p50", sp.p("stage", 50) * 1e3);
  res.set("graph.compact_ms.p50", sp.p("compact", 50));
  res.set("graph.overlay_entries", static_cast<double>(dg->overlay_entries()));
  res.set("core.inc_bfs_ms.p50", sp.p("inc_bfs", 50));
  res.set("core.inc_cc_ms.p50", sp.p("inc_cc", 50));
  res.set("core.inc_fallback_ratio", fallback_ratio);
  res.set("bench.latency_p99_ms", percentile(lat, 99.0));
  res.set("bench.samples", static_cast<double>(lat.size()));
  const double total = sp.sum("batch");
  std::printf("  layer shares of batch time: stage %.3f  commit %.3f  snapshot "
              "%.3f  inc_bfs %.3f  inc_cc %.3f  compact %.3f  harness %.3f\n",
              sp.sum("stage") / total, sp.sum("commit") / total,
              sp.sum("snapshot") / total, sp.sum("inc_bfs") / total,
              sp.sum("inc_cc") / total, sp.sum("compact") / total,
              1.0 - (sp.sum("stage") + sp.sum("commit") + sp.sum("snapshot") +
                     sp.sum("inc_bfs") + sp.sum("inc_cc") + sp.sum("compact")) /
                        total);

  // Operation counts: both repairs of the first seeded batch on a fresh graph.
  DeltaGraph fresh(pushpull::build_digraph(in.n, pushpull::EdgeList(in.edges)));
  const SnapshotView before = fresh.snapshot();
  const std::vector<vid_t> dist0 = pushpull::bfs_levels(before, in.root);
  const std::vector<vid_t> comp0 = pushpull::cc_labels(before);
  const std::vector<EdgeUpdate>& first = in.batches.front();
  for (const EdgeUpdate& u : first) {
    if (u.insert) {
      fresh.add_edge(u.u, u.v);
    } else {
      fresh.remove_edge(u.u, u.v);
    }
  }
  fresh.commit();
  const SnapshotView after = fresh.snapshot();
  count_ops(res, "inc_bfs", [&](auto instr) {
    pushpull::incremental_bfs(after, std::span<const EdgeUpdate>(first), in.root,
                              dist0, nullptr, instr);
  });
  count_ops(res, "inc_cc", [&](auto instr) {
    pushpull::incremental_cc(after, std::span<const EdgeUpdate>(first), comp0,
                             nullptr, instr);
  });
  return res;
}

}  // namespace perfbench
