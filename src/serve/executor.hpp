// Kernel dispatch for the serving layer.
//
// One function per algorithm, over an immutable SnapshotView. These are thin
// shims onto the standalone engine kernels — deliberately so: the service
// executes queries through these functions AND the answer checks (test_serve,
// perfbench's serve_live replay) recompute through the same functions on a
// snapshot of the pinned epoch, so "served result ≡ standalone run" is
// checked against the genuine standalone path, not a service-private
// reimplementation.
//
// The multi-source wrappers serve merged passes: k compatible queued queries
// (same algorithm, epoch, policy) become one multi_source_bfs/_sssp pass and
// are sliced back into per-query payloads. Merging is exact — MS-BFS levels
// are direction-independent and MS-SSSP converges to the same float fixpoint
// as Δ-stepping (core/generalized_bfs.hpp) — so merged and standalone
// answers are bit-identical and the checks need no merging carve-out.
#pragma once

#include <span>
#include <vector>

#include "core/directed.hpp"
#include "core/generalized_bfs.hpp"
#include "core/incremental.hpp"
#include "core/sssp_delta.hpp"
#include "graph/delta_graph.hpp"
#include "serve/request.hpp"

namespace pushpull::serve {

// BFS levels from `src` (-1 unreachable). The policy picks the §5 strategy;
// levels are exact under every strategy, so the payload is policy-invariant.
inline std::vector<vid_t> run_bfs(const SnapshotView& view, vid_t src,
                                  engine::StrategyKind policy) {
  DigraphBfsOptions opt;
  opt.strategy = policy;
  return bfs_digraph_strategy(view, src, opt).dist;
}

// Tentative-distance vector from `src` (+inf unreachable). Push-only on
// snapshots: the pull relaxer reads the dense weight array, which the
// overlay-patched SnapshotCsr does not expose — and the payload is
// direction-invariant anyway (both directions settle the same fixpoint).
inline std::vector<weight_t> run_sssp(const SnapshotView& view, vid_t src,
                                      weight_t delta,
                                      engine::StrategyKind /*policy*/) {
  return sssp_delta_push(view.out(), src, delta).dist;
}

// Converged PageRank vector (1e-12 L∞ fixpoint).
inline std::vector<double> run_pagerank(const SnapshotView& view) {
  return pagerank_converged(view).ranks;
}

// Weakly-connected component labels.
inline std::vector<vid_t> run_cc(const SnapshotView& view) {
  return cc_labels(view);
}

// Batched BFS: one pass, k ≤ 64 lanes, lane l's slice == run_bfs(sources[l]).
inline MultiSourceBfsResult run_ms_bfs(const SnapshotView& view,
                                       std::span<const vid_t> sources,
                                       engine::StrategyKind policy) {
  MultiSourceBfsOptions opt;
  opt.strategy = policy;
  return multi_source_bfs(view, sources, opt);
}

// Batched SSSP: lane l's slice == run_sssp(sources[l]) bit-for-bit.
inline MultiSourceSsspResult run_ms_sssp(const SnapshotView& view,
                                         std::span<const vid_t> sources) {
  return multi_source_sssp(view.out(), sources);
}

}  // namespace pushpull::serve
