// Incremental BFS/CC (core/incremental.hpp) differentially tested against
// full recompute on the same post-update snapshot: exact agreement across ≥5
// randomized commit batches on the symmetric and digraph zoos, at 1 and 4
// OpenMP threads. Directed fallback and repair paths (orphaned BFS subtrees,
// component splits, probe budget exhaustion) get targeted cases.
#include <gtest/gtest.h>
#include <omp.h>

#include <random>
#include <vector>

#include "core/incremental.hpp"
#include "digraph_zoo.hpp"
#include "graph/delta_graph.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

constexpr int kBatches = 6;
constexpr int kBatchEdges = 24;

// Stages one random mixed batch (roughly 3:1 insert:delete, deletes drawn
// from live arcs) and returns the committed update list.
std::vector<EdgeUpdate> stage_batch(DeltaGraph& dg, std::mt19937_64& rng) {
  const SnapshotView before = dg.snapshot();
  const vid_t n = dg.n();
  int staged = 0;
  for (int guard = 0; staged < kBatchEdges && guard < kBatchEdges * 64;
       ++guard) {
    if ((rng() & 3u) != 0) {
      if (dg.add_edge(static_cast<vid_t>(rng() % n),
                      static_cast<vid_t>(rng() % n))) {
        ++staged;
      }
    } else {
      const vid_t u = static_cast<vid_t>(rng() % n);
      const auto nb = before.out().neighbors(u);
      if (nb.empty()) continue;
      if (dg.remove_edge(u, nb[rng() % nb.size()])) ++staged;
    }
  }
  const epoch_t epoch = dg.commit();
  return flatten(dg.batches_since(epoch - 1));
}

// The batch loop shared by the zoo sweeps: carry each kernel's fixpoint
// across batches, repair incrementally, and compare against full recompute
// on the identical snapshot.
void run_batches(DeltaGraph& dg, std::uint64_t seed, const std::string& name) {
  std::mt19937_64 rng(seed);
  const vid_t root = 0;
  SnapshotView snap = dg.snapshot();
  std::vector<vid_t> dist = bfs_levels(snap, root);
  std::vector<vid_t> comp = cc_labels(snap);

  for (int b = 0; b < kBatches; ++b) {
    const std::vector<EdgeUpdate> updates = stage_batch(dg, rng);
    snap = dg.snapshot();
    IncrementalStats st;

    std::vector<vid_t> inc_dist =
        incremental_bfs(snap, std::span<const EdgeUpdate>(updates), root, dist,
                        &st);
    EXPECT_EQ(inc_dist, bfs_levels(snap, root))
        << name << " batch " << b << " bfs";

    std::vector<vid_t> inc_comp =
        incremental_cc(snap, std::span<const EdgeUpdate>(updates), comp, &st);
    EXPECT_EQ(inc_comp, cc_labels(snap)) << name << " batch " << b << " cc";

    dist = std::move(inc_dist);
    comp = std::move(inc_comp);
    if (b == kBatches / 2) dg.compact();  // repair must survive compaction
  }
}

TEST(Incremental, MatchesFullRecomputeAcrossZoo) {
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    std::uint64_t seed = 42;
    for (const auto& entry : pushpull::testing::unweighted_zoo()) {
      DeltaGraph dg(Csr(entry.graph));
      run_batches(dg, seed++, entry.name + "@" + std::to_string(threads));
    }
  }
  omp_set_num_threads(saved);
}

TEST(Incremental, MatchesFullRecomputeAcrossDigraphZoo) {
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    std::uint64_t seed = 77;
    for (const auto& entry : pushpull::testing::digraph_zoo()) {
      DeltaGraph dg(Digraph{Csr(entry.graph.out), Csr(entry.graph.in)});
      run_batches(dg, seed++, entry.name + "@" + std::to_string(threads));
    }
  }
  omp_set_num_threads(saved);
}

// Deleting a tree edge orphans a whole subtree; the decremental repair must
// re-settle it exactly (here: to unreachable) without full recompute.
TEST(Incremental, BfsRepairsOrphanedSubtree) {
  DeltaGraph dg(make_undirected(63, binary_tree_edges(6)));
  dg.remove_edge(1, 3);  // detach 3's subtree from the root side
  dg.commit();
  const SnapshotView snap = dg.snapshot();
  const std::vector<EdgeUpdate> updates =
      flatten(dg.batches_since(dg.epoch() - 1));
  // The pre-delete fixpoint: BFS on the original tree.
  DeltaGraph orig(make_undirected(63, binary_tree_edges(6)));
  std::vector<vid_t> warm = bfs_levels(orig.snapshot(), 0);

  IncrementalStats st;
  const std::vector<vid_t> inc =
      incremental_bfs(snap, std::span<const EdgeUpdate>(updates), 0, warm, &st);
  EXPECT_EQ(inc, bfs_levels(snap, 0));
  EXPECT_FALSE(st.fell_back);       // repaired locally
  EXPECT_GT(st.repair_rounds, 0);   // the orphan cascade actually ran
  EXPECT_EQ(inc[3], -1);            // subtree is now unreachable
}

// A deletion whose orphan region rivals the graph (cutting a path in half)
// trips the blast-radius guard and falls back to full recompute — exactly.
TEST(Incremental, BfsBlastRadiusFallsBack) {
  DeltaGraph dg(make_undirected(50, path_edges(50)));
  dg.remove_edge(10, 11);
  dg.commit();
  const SnapshotView snap = dg.snapshot();
  const std::vector<EdgeUpdate> updates =
      flatten(dg.batches_since(dg.epoch() - 1));
  DeltaGraph orig(make_undirected(50, path_edges(50)));
  const std::vector<vid_t> warm = bfs_levels(orig.snapshot(), 0);

  IncrementalStats st;
  const std::vector<vid_t> inc =
      incremental_bfs(snap, std::span<const EdgeUpdate>(updates), 0, warm, &st);
  EXPECT_EQ(inc, bfs_levels(snap, 0));
  EXPECT_TRUE(st.fell_back);
}

// Deleting a pendant edge splits off a singleton; the probe enumerates the
// small side and relabels it in place instead of recomputing.
TEST(Incremental, CcRelabelsSplitOffPiece) {
  DeltaGraph dg(make_undirected(50, path_edges(50)));
  dg.remove_edge(48, 49);
  dg.commit();
  const SnapshotView snap = dg.snapshot();
  const std::vector<EdgeUpdate> updates =
      flatten(dg.batches_since(dg.epoch() - 1));
  const std::vector<vid_t> warm(50, 0);  // one component before the cut

  IncrementalStats st;
  const std::vector<vid_t> inc =
      incremental_cc(snap, std::span<const EdgeUpdate>(updates), warm, &st);
  EXPECT_EQ(inc, cc_labels(snap));
  EXPECT_FALSE(st.fell_back);
  EXPECT_EQ(st.repair_rounds, 1);  // one split relabeled
  EXPECT_EQ(inc[49], 49);
}

// A bridge between two cliques: both sides exceed every probe budget, so the
// kernel must fall back to full recompute — and still be exact.
TEST(Incremental, CcBridgeBetweenCliquesFallsBack) {
  EdgeList edges = complete_edges(24);
  for (const Edge& e : complete_edges(24)) {
    edges.push_back(Edge{static_cast<vid_t>(e.u + 24),
                         static_cast<vid_t>(e.v + 24), 1.0f});
  }
  edges.push_back(Edge{0, 24, 1.0f});  // the bridge
  DeltaGraph dg(make_undirected(48, std::move(edges)));
  dg.remove_edge(0, 24);
  dg.commit();
  const SnapshotView snap = dg.snapshot();
  const std::vector<EdgeUpdate> updates =
      flatten(dg.batches_since(dg.epoch() - 1));
  const std::vector<vid_t> warm(48, 0);

  IncrementalStats st;
  const std::vector<vid_t> inc =
      incremental_cc(snap, std::span<const EdgeUpdate>(updates), warm, &st);
  EXPECT_EQ(inc, cc_labels(snap));
  EXPECT_TRUE(st.fell_back);
}

}  // namespace
}  // namespace pushpull
