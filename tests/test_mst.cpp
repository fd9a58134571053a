#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>

#include "core/baselines/baselines.hpp"
#include "core/baselines/union_find.hpp"
#include "core/mst_boruvka.hpp"
#include "core/mst_prim.hpp"
#include "graph/stats.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

using MstParam = std::tuple<int, int>;

constexpr double kTol = 1e-3;

class MstEquivalence : public ::testing::TestWithParam<MstParam> {};

using TreeEdges = std::vector<std::pair<vid_t, vid_t>>;

TreeEdges sorted(TreeEdges edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Borůvka's packed candidates order edges by (weight, canonical arc id), the
// order kruskal_msf_edges sorts by, so both select the same unique forest.
// The forest weight is a sum of floats in double, exact in any order on the
// zoo, so it equals Kruskal's bit for bit.
TEST_P(MstEquivalence, BoruvkaMatchesKruskalForest) {
  const auto& zoo = testing::weighted_zoo();
  const auto& [gi, threads] = GetParam();
  const auto& [name, g] = zoo[static_cast<std::size_t>(gi)];
  omp_set_num_threads(threads);

  const auto want = sorted(baseline::kruskal_msf_edges(g));
  const double want_weight = baseline::kruskal_msf_weight(g);
  const BoruvkaResult push = mst_boruvka_push(g);
  const BoruvkaResult pull = mst_boruvka_pull(g);
  EXPECT_EQ(sorted(push.tree_edges), want) << name << "/push";
  EXPECT_EQ(sorted(pull.tree_edges), want) << name << "/pull";
  EXPECT_EQ(push.total_weight, want_weight) << name << "/push";
  EXPECT_EQ(pull.total_weight, want_weight) << name << "/pull";
  EXPECT_EQ(push.iterations, pull.iterations) << name;
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, MstEquivalence,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<MstParam>& info) {
      return pushpull::testing::weighted_zoo()[std::get<0>(info.param)].name +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Mst, BaselinesAgree) {
  for (const auto& [name, g] : testing::weighted_zoo()) {
    EXPECT_NEAR(baseline::kruskal_msf_weight(g), baseline::prim_msf_weight(g), kTol)
        << name;
  }
}

TEST(Mst, TreeEdgesFormAcyclicSpanningForest) {
  for (const auto& [name, g] : testing::weighted_zoo()) {
    for (Direction dir : {Direction::Push, Direction::Pull}) {
      const BoruvkaResult r = mst_boruvka(g, dir);
      UnionFind uf(g.n());
      for (const auto& [u, v] : r.tree_edges) {
        EXPECT_TRUE(g.has_edge(u, v)) << name;       // real edges only
        EXPECT_TRUE(uf.unite(u, v)) << name;         // no cycles
      }
      // Spanning: same number of components as the graph.
      const auto comp = component_ids(g);
      for (vid_t v = 1; v < g.n(); ++v) {
        if (comp[static_cast<std::size_t>(v)] == comp[0]) {
          EXPECT_TRUE(uf.same(0, v)) << name;
        }
      }
    }
  }
}

TEST(Mst, AllEqualWeightsTerminateAndSpan) {
  // The tie-heavy case: any spanning tree is minimal; the run must still
  // terminate (no hooking cycles) and produce n-1 edges.
  const auto& zoo = testing::weighted_zoo();
  const auto& [name, g] = zoo[7];  // w_ties_grid (weight 1.0 everywhere)
  ASSERT_EQ(name, "w_ties_grid");
  const BoruvkaResult push = mst_boruvka_push(g);
  const BoruvkaResult pull = mst_boruvka_pull(g);
  const vid_t expected = g.n() - count_components(g);
  EXPECT_EQ(static_cast<vid_t>(push.tree_edges.size()), expected);
  EXPECT_EQ(static_cast<vid_t>(pull.tree_edges.size()), expected);
  EXPECT_NEAR(push.total_weight, static_cast<double>(expected), kTol);
}

TEST(Mst, PathGraphTreeIsWholeGraph) {
  BuildOptions opts;
  opts.keep_weights = true;
  Csr g = build_csr(20, with_uniform_weights(path_edges(20), 1.f, 5.f, 7), opts);
  const BoruvkaResult r = mst_boruvka_pull(g);
  EXPECT_EQ(r.tree_edges.size(), 19u);
  EXPECT_NEAR(r.total_weight, baseline::kruskal_msf_weight(g), kTol);
}

TEST(Mst, IterationCountIsLogarithmic) {
  const auto& zoo = testing::weighted_zoo();
  const auto& [name, g] = zoo[3];  // w_er200
  const BoruvkaResult r = mst_boruvka_push(g);
  // Components at least halve per iteration: ≤ log2(n) + slack.
  EXPECT_LE(r.iterations, 12);
  EXPECT_EQ(r.phase_times.size(), static_cast<std::size_t>(r.iterations));
}

TEST(Mst, DisconnectedGraphYieldsForest) {
  BuildOptions opts;
  opts.keep_weights = true;
  // Two separate triangles plus an isolated vertex.
  EdgeList edges = {{0, 1, 1.f}, {1, 2, 2.f}, {0, 2, 3.f},
                    {3, 4, 1.f}, {4, 5, 2.f}, {3, 5, 3.f}};
  Csr g = build_csr(7, edges, opts);
  const BoruvkaResult r = mst_boruvka_push(g);
  EXPECT_EQ(r.tree_edges.size(), 4u);  // 2 edges per triangle
  EXPECT_NEAR(r.total_weight, 6.0, kTol);
}

TEST(Mst, SingleVertexAndEmptyGraph) {
  BuildOptions opts;
  opts.keep_weights = true;
  Csr single = build_csr(1, EdgeList{}, opts);
  EXPECT_EQ(mst_boruvka_push(single).tree_edges.size(), 0u);
  Csr empty = build_csr(5, EdgeList{}, opts);
  EXPECT_EQ(mst_boruvka_pull(empty).total_weight, 0.0);
}

TEST(MstPrim, PushAndPullMatchKruskalWeight) {
  // The §3.7 technical-report variant: push/pull Prim.
  for (const auto& [name, g] : testing::weighted_zoo()) {
    const double want = baseline::kruskal_msf_weight(g);
    EXPECT_NEAR(mst_prim(g, Direction::Push).total_weight, want, kTol) << name;
    EXPECT_NEAR(mst_prim(g, Direction::Pull).total_weight, want, kTol) << name;
  }
}

TEST(MstPrim, ParentEdgesExistAndRoundsEqualN) {
  const auto& [name, g] = testing::weighted_zoo()[3];  // w_er200
  const PrimResult r = mst_prim(g, Direction::Push);
  EXPECT_EQ(r.rounds, g.n());
  for (vid_t v = 0; v < g.n(); ++v) {
    const vid_t p = r.parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      EXPECT_TRUE(g.has_edge(p, v)) << name;
    }
  }
}

}  // namespace
}  // namespace pushpull
