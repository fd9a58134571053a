#include <gtest/gtest.h>
#include <omp.h>

#include "core/baselines/baselines.hpp"
#include "core/bfs.hpp"
#include "graph_zoo.hpp"
#include "la/algorithms.hpp"

namespace pushpull {
namespace {

using BfsParam = std::tuple<int, int>;

void expect_distances_match(const std::vector<vid_t>& got,
                            const std::vector<vid_t>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_EQ(got[v], want[v]) << label << " vertex " << v;
  }
}

class BfsEquivalence : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsEquivalence, AllVariantsMatchSequentialDistances) {
  const auto& zoo = testing::unweighted_zoo();
  const auto& [gi, threads] = GetParam();
  const auto& [name, g] = zoo[static_cast<std::size_t>(gi)];
  omp_set_num_threads(threads);

  const vid_t root = 0;
  const auto ref = baseline::bfs(g, root);

  const BfsResult push = bfs_push(g, root);
  const BfsResult pull = bfs_pull(g, root);
  const BfsResult diropt = bfs_direction_optimizing(g, root);
  const auto la = la::bfs_la(g, root, Direction::Push);
  const auto la_pull = la::bfs_la(g, root, Direction::Pull);

  expect_distances_match(push.dist, ref.dist, name + "/push");
  expect_distances_match(pull.dist, ref.dist, name + "/pull");
  expect_distances_match(diropt.dist, ref.dist, name + "/diropt");
  expect_distances_match(la, ref.dist, name + "/la_push");
  expect_distances_match(la_pull, ref.dist, name + "/la_pull");

  EXPECT_TRUE(validate_bfs(g, root, push)) << name;
  EXPECT_TRUE(validate_bfs(g, root, pull)) << name;
  EXPECT_TRUE(validate_bfs(g, root, diropt)) << name;
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, BfsEquivalence,
    ::testing::Combine(::testing::Range(0, 14), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<BfsParam>& info) {
      return pushpull::testing::unweighted_zoo()[std::get<0>(info.param)].name +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Bfs, LevelsEqualEccentricityPlusOne) {
  Csr g = make_undirected(50, path_edges(50));
  const BfsResult r = bfs_push(g, 0);
  // 50 frontiers are processed: {0}, {1}, ..., {49}.
  EXPECT_EQ(r.levels, 50);
  EXPECT_EQ(r.dist[49], 49);
}

TEST(Bfs, UnreachableVerticesStayInvalid) {
  Csr g = make_undirected(8, EdgeList{Edge{0, 1, 1.0f}, Edge{2, 3, 1.0f}});
  for (const BfsResult& r : {bfs_push(g, 0), bfs_pull(g, 0)}) {
    EXPECT_EQ(r.dist[2], -1);
    EXPECT_EQ(r.dist[3], -1);
    EXPECT_EQ(r.parent[2], -1);
    EXPECT_EQ(r.dist[1], 1);
  }
}

TEST(Bfs, RootFromEveryComponent) {
  const auto& zoo = testing::unweighted_zoo();
  const Csr& g = zoo[12].graph;  // two_components
  const auto ref20 = baseline::bfs(g, 25);
  const BfsResult push = bfs_push(g, 25);
  expect_distances_match(push.dist, ref20.dist, "two_components root 25");
}

TEST(Bfs, ParentEdgesFormTree) {
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  const BfsResult r = bfs_push(g, 0);
  // Every reachable non-root vertex has a parent one level up; count edges.
  vid_t reachable = 0, tree_edges = 0;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (r.dist[static_cast<std::size_t>(v)] >= 0) ++reachable;
    if (r.parent[static_cast<std::size_t>(v)] >= 0) ++tree_edges;
  }
  EXPECT_EQ(tree_edges, reachable - 1);
}

TEST(Bfs, PushRecordsPushDirections) {
  Csr g = make_undirected(50, path_edges(50));
  const BfsResult r = bfs_push(g, 0);
  for (Direction d : r.level_dirs) EXPECT_EQ(d, Direction::Push);
  EXPECT_EQ(r.level_dirs.size(), static_cast<std::size_t>(r.levels));
}

TEST(DirectionOptimizing, SwitchesToPullOnDenseGraph) {
  // On a complete graph the first frontier already covers all edges: the
  // controller must flip to bottom-up immediately after level 1.
  Csr g = make_undirected(64, complete_edges(64));
  const BfsResult r = bfs_direction_optimizing(g, 0, {.alpha = 14.0, .beta = 1e9});
  ASSERT_GE(r.level_dirs.size(), 2u);
  EXPECT_EQ(r.level_dirs[0], Direction::Push);
  EXPECT_EQ(r.level_dirs[1], Direction::Pull);
}

TEST(DirectionOptimizing, StaysPushOnPath) {
  // Frontier size is always 1: never worth switching.
  Csr g = make_undirected(50, path_edges(50));
  const BfsResult r = bfs_direction_optimizing(g, 0);
  for (Direction d : r.level_dirs) EXPECT_EQ(d, Direction::Push);
}

TEST(DirectionOptimizing, SwitchesBackToPushWhenFrontierShrinks) {
  // Star from a leaf: level 1 = hub (push), level 2 = all other leaves
  // (big frontier → pull), then the frontier dies out.
  Csr g = make_undirected(1025, star_edges(1025));
  const BfsResult r =
      bfs_direction_optimizing(g, 1, {.alpha = 1.5, .beta = 4.0});
  ASSERT_EQ(r.dist[0], 1);
  ASSERT_EQ(r.dist[2], 2);
  // Frontiers processed: {1}, {hub}, {all other leaves}.
  EXPECT_EQ(r.levels, 3);
}

TEST(ValidateBfs, RejectsCorruptedResults) {
  Csr g = make_undirected(10, path_edges(10));
  BfsResult r = bfs_push(g, 0);
  ASSERT_TRUE(validate_bfs(g, 0, r));
  BfsResult bad = r;
  bad.dist[5] = 99;  // level skip
  EXPECT_FALSE(validate_bfs(g, 0, bad));
  bad = r;
  bad.parent[3] = 7;  // not a neighbor
  EXPECT_FALSE(validate_bfs(g, 0, bad));
  bad = r;
  bad.dist[0] = 1;  // root must be level 0
  EXPECT_FALSE(validate_bfs(g, 0, bad));
}

}  // namespace
}  // namespace pushpull
