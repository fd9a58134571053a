#include <gtest/gtest.h>
#include <omp.h>

#include <limits>

#include "core/baselines/baselines.hpp"
#include "core/generalized_bfs.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

// Initial value of every vertex but the root.
constexpr vid_t kUnset = std::numeric_limits<vid_t>::max() / 2;

// Standard BFS as a generalized BFS: ready = 1 everywhere, values = hop
// distance, op = min(target, source + 1).
GeneralizedBfsResult<vid_t> hop_bfs(const Csr& g, vid_t root, Direction dir) {
  std::vector<int> ready(static_cast<std::size_t>(g.n()), 1);
  ready[static_cast<std::size_t>(root)] = 0;
  std::vector<vid_t> values(static_cast<std::size_t>(g.n()), kUnset);
  values[static_cast<std::size_t>(root)] = 0;
  auto op = [](vid_t& target, const vid_t& source) {
    target = std::min(target, static_cast<vid_t>(source + 1));
  };
  return generalized_bfs(g, std::move(ready), std::move(values), {root}, op, dir);
}

class GenBfsSweep : public ::testing::TestWithParam<int> {};

// With the min fold every interleaving yields the same integers, so the
// values are exact at any thread count. Unreachable vertices keep their
// initial value.
TEST_P(GenBfsSweep, Ready1ReproducesStandardBfs) {
  omp_set_num_threads(GetParam());
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    const auto ref = baseline::bfs(g, 0);
    for (Direction dir : {Direction::Push, Direction::Pull}) {
      const auto r = hop_bfs(g, 0, dir);
      for (vid_t v = 0; v < g.n(); ++v) {
        const vid_t d = ref.dist[static_cast<std::size_t>(v)];
        EXPECT_EQ(r.values[static_cast<std::size_t>(v)], d < 0 ? kUnset : d)
            << name << "/" << to_string(dir) << " v" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GenBfsSweep, ::testing::Values(1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name("t");
                           name += std::to_string(info.param);
                           return name;
                         });

TEST(GenBfs, TreeAggregationWithExactReadyCounts) {
  // The BC-backward pattern (Algorithm 5): on a rooted tree, set ready[v] =
  // #children and seed the frontier with the leaves; op = sum. Every vertex
  // must end up with its subtree size.
  const int levels = 6;
  const vid_t n = (vid_t{1} << levels) - 1;
  Csr g = make_undirected(n, binary_tree_edges(levels));

  auto run = [&](Direction dir) {
    std::vector<int> ready(static_cast<std::size_t>(n), 2);  // two children
    std::vector<vid_t> frontier;
    for (vid_t v = n / 2; v < n; ++v) {  // leaves: last level
      ready[static_cast<std::size_t>(v)] = 0;
      frontier.push_back(v);
    }
    std::vector<long long> values(static_cast<std::size_t>(n), 1);  // own size
    auto op = [](long long& target, const long long& source) { target += source; };
    return generalized_bfs(g, std::move(ready), std::move(values),
                           std::move(frontier), op, dir);
  };

  for (Direction dir : {Direction::Push, Direction::Pull}) {
    const auto r = run(dir);
    // Root's subtree = whole tree; level-1 nodes = half; leaves = 1.
    EXPECT_EQ(r.values[0], n) << to_string(dir);
    EXPECT_EQ(r.values[1], (n - 1) / 2) << to_string(dir);
    EXPECT_EQ(r.values[static_cast<std::size_t>(n - 1)], 1) << to_string(dir);
    // Parent = 1 + sum of children, everywhere.
    for (vid_t v = 0; v < n / 2; ++v) {
      EXPECT_EQ(r.values[static_cast<std::size_t>(v)],
                1 + r.values[static_cast<std::size_t>(2 * v + 1)] +
                    r.values[static_cast<std::size_t>(2 * v + 2)])
          << to_string(dir);
    }
    // One wave per tree level: leaves, then each internal layer up to the root.
    EXPECT_EQ(r.levels, levels);
  }
}

TEST(GenBfs, FrontierSizesTrackWavefront) {
  Csr g = make_undirected(50, path_edges(50));
  const auto r = hop_bfs(g, 0, Direction::Push);
  // On a path the frontier is always a single vertex.
  for (std::size_t f : r.frontier_sizes) EXPECT_EQ(f, 1u);
  EXPECT_EQ(r.levels, 50);
}

TEST(GenBfs, RejectsFrontierWithNonzeroReady) {
  Csr g = make_undirected(4, path_edges(4));
  std::vector<int> ready(4, 1);  // root not marked ready
  std::vector<int> values(4, 0);
  auto op = [](int& t, const int& s) { t += s; };
  EXPECT_DEATH(generalized_bfs(g, ready, values, {0}, op, Direction::Push),
               "CHECK failed");
}

}  // namespace
}  // namespace pushpull
