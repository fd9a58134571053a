// Differential tests for the engine kernels (BFS, SSSP-Δ, BC) across the full
// graph zoo × their engine policies, asserted against the sequential
// references in core/baselines/baselines.hpp.
//
// Determinism tiers:
//   - integer results and float-min fixpoints (BFS dist and pull parents, SSSP
//     dist) are bit-identical to the reference at any thread count;
//   - BC folds floats in a different order than sequential Brandes, so it is
//     tolerance-checked; pull/pull BC is bit-identical across thread counts.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/baselines/baselines.hpp"
#include "core/bc.hpp"
#include "core/bfs.hpp"
#include "core/sssp_delta.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

class EngineDifferential : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    saved_threads_ = omp_get_max_threads();
    omp_set_num_threads(GetParam());
  }
  void TearDown() override { omp_set_num_threads(saved_threads_); }

  int saved_threads_ = 1;
};

void expect_eq_vec(const std::vector<vid_t>& got, const std::vector<vid_t>& want,
                   const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " index " << i;
  }
}

// Pull adopts v's first in-neighbor in adjacency order that is one level
// closer to the root: derived here from the reference distances.
std::vector<vid_t> first_parents(const Csr& g, const std::vector<vid_t>& dist) {
  std::vector<vid_t> parent(dist.size(), -1);
  for (vid_t v = 0; v < g.n(); ++v) {
    const vid_t dv = dist[static_cast<std::size_t>(v)];
    if (dv <= 0) continue;
    for (vid_t u : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] == dv - 1) {
        parent[static_cast<std::size_t>(v)] = u;
        break;
      }
    }
  }
  return parent;
}

TEST_P(EngineDifferential, BfsMatchesSequentialOnZoo) {
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    const baseline::BfsRef ref = baseline::bfs(g, 0);
    const int depth = *std::max_element(ref.dist.begin(), ref.dist.end());
    const BfsResult push = bfs_push(g, 0);
    const BfsResult pull = bfs_pull(g, 0);
    const BfsResult diropt = bfs_direction_optimizing(g, 0);
    // Hop distances are race-free values: bit-identical at any thread count.
    expect_eq_vec(push.dist, ref.dist, name + "/push dist");
    expect_eq_vec(pull.dist, ref.dist, name + "/pull dist");
    expect_eq_vec(diropt.dist, ref.dist, name + "/diropt dist");
    // Every round counts, the last one too, whose scan finds nothing new.
    EXPECT_EQ(push.levels, depth + 1) << name;
    EXPECT_EQ(pull.levels, depth + 1) << name;
    expect_eq_vec(pull.parent, first_parents(g, ref.dist), name + "/pull parent");
    // Push parents are race winners; require a valid BFS tree instead.
    EXPECT_TRUE(validate_bfs(g, 0, push)) << name;
    EXPECT_TRUE(validate_bfs(g, 0, diropt)) << name;
  }
}

TEST_P(EngineDifferential, SsspMatchesDijkstraOnZoo) {
  for (const auto& [name, g] : testing::weighted_zoo()) {
    const std::vector<weight_t> ref = baseline::dijkstra(g, 0);
    for (weight_t delta : {4.0f, 64.0f}) {
      const DeltaSteppingResult push = sssp_delta_push(g, 0, delta);
      const DeltaSteppingResult pull = sssp_delta_pull(g, 0, delta);
      // With non-negative weights the minimum float path sum is unique, so
      // relaxation in any order reaches the reference bits.
      ASSERT_EQ(push.dist.size(), ref.size()) << name;
      for (std::size_t v = 0; v < ref.size(); ++v) {
        ASSERT_EQ(push.dist[v], ref[v]) << name << " d=" << delta << " v" << v;
        ASSERT_EQ(pull.dist[v], ref[v]) << name << " d=" << delta << " v" << v;
      }
    }
  }
}

TEST_P(EngineDifferential, BcMatchesBrandesOnZoo) {
  const std::vector<vid_t> sources{0, 3, 7};
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    if (g.n() <= 7) continue;
    const std::vector<double> ref = baseline::brandes_bc(g, sources);
    for (Direction fwd : {Direction::Push, Direction::Pull}) {
      for (Direction bwd : {Direction::Push, Direction::Pull}) {
        BcOptions opt;
        opt.sources = sources;
        opt.forward = fwd;
        opt.backward = bwd;
        const BcResult got = betweenness_centrality(g, opt);
        const std::string label = name + "/" + to_string(fwd) + "-" + to_string(bwd);
        ASSERT_EQ(got.bc.size(), ref.size()) << label;
        for (std::size_t v = 0; v < ref.size(); ++v) {
          ASSERT_NEAR(got.bc[v], ref[v], 1e-9 * (1.0 + std::abs(ref[v])))
              << label << " index " << v;
        }
      }
    }
  }
}

// Pull/pull BC folds every float sum in adjacency order, so its bits do not
// depend on the team width.
TEST(EngineDeterminism, PullPullBcBitwiseAcrossThreadCounts) {
  const int saved = omp_get_max_threads();
  BcOptions opt;
  opt.sources = {0, 3, 7};
  opt.forward = Direction::Pull;
  opt.backward = Direction::Pull;
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    if (g.n() <= 7) continue;
    omp_set_num_threads(1);
    const BcResult one = betweenness_centrality(g, opt);
    omp_set_num_threads(4);
    const BcResult four = betweenness_centrality(g, opt);
    EXPECT_EQ(four.bc, one.bc) << name;
  }
  omp_set_num_threads(saved);
}

INSTANTIATE_TEST_SUITE_P(Threads, EngineDifferential, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // operator+ on the literal trips GCC-12's
                           // -Wrestrict false positive; append instead.
                           std::string name("t");
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace pushpull
