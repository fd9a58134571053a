#include <gtest/gtest.h>
#include <omp.h>

#include "core/baselines/baselines.hpp"
#include "core/triangle_count.hpp"
#include "graph_zoo.hpp"
#include "perf/instr.hpp"

namespace pushpull {
namespace {

using TcParam = std::tuple<int, int>;

class TcEquivalence : public ::testing::TestWithParam<TcParam> {};

TEST_P(TcEquivalence, PushPullFastMatchBruteForce) {
  const auto& zoo = testing::unweighted_zoo();
  const auto& [gi, threads] = GetParam();
  const auto& [name, g] = zoo[static_cast<std::size_t>(gi)];
  omp_set_num_threads(threads);

  const auto ref = baseline::brute_force_triangles(g);
  const auto pull = triangle_count_pull(g);
  const auto push = triangle_count_push(g);
  const auto fast = triangle_count_fast(g);
  ASSERT_EQ(pull.size(), ref.size());
  for (vid_t v = 0; v < g.n(); ++v) {
    EXPECT_EQ(pull[static_cast<std::size_t>(v)], ref[static_cast<std::size_t>(v)])
        << name << "/pull v" << v;
    EXPECT_EQ(push[static_cast<std::size_t>(v)], ref[static_cast<std::size_t>(v)])
        << name << "/push v" << v;
    EXPECT_EQ(fast[static_cast<std::size_t>(v)], ref[static_cast<std::size_t>(v)])
        << name << "/fast v" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, TcEquivalence,
    ::testing::Combine(::testing::Range(0, 14), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<TcParam>& info) {
      return pushpull::testing::unweighted_zoo()[std::get<0>(info.param)].name +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(TriangleCount, CompleteGraphClosedForm) {
  // Every vertex of K_n is in C(n-1, 2) triangles.
  const vid_t n = 16;
  Csr g = make_undirected(n, complete_edges(n));
  const auto tc = triangle_count_pull(g);
  for (vid_t v = 0; v < n; ++v) {
    EXPECT_EQ(tc[static_cast<std::size_t>(v)], (n - 1) * (n - 2) / 2);
  }
  EXPECT_EQ(total_triangles(tc), n * (n - 1) * (n - 2) / 6);
}

TEST(TriangleCount, TriangleFreeGraphsAreZero) {
  for (auto g : {make_undirected(64, cycle_edges(64)),
                 make_undirected(65, star_edges(65)),
                 make_undirected(22, complete_bipartite_edges(10, 12)),
                 make_undirected(63, binary_tree_edges(6)),
                 make_undirected(144, grid2d_edges(12, 12, 1.0, 7))}) {
    const auto tc = triangle_count_push(g);
    for (auto c : tc) EXPECT_EQ(c, 0);
  }
}

TEST(TriangleCount, SingleTriangle) {
  Csr g = make_undirected(3, EdgeList{Edge{0, 1, 1.f}, Edge{1, 2, 1.f}, Edge{0, 2, 1.f}});
  for (const auto& tc :
       {triangle_count_pull(g), triangle_count_push(g), triangle_count_fast(g)}) {
    EXPECT_EQ(tc[0], 1);
    EXPECT_EQ(tc[1], 1);
    EXPECT_EQ(tc[2], 1);
    EXPECT_EQ(total_triangles(tc), 1);
  }
}

TEST(TriangleCount, PushUsesAtomicsPullDoesNot) {
  // §4.2: pulling removes atomics completely; pushing needs FAA per hit.
  Csr g = make_undirected(24, complete_edges(24));
  PerfCounters pc(omp_get_max_threads());

  triangle_count_pull(g, CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics, 0u);
  const auto pull_writes = pc.total().writes;
  EXPECT_EQ(pull_writes, 24u);  // one write per vertex

  pc.reset();
  triangle_count_push(g, CountingInstr(pc));
  EXPECT_GT(pc.total().atomics, 0u);
  // Two FAAs per discovered (ordered-pair) triangle instance.
  const std::int64_t instances = 24 * (23 * 22 / 2);  // per-center pairs hit
  EXPECT_EQ(pc.total().atomics, static_cast<std::uint64_t>(2 * instances));
}

TEST(TriangleCount, ReadCountsSimilarAcrossVariants) {
  // §4.2: both variants generate the same O(m·d̂) read conflicts.
  Csr g = make_undirected(256, rmat_edges(8, 6, 33));
  PerfCounters pc(omp_get_max_threads());
  triangle_count_pull(g, CountingInstr(pc));
  const auto pull_reads = pc.total().reads;
  pc.reset();
  triangle_count_push(g, CountingInstr(pc));
  EXPECT_EQ(pc.total().reads, pull_reads);
}

TEST(TriangleCount, TotalTrianglesDividesByThree) {
  Csr g = make_undirected(200, erdos_renyi_edges(200, 800, 13));
  const auto tc = triangle_count_fast(g);
  const std::int64_t total = total_triangles(tc);
  EXPECT_GT(total, 0);  // ER with d̄=8 at n=200 almost surely has triangles
}

}  // namespace
}  // namespace pushpull
