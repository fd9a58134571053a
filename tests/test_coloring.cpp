#include <gtest/gtest.h>
#include <omp.h>

#include "core/baselines/baselines.hpp"
#include "core/coloring.hpp"
#include "gas/programs.hpp"
#include "graph_zoo.hpp"

namespace pushpull {
namespace {

using ColorParam = std::tuple<int, int>;

class ColoringProper : public ::testing::TestWithParam<ColorParam> {};

TEST_P(ColoringProper, AllSchemesProduceProperColorings) {
  const auto& zoo = testing::unweighted_zoo();
  const auto& [gi, threads] = GetParam();
  const auto& [name, g] = zoo[static_cast<std::size_t>(gi)];
  omp_set_num_threads(threads);

  ColoringOptions opt;
  opt.max_iterations = 200;

  const ColoringResult push = boman_color_push(g, opt);
  const ColoringResult pull = boman_color_pull(g, opt);
  const ColoringResult fe_push = fe_color(g, Direction::Push, opt);
  const ColoringResult fe_pull = fe_color(g, Direction::Pull, opt);
  const ColoringResult gs = gs_color(g, opt);
  const ColoringResult grs = grs_color(g, opt);
  const ColoringResult cr = cr_color(g, opt);
  // Called from inside a parallel region, the partition loops get a team of
  // one thread, which must still color all four partitions.
  ColoringOptions four = opt;
  four.num_partitions = 4;
  std::vector<ColoringResult> nested;
#pragma omp parallel num_threads(2)
#pragma omp single
  nested = {boman_color_push(g, four), boman_color_pull(g, four),
            cr_color(g, four)};

  EXPECT_TRUE(baseline::is_proper_coloring(g, push.color)) << name << "/push";
  EXPECT_TRUE(baseline::is_proper_coloring(g, pull.color)) << name << "/pull";
  EXPECT_TRUE(baseline::is_proper_coloring(g, fe_push.color)) << name << "/fe_push";
  EXPECT_TRUE(baseline::is_proper_coloring(g, fe_pull.color)) << name << "/fe_pull";
  EXPECT_TRUE(baseline::is_proper_coloring(g, gs.color)) << name << "/gs";
  EXPECT_TRUE(baseline::is_proper_coloring(g, grs.color)) << name << "/grs";
  EXPECT_TRUE(baseline::is_proper_coloring(g, cr.color)) << name << "/cr";
  for (const ColoringResult& r : nested) {
    EXPECT_TRUE(baseline::is_proper_coloring(g, r.color)) << name << "/nested";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, ColoringProper,
    ::testing::Combine(::testing::Range(0, 14), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<ColorParam>& info) {
      return pushpull::testing::unweighted_zoo()[std::get<0>(info.param)].name +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(Coloring, GreedyBaselineIsProperAndBounded) {
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    const auto color = baseline::greedy_coloring(g);
    EXPECT_TRUE(baseline::is_proper_coloring(g, color)) << name;
    for (int c : color) EXPECT_LE(c, g.max_degree()) << name;
  }
}

TEST(Coloring, BipartiteUsesTwoColorsGreedy) {
  Csr g = make_undirected(22, complete_bipartite_edges(10, 12));
  const auto color = baseline::greedy_coloring(g);
  int max_c = 0;
  for (int c : color) max_c = std::max(max_c, c);
  EXPECT_EQ(max_c, 1);
}

TEST(Coloring, CompleteGraphNeedsNColors) {
  Csr g = make_undirected(16, complete_edges(16));
  omp_set_num_threads(2);
  ColoringOptions opt;
  opt.max_iterations = 400;
  for (const auto& r : {boman_color_push(g, opt), boman_color_pull(g, opt),
                        grs_color(g, opt), cr_color(g, opt)}) {
    EXPECT_EQ(r.colors_used, 16);
  }
}

TEST(Coloring, ColorsBoundedByDegreePlusIterations) {
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    omp_set_num_threads(4);
    ColoringOptions opt;
    opt.max_iterations = 100;
    const auto r = boman_color_push(g, opt);
    EXPECT_LE(r.colors_used, g.max_degree() + opt.max_iterations + 2) << name;
  }
}

TEST(Coloring, ConvergedRunsReportZeroFinalConflicts) {
  Csr g = make_undirected(200, erdos_renyi_edges(200, 800, 13));
  omp_set_num_threads(4);
  ColoringOptions opt;
  opt.max_iterations = 500;
  const auto r = boman_color_pull(g, opt);
  ASSERT_FALSE(r.iter_conflicts.empty());
  EXPECT_EQ(r.iter_conflicts.back(), 0);
  EXPECT_EQ(r.iter_times.size(), static_cast<std::size_t>(r.iterations));
}

TEST(Coloring, FixedLRunsAllIterations) {
  // stop_on_converged = false reproduces the paper's fixed-L runs (Figure 6b
  // shows 49 iterations for plain pushing on every graph).
  Csr g = make_undirected(144, grid2d_edges(12, 12, 1.0, 7));
  ColoringOptions opt;
  opt.max_iterations = 49;
  opt.stop_on_converged = false;
  const auto r = boman_color_push(g, opt);
  EXPECT_EQ(r.iterations, 49);
}

TEST(Coloring, SinglePartitionIsSequentialGreedy) {
  // One partition = no border vertices = phase 1 is one greedy sweep in
  // vertex order, the same colors as the sequential first-fit reference.
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    const std::vector<int> want = baseline::greedy_coloring(g);
    for (Direction dir : {Direction::Push, Direction::Pull}) {
      ColoringOptions opt;
      opt.num_partitions = 1;
      const ColoringResult r = boman_color(g, dir, opt);
      EXPECT_EQ(r.color, want) << name << "/" << to_string(dir);
      EXPECT_EQ(r.iterations, 1) << name << "/" << to_string(dir);
      EXPECT_EQ(r.iter_conflicts[0], 0) << name << "/" << to_string(dir);
    }
  }
}

TEST(Coloring, CrIsSingleIterationAndConflictFree) {
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    omp_set_num_threads(4);
    const auto r = cr_color(g);
    EXPECT_EQ(r.iterations, 1) << name;
    EXPECT_EQ(r.iter_conflicts[0], 0) << name;
  }
}

TEST(Coloring, GrsFinishesFasterThanFeOnDenseGraphs) {
  // The motivation for Greedy-Switch (§5, Figure 6b): FE needs many waves on
  // dense skewed graphs; GrS cuts the tail off.
  Csr g = make_undirected(512, rmat_edges(9, 16, 71));
  omp_set_num_threads(4);
  ColoringOptions opt;
  opt.max_iterations = 4 * 512;
  const auto fe = fe_color(g, Direction::Push, opt);
  const auto grs = grs_color(g, opt);
  EXPECT_LE(grs.iterations, fe.iterations);
  EXPECT_TRUE(baseline::is_proper_coloring(g, grs.color));
}

TEST(Coloring, GasColoringProperBothDirections) {
  for (int gi : {0, 1, 5, 6}) {  // low-degree graphs (≤ 64 colors)
    const auto& [name, g] = testing::unweighted_zoo()[static_cast<std::size_t>(gi)];
    EXPECT_TRUE(baseline::is_proper_coloring(g, gas::gas_coloring(g, Direction::Push)))
        << name;
    EXPECT_TRUE(baseline::is_proper_coloring(g, gas::gas_coloring(g, Direction::Pull)))
        << name;
  }
}

TEST(Coloring, EmptyAndTinyGraphs) {
  Csr empty = make_undirected(4, EdgeList{});
  const auto r = boman_color_push(empty);
  EXPECT_TRUE(baseline::is_proper_coloring(empty, r.color));
  EXPECT_EQ(r.colors_used, 1);

  Csr single = make_undirected(1, EdgeList{});
  EXPECT_EQ(boman_color_pull(single).colors_used, 1);
}

}  // namespace
}  // namespace pushpull
