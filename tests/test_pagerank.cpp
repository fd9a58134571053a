#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <numeric>

#include "core/directed.hpp"
#include "core/incremental.hpp"
#include "core/pagerank.hpp"
#include "digraph_zoo.hpp"
#include "engine/graph_view.hpp"
#include "graph/analogs.hpp"
#include "graph/builder.hpp"
#include "graph/partition_aware.hpp"
#include "graph_zoo.hpp"
#include "la/algorithms.hpp"

namespace pushpull {
namespace {

using PrParam = std::tuple<int, int>;

constexpr double kTol = 1e-9;

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

// Parameterized over (zoo graph index, thread count).
class PageRankEquivalence
    : public ::testing::TestWithParam<PrParam> {};

// Pull folds in the reference's neighbor order, and pr_dangling_mass sums in
// vertex order on graphs of one 1024-vertex block: bitwise equal. Push and PA
// add floats through CAS loops in the order the threads choose (§4.1).
TEST_P(PageRankEquivalence, AllVariantsMatchSequential) {
  const auto& zoo = testing::unweighted_zoo();
  const auto& [gi, threads] = GetParam();
  const Csr& g = zoo[static_cast<std::size_t>(gi)].graph;
  ASSERT_LE(g.n(), 1024);
  omp_set_num_threads(threads);

  PageRankOptions opt;
  opt.iterations = 15;
  const auto ref = pagerank_seq(g, opt);
  const auto pull = pagerank_pull(g, opt);
  const auto push = pagerank_push(g, opt);
  PartitionAwareCsr pa(g, Partition1D(g.n(), threads));
  const auto push_pa = pagerank_push_pa(g, pa, opt);
  const auto la_pull = la::pagerank_la(g, opt.iterations, opt.damping, Direction::Pull);
  const auto la_push = la::pagerank_la(g, opt.iterations, opt.damping, Direction::Push);
  // Called from inside a parallel region, PA's team has one thread, which
  // must still run all four parts.
  const PartitionAwareCsr pa4(g, Partition1D(g.n(), 4));
  std::vector<double> nested_pa;
#pragma omp parallel num_threads(2)
#pragma omp single
  nested_pa = pagerank_push_pa(g, pa4, opt);

  EXPECT_EQ(pull, ref) << zoo[gi].name;
  EXPECT_LT(max_abs_diff(push, ref), 1e-12) << zoo[gi].name;
  EXPECT_LT(max_abs_diff(push_pa, ref), 1e-12) << zoo[gi].name;
  EXPECT_LT(max_abs_diff(nested_pa, ref), 1e-12) << zoo[gi].name << "/nested";
  EXPECT_LT(max_abs_diff(la_pull, ref), kTol) << zoo[gi].name;
  EXPECT_LT(max_abs_diff(la_push, ref), kTol) << zoo[gi].name;
}

INSTANTIATE_TEST_SUITE_P(
    ZooSweep, PageRankEquivalence,
    ::testing::Combine(::testing::Range(0, 14), ::testing::Values(1, 2, 4)),
    [](const ::testing::TestParamInfo<PrParam>& info) {
      return pushpull::testing::unweighted_zoo()[std::get<0>(info.param)].name +
             "_t" + std::to_string(std::get<1>(info.param));
    });

TEST(PageRank, MassConservation) {
  for (const auto& [name, g] : testing::unweighted_zoo()) {
    PageRankOptions opt;
    opt.iterations = 30;
    const auto pr = pagerank_pull(g, opt);
    const double mass = std::accumulate(pr.begin(), pr.end(), 0.0);
    EXPECT_NEAR(mass, 1.0, 1e-9) << name;
  }
}

TEST(PageRank, UniformOnRegularGraphs) {
  // On a d-regular graph PageRank is exactly uniform.
  Csr cycle = make_undirected(64, cycle_edges(64));
  const auto pr = pagerank_pull(cycle, {.iterations = 40, .damping = 0.85});
  for (double r : pr) EXPECT_NEAR(r, 1.0 / 64, 1e-12);

  Csr complete = make_undirected(24, complete_edges(24));
  const auto pr2 = pagerank_push(complete, {.iterations = 40, .damping = 0.85});
  for (double r : pr2) EXPECT_NEAR(r, 1.0 / 24, 1e-12);
}

TEST(PageRank, StarHubAnalyticValue) {
  // Star with k leaves: closed form from the stationary equations.
  const int k = 32;
  const double f = 0.85;
  Csr g = make_undirected(k + 1, star_edges(k + 1));
  const auto pr = pagerank_pull(g, {.iterations = 200, .damping = f});
  const double n = k + 1;
  // Fixpoint of hub = (1-f)/n + f·k·leaf and leaf = (1-f)/n + f·hub/k
  // resolves to hub = (1 + f·k) / (n·(1 + f)).
  const double hub = (1 + f * k) / (n * (1 + f));
  EXPECT_NEAR(pr[0], hub, 1e-9);
  for (int v = 1; v <= k; ++v) {
    EXPECT_NEAR(pr[static_cast<std::size_t>(v)], (1.0 - pr[0]) / k, 1e-9);
  }
}

TEST(PageRank, HubOutranksLeaves) {
  Csr g = make_undirected(300, barabasi_albert_edges(300, 3, 19));
  const auto pr = pagerank_pull(g, {.iterations = 50, .damping = 0.85});
  vid_t hub = 0;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  vid_t leaf = 0;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (g.degree(v) < g.degree(leaf)) leaf = v;
  }
  EXPECT_GT(pr[static_cast<std::size_t>(hub)], pr[static_cast<std::size_t>(leaf)]);
}

TEST(PageRank, DanglingVerticesKeepMass) {
  // Graph with isolated vertices: mass must still sum to 1.
  Csr g = make_undirected(8, EdgeList{Edge{0, 1, 1.0f}, Edge{2, 3, 1.0f}});
  const auto pr = pagerank_pull(g, {.iterations = 25, .damping = 0.85});
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-12);
  // Isolated vertices receive only redistribution + base, all equal.
  EXPECT_NEAR(pr[4], pr[5], 1e-15);
}

TEST(PageRank, DampingZeroGivesUniform) {
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  const auto pr = pagerank_push(g, {.iterations = 5, .damping = 0.0});
  for (double r : pr) EXPECT_NEAR(r, 1.0 / 256, 1e-12);
}

TEST(PageRank, IterationCountZeroReturnsInitial) {
  Csr g = make_undirected(50, path_edges(50));
  const auto pr = pagerank_pull(g, {.iterations = 0, .damping = 0.85});
  for (double r : pr) EXPECT_EQ(r, 1.0 / 50);
}

TEST(PageRank, PushPaMatchesPushOnBipartiteAllRemote) {
  // The all-remote extreme (§5): PA's local phase is empty.
  Csr g = make_undirected(8, complete_bipartite_edges(4, 4));
  omp_set_num_threads(2);
  PartitionAwareCsr pa(g, Partition1D(8, 2));
  EXPECT_EQ(pa.num_local_arcs(), 0);
  PageRankOptions opt;
  opt.iterations = 10;
  EXPECT_LT(max_abs_diff(pagerank_push_pa(g, pa, opt), pagerank_seq(g, opt)), kTol);
}

// True when each of `parts` equal ranges of [0, n) holds a vertex with no
// out-arcs.
bool dangling_in_every_part(const Csr& out, vid_t parts) {
  const vid_t n = out.n();
  for (vid_t p = 0; p < parts; ++p) {
    bool found = false;
    for (vid_t v = p * n / parts; v < (p + 1) * n / parts && !found; ++v) {
      found = out.degree(v) == 0;
    }
    if (!found) return false;
  }
  return true;
}

// The dangling-mass sum is the only float fold that crosses threads in the
// pull variants, and pr_dangling_mass fixes its order. So each pull variant
// must return the same bits at every team width.
TEST(PageRankThreadCount, PullVariantsBitwiseAtOneToFourThreads) {
  const int saved = omp_get_max_threads();
  const Csr rmat = ljn_analog(-2);
  const Digraph rmat_dig = build_digraph(rmat.n(), rmat_edges(13, 4, 29));
  const Digraph* sinks = nullptr;
  for (const auto& [name, g] : testing::digraph_zoo()) {
    if (name == "sink_heavy31") sinks = &g;
  }
  ASSERT_NE(sinks, nullptr);
  // Dangling mass in every thread's static range at 2, 3 and 4 threads, so
  // a sum whose order follows the threads would show.
  for (const vid_t parts : {2, 3, 4}) {
    ASSERT_TRUE(dangling_in_every_part(rmat, parts));
    ASSERT_TRUE(dangling_in_every_part(rmat_dig.out, parts));
  }
  ASSERT_GE(rmat.n(), 4 * 1024);  // several 1024-vertex blocks of the sum

  PageRankOptions opt;
  opt.iterations = 20;
  const engine::DigraphView sink_view(*sinks);
  const engine::DigraphView rmat_view(rmat_dig);
  auto run = [&] {
    return std::vector<std::pair<const char*, std::vector<double>>>{
        {"pagerank_pull", pagerank_pull(rmat, opt)},
        {"pagerank_la",
         la::pagerank_la(rmat, opt.iterations, opt.damping, Direction::Pull)},
        {"digraph rmat", pagerank_digraph(rmat_view, {}, Direction::Pull)},
        {"digraph sink_heavy31",
         pagerank_digraph(sink_view, {}, Direction::Pull)},
        {"converged rmat", pagerank_converged(engine::SymmetricView(rmat)).ranks},
        {"converged rmat digraph", pagerank_converged(rmat_view).ranks},
        {"converged sink_heavy31", pagerank_converged(sink_view).ranks},
    };
  };
  omp_set_num_threads(1);
  const auto ref = run();
  for (const int threads : {2, 3, 4}) {
    omp_set_num_threads(threads);
    const auto got = run();
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(got[k].second, ref[k].second)
          << ref[k].first << " at " << threads << " threads";
    }
  }
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace pushpull
