// Validation of the distributed traversal kernels (dist/bfs_dist.hpp,
// dist/sssp_dist.hpp, dist/bc_dist.hpp) against the shared-memory
// implementations in src/core/, across all three DistVariants at 1, 2, 4 and
// 8 ranks on both transport backends (emu threads, shm processes), on
// undirected, disconnected, and directed graphs — plus direction
// optimization for BFS, SSSP bucket relaxation and BC's forward phase, and
// the Figure 3 modeled-communication ordering (message passing beats
// pushing-RMA for every frontier algorithm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/bc.hpp"
#include "core/bfs.hpp"
#include "core/directed.hpp"
#include "core/sssp_delta.hpp"
#include "dist/bc_dist.hpp"
#include "dist/bfs_dist.hpp"
#include "dist/sssp_dist.hpp"
#include "dist_test_common.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph_zoo.hpp"

namespace pushpull::dist {
namespace {

using DistParam = std::tuple<int, DistVariant, BackendKind>;

const std::vector<int> kRanks{1, 2, 4, 8};
const std::vector<DistVariant> kVariants{
    DistVariant::PushRma, DistVariant::PullRma, DistVariant::MsgPassing};
const std::vector<BackendKind> kBackends{BackendKind::Emu, BackendKind::Shm};

std::string param_name(const ::testing::TestParamInfo<DistParam>& info) {
  std::string v = to_string(std::get<1>(info.param));
  std::replace(v.begin(), v.end(), '-', '_');
  return std::string(to_string(std::get<2>(info.param))) + "_" + v + "_r" +
         std::to_string(std::get<0>(info.param));
}

// All result assertions run in the parent (the algorithms publish results
// through shared arrays), so the full matrix works unchanged on the process
// backend; SetUp skips backends this platform cannot run.
class TraversalTest : public ::testing::TestWithParam<DistParam> {
 protected:
  void SetUp() override {
    pushpull::dist::testing::install_rank_status_probe();
    PUSHPULL_SKIP_IF_BACKEND_UNAVAILABLE(std::get<2>(GetParam()));
  }
};

#define PUSHPULL_TRAVERSAL_SUITE(suite)                                  \
  INSTANTIATE_TEST_SUITE_P(                                              \
      VariantsRanksBackends, suite,                                      \
      ::testing::Combine(::testing::ValuesIn(kRanks),                    \
                         ::testing::ValuesIn(kVariants),                 \
                         ::testing::ValuesIn(kBackends)),                \
      param_name)

// Structural check that `parent` is a valid tree for the given distances:
// the parent sits one level up and the tree edge exists in the graph.
void check_parents(const Csr& g, const Csr& gin, vid_t root,
                   const std::vector<vid_t>& dist,
                   const std::vector<vid_t>& parent, const std::string& label) {
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (v == root || dist[i] < 0) {
      EXPECT_EQ(parent[i], -1) << label << " v" << v;
      continue;
    }
    ASSERT_GE(parent[i], 0) << label << " v" << v;
    EXPECT_EQ(dist[static_cast<std::size_t>(parent[i])], dist[i] - 1)
        << label << " v" << v;
    // Tree edge parent→v must exist (an out-edge of the parent).
    EXPECT_TRUE(g.has_edge(parent[i], v)) << label << " v" << v;
    (void)gin;
  }
}

// --- BFS -----------------------------------------------------------------

class DistBfs : public TraversalTest {};

TEST_P(DistBfs, MatchesCoreOnUndirectedAndDisconnected) {
  const auto& [nranks, variant, backend] = GetParam();
  for (const auto& entry : pushpull::testing::unweighted_zoo()) {
    // two_components covers the disconnected case (root side + unreached).
    const Csr& g = entry.graph;
    const vid_t root = 0;
    const BfsResult want = bfs_push(g, root);
    BfsDistOptions opt;
    opt.variant = variant;
    opt.backend = backend;
    const BfsDistResult got = bfs_dist(g, root, nranks, opt);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    for (std::size_t v = 0; v < want.dist.size(); ++v) {
      EXPECT_EQ(got.dist[v], want.dist[v])
          << entry.name << " " << to_string(variant) << " v" << v;
    }
    EXPECT_EQ(got.levels, want.levels) << entry.name;
    check_parents(g, g, root, got.dist, got.parent,
                  entry.name + " " + to_string(variant));
  }
}

TEST_P(DistBfs, MatchesCoreOnDirectedGraphs) {
  const auto& [nranks, variant, backend] = GetParam();
  const Digraph dg = build_digraph(256, rmat_edges(8, 6, 77));
  const vid_t root = 0;
  const std::vector<vid_t> want = bfs_levels(engine::DigraphView(dg), root);
  BfsDistOptions opt;
  opt.variant = variant;
  opt.backend = backend;
  const BfsDistResult got = bfs_dist(dg.out, root, nranks, opt, &dg.in);
  ASSERT_EQ(got.dist.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(got.dist[v], want[v]) << to_string(variant) << " v" << v;
  }
  check_parents(dg.out, dg.in, root, got.dist, got.parent, to_string(variant));
}

PUSHPULL_TRAVERSAL_SUITE(DistBfs);

TEST(DistBfsDeterminism, ParentsIdenticalAcrossVariantsRanksAndBackends) {
  // Min-combined claims make the BFS tree canonical: every variant at every
  // rank count on every backend picks the minimum parent at the minimum
  // level.
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  BfsDistOptions base;
  base.variant = DistVariant::MsgPassing;
  const BfsDistResult ref = bfs_dist(g, 3, 1, base);
  for (BackendKind backend : kBackends) {
    if (pushpull::dist::testing::backend_unavailable(backend)) continue;
    for (int nranks : kRanks) {
      for (DistVariant variant : kVariants) {
        BfsDistOptions opt;
        opt.variant = variant;
        opt.backend = backend;
        const BfsDistResult got = bfs_dist(g, 3, nranks, opt);
        EXPECT_EQ(got.parent, ref.parent)
            << to_string(backend) << " " << to_string(variant) << " r" << nranks;
      }
    }
  }
}

TEST(DistBfsDirOpt, DirectionOptimizingMatchesAndGoesDense) {
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  // A low-degree but connected root: the first level must be sparse (the
  // controller only goes dense once the frontier's out-edge mass explodes).
  vid_t root = 0;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (g.degree(v) >= 1 && g.degree(v) <= 4) {
      root = v;
      break;
    }
  }
  const BfsResult want = bfs_push(g, root);
  for (BackendKind backend : kBackends) {
    if (pushpull::dist::testing::backend_unavailable(backend)) continue;
    for (DistVariant variant : {DistVariant::PushRma, DistVariant::MsgPassing}) {
      BfsDistOptions opt;
      opt.variant = variant;
      opt.backend = backend;
      opt.direction_optimizing = true;
      const BfsDistResult got = bfs_dist(g, root, 4, opt);
      EXPECT_EQ(got.dist, want.dist) << to_string(variant);
      // The skewed rmat frontier must actually trigger at least one dense
      // (bottom-up) round, or this test is vacuous.
      EXPECT_TRUE(std::any_of(got.level_modes.begin(), got.level_modes.end(),
                              [](FrontierMode m) { return m == FrontierMode::Dense; }))
          << to_string(variant);
      EXPECT_TRUE(std::any_of(got.level_modes.begin(), got.level_modes.end(),
                              [](FrontierMode m) { return m == FrontierMode::Sparse; }))
          << to_string(variant);
    }
  }
}

// --- SSSP ----------------------------------------------------------------

class DistSssp : public TraversalTest {};

TEST_P(DistSssp, MatchesCoreOnWeightedZoo) {
  const auto& [nranks, variant, backend] = GetParam();
  for (const auto& entry : pushpull::testing::weighted_zoo()) {
    const Csr& g = entry.graph;
    const weight_t delta = 2.0f;
    const DeltaSteppingResult want = sssp_delta_push(g, 0, delta);
    SsspDistOptions opt;
    opt.variant = variant;
    opt.backend = backend;
    opt.delta = delta;
    const SsspDistResult got = sssp_dist(g, 0, nranks, opt);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    for (std::size_t v = 0; v < want.dist.size(); ++v) {
      EXPECT_EQ(got.dist[v], want.dist[v])
          << entry.name << " " << to_string(variant) << " v" << v;
    }
  }
}

TEST_P(DistSssp, MatchesCoreOnDisconnectedGraph) {
  const auto& [nranks, variant, backend] = GetParam();
  // A weighted cycle plus an unreachable clique: distances on the far
  // component must stay +inf on every rank layout.
  EdgeList edges = cycle_edges(20);
  for (const Edge& e : complete_edges(10)) {
    edges.push_back(Edge{static_cast<vid_t>(e.u + 20),
                         static_cast<vid_t>(e.v + 20), 1.0f});
  }
  const Csr g = make_undirected_weighted(30, std::move(edges), 1.0f, 8.0f, 71);
  const DeltaSteppingResult want = sssp_delta_push(g, 0, 3.0f);
  SsspDistOptions opt;
  opt.variant = variant;
  opt.backend = backend;
  opt.delta = 3.0f;
  const SsspDistResult got = sssp_dist(g, 0, nranks, opt);
  EXPECT_EQ(got.dist, want.dist) << to_string(variant);
  for (vid_t v = 20; v < 30; ++v) {
    EXPECT_EQ(got.dist[static_cast<std::size_t>(v)], kInfWeight);
  }
}

TEST_P(DistSssp, MatchesCoreOnDirectedGraphs) {
  const auto& [nranks, variant, backend] = GetParam();
  const Digraph dg =
      build_digraph(256, with_uniform_weights(rmat_edges(8, 6, 91), 1.0f, 9.0f, 93),
                    /*keep_weights=*/true);
  // Core Δ-stepping push relaxes out-edges: correct on a directed out-CSR.
  const DeltaSteppingResult want = sssp_delta_push(dg.out, 0, 4.0f);
  SsspDistOptions opt;
  opt.variant = variant;
  opt.backend = backend;
  opt.delta = 4.0f;
  const SsspDistResult got = sssp_dist(dg.out, 0, nranks, opt, &dg.in);
  EXPECT_EQ(got.dist, want.dist) << to_string(variant);
}

PUSHPULL_TRAVERSAL_SUITE(DistSssp);

TEST(DistSsspDirOpt, DirectionOptimizingMatchesAndUsesBothModes) {
  // A wide bucket on a skewed graph makes the active set balloon like a BFS
  // frontier: the switch must go dense mid-bucket and come back sparse as
  // the bucket drains, with distances identical to core Δ-stepping.
  const Csr g = make_undirected_weighted(512, rmat_edges(9, 8, 21), 1.0f, 9.0f, 23);
  const weight_t delta = 64.0f;  // every relaxation lands in bucket 0
  const DeltaSteppingResult want = sssp_delta_push(g, 0, delta);
  for (BackendKind backend : kBackends) {
    if (pushpull::dist::testing::backend_unavailable(backend)) continue;
    for (DistVariant variant : {DistVariant::PushRma, DistVariant::MsgPassing}) {
      SsspDistOptions opt;
      opt.variant = variant;
      opt.backend = backend;
      opt.delta = delta;
      opt.direction_optimizing = true;
      const SsspDistResult got = sssp_dist(g, 0, 4, opt);
      EXPECT_EQ(got.dist, want.dist)
          << to_string(backend) << " " << to_string(variant);
      EXPECT_GT(got.dense_rounds, 0) << to_string(variant);
      EXPECT_GT(got.sparse_rounds, 0) << to_string(variant);
      EXPECT_EQ(got.dense_rounds + got.sparse_rounds, got.inner_iterations);
    }
  }
}

TEST(DistSsspDirOpt, PullRmaIsAlwaysDense) {
  const Csr g = make_undirected_weighted(128, rmat_edges(7, 6, 5), 1.0f, 9.0f, 7);
  SsspDistOptions opt;
  opt.variant = DistVariant::PullRma;
  const SsspDistResult got = sssp_dist(g, 0, 4, opt);
  EXPECT_EQ(got.sparse_rounds, 0);
  EXPECT_EQ(got.dense_rounds, got.inner_iterations);
}

// --- BC ------------------------------------------------------------------

class DistBc : public TraversalTest {};

void expect_bc_near(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_NEAR(got[v], want[v], 1e-9 * (1.0 + std::abs(want[v])))
        << label << " v" << v;
  }
}

TEST_P(DistBc, MatchesCoreAllSourcesOnSmallGraphs) {
  const auto& [nranks, variant, backend] = GetParam();
  // Exact (all-sources) BC on shallow small shapes; deep graphs like path50
  // would be barrier-bound here (sources × levels supersteps) and their
  // traversal structure is already covered by the BFS/SSSP zoo sweeps.
  const std::vector<std::string> shapes{"star65",         "complete24",
                                        "bipartite10x12", "tree6",
                                        "two_components", "isolated"};
  const auto& zoo = pushpull::testing::unweighted_zoo();
  for (const auto& entry : zoo) {
    if (std::find(shapes.begin(), shapes.end(), entry.name) == shapes.end()) continue;
    const BcResult want = betweenness_centrality(entry.graph);
    BcDistOptions opt;
    opt.variant = variant;
    opt.backend = backend;
    const BcDistResult got = betweenness_centrality_dist(entry.graph, nranks, opt);
    expect_bc_near(got.bc, want.bc, entry.name + " " + to_string(variant));
  }
}

TEST_P(DistBc, MatchesCoreSampledSourcesOnSkewedGraph) {
  const auto& [nranks, variant, backend] = GetParam();
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  BcOptions core_opt;
  core_opt.sources = {0, 7, 31, 100, 200, 255};
  const BcResult want = betweenness_centrality(g, core_opt);
  BcDistOptions opt;
  opt.variant = variant;
  opt.backend = backend;
  opt.sources = core_opt.sources;
  const BcDistResult got = betweenness_centrality_dist(g, nranks, opt);
  expect_bc_near(got.bc, want.bc, to_string(variant));
}

TEST_P(DistBc, DirectedPathHasAnalyticCentrality) {
  const auto& [nranks, variant, backend] = GetParam();
  // Directed path 0→1→2→3→4 with sources {0,1,2,3}: δ counts pairs (s,t)
  // with v interior on the unique s→t path. Also exercises n < nranks.
  EdgeList edges;
  for (vid_t v = 0; v + 1 < 5; ++v) edges.push_back(Edge{v, static_cast<vid_t>(v + 1), 1.0f});
  const Digraph dg = build_digraph(5, std::move(edges));
  BcDistOptions opt;
  opt.variant = variant;
  opt.backend = backend;
  opt.sources = {0, 1, 2, 3};  // not all 5: no undirected halving
  const BcDistResult got = betweenness_centrality_dist(dg.out, nranks, opt, &dg.in);
  const std::vector<double> want{0.0, 3.0, 4.0, 3.0, 0.0};
  expect_bc_near(got.bc, want, to_string(variant));
}

PUSHPULL_TRAVERSAL_SUITE(DistBc);

TEST(DistBcDirOpt, ForwardDirectionOptimizingMatchesAndUsesBothModes) {
  // The skewed rmat frontier balloons after one hop from a hub source: the
  // forward σ-counting phase must flip to bottom-up and back, with BC values
  // identical (σ sums are exact integers under either expansion).
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  BcOptions core_opt;
  core_opt.sources = {0, 31, 100, 255};
  const BcResult want = betweenness_centrality(g, core_opt);
  for (BackendKind backend : kBackends) {
    if (pushpull::dist::testing::backend_unavailable(backend)) continue;
    for (DistVariant variant : {DistVariant::PushRma, DistVariant::MsgPassing}) {
      BcDistOptions opt;
      opt.variant = variant;
      opt.backend = backend;
      opt.sources = core_opt.sources;
      opt.direction_optimizing = true;
      const BcDistResult got = betweenness_centrality_dist(g, 4, opt);
      expect_bc_near(got.bc, want.bc,
                     std::string(to_string(backend)) + " " + to_string(variant));
      EXPECT_GT(got.dense_rounds, 0) << to_string(variant);
      EXPECT_GT(got.sparse_rounds, 0) << to_string(variant);
    }
  }
}

TEST(DistBcDirOpt, PullRmaForwardIsAlwaysDense) {
  Csr g = make_undirected(128, rmat_edges(7, 6, 5));
  BcDistOptions opt;
  opt.variant = DistVariant::PullRma;
  opt.sources = {0, 1};
  const BcDistResult got = betweenness_centrality_dist(g, 4, opt);
  EXPECT_EQ(got.sparse_rounds, 0);
  EXPECT_GT(got.dense_rounds, 0);
}

// --- Counters and the Figure 3 modeled ordering ---------------------------

TEST(DistTraversalCounters, VariantsIssueTheExpectedOpClasses) {
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  Csr wg = make_undirected_weighted(256, rmat_edges(8, 8, 17), 1.0f, 9.0f, 5);

  BfsDistOptions bfs_opt;
  bfs_opt.variant = DistVariant::PushRma;
  const auto bfs_push_res = bfs_dist(g, 0, 4, bfs_opt);
  EXPECT_GT(bfs_push_res.total.rma_accs, 0u);  // packed claim accumulates
  EXPECT_EQ(bfs_push_res.total.rma_gets, 0u);
  bfs_opt.variant = DistVariant::PullRma;
  const auto bfs_pull_res = bfs_dist(g, 0, 4, bfs_opt);
  EXPECT_GT(bfs_pull_res.total.rma_gets, 0u);  // bitmap probes
  EXPECT_EQ(bfs_pull_res.total.rma_accs, 0u);
  bfs_opt.variant = DistVariant::MsgPassing;
  const auto bfs_mp_res = bfs_dist(g, 0, 4, bfs_opt);
  EXPECT_EQ(bfs_mp_res.total.rma_accs, 0u);
  EXPECT_EQ(bfs_mp_res.total.rma_gets, 0u);
  EXPECT_GT(bfs_mp_res.total.msgs_sent, 0u);

  SsspDistOptions sssp_opt;
  sssp_opt.variant = DistVariant::PushRma;
  const auto sssp_push_res = sssp_dist(wg, 0, 4, sssp_opt);
  EXPECT_GT(sssp_push_res.total.rma_accs, 0u);  // float MIN accumulates
  EXPECT_EQ(sssp_push_res.total.rma_gets, 0u);

  // §4.5's asymmetry: BC's forward push is integer FAAs (fast path), its
  // backward push is float accumulates (lock protocol) — both present.
  BcDistOptions bc_opt;
  bc_opt.variant = DistVariant::PushRma;
  bc_opt.sources = {0, 1, 2, 3};
  const auto bc_push_res = betweenness_centrality_dist(g, 4, bc_opt);
  EXPECT_GT(bc_push_res.total.rma_faas, 0u);
  EXPECT_GT(bc_push_res.total.rma_accs, 0u);
  bc_opt.variant = DistVariant::MsgPassing;
  const auto bc_mp_res = betweenness_centrality_dist(g, 4, bc_opt);
  EXPECT_EQ(bc_mp_res.total.rma_faas, 0u);
  EXPECT_EQ(bc_mp_res.total.rma_accs, 0u);
  EXPECT_EQ(bc_mp_res.total.rma_gets, 0u);
}

TEST(DistTraversalCounters, CountersAreBackendIndependent) {
  // The façade attributes every counted operation above the transport, so a
  // run produces identical RankStats on emu threads and shm processes.
  if (pushpull::dist::testing::backend_unavailable(BackendKind::Shm)) {
    GTEST_SKIP() << "shm backend unavailable";
  }
  pushpull::dist::testing::install_rank_status_probe();
  Csr g = make_undirected(256, rmat_edges(8, 8, 17));
  for (DistVariant variant : kVariants) {
    BfsDistOptions opt;
    opt.variant = variant;
    opt.backend = BackendKind::Emu;
    const auto emu = bfs_dist(g, 0, 4, opt);
    opt.backend = BackendKind::Shm;
    const auto shm = bfs_dist(g, 0, 4, opt);
    EXPECT_EQ(emu.total.msgs_sent, shm.total.msgs_sent) << to_string(variant);
    EXPECT_EQ(emu.total.bytes_sent, shm.total.bytes_sent) << to_string(variant);
    EXPECT_EQ(emu.total.rma_accs, shm.total.rma_accs) << to_string(variant);
    EXPECT_EQ(emu.total.rma_gets, shm.total.rma_gets) << to_string(variant);
    EXPECT_EQ(emu.total.rma_faas, shm.total.rma_faas) << to_string(variant);
    EXPECT_EQ(emu.total.barriers, shm.total.barriers) << to_string(variant);
  }
}

TEST(DistTraversalModel, MsgPassingBeatsPushRmaForAllFrontierAlgorithms) {
  // Figure 3's frontier-side headline, reproduced at 8 ranks: combining
  // per-destination messages beats per-edge remote accumulates.
  Csr g = make_undirected(512, rmat_edges(9, 8, 21));
  Csr wg = make_undirected_weighted(512, rmat_edges(9, 8, 21), 1.0f, 9.0f, 23);
  const CommCosts costs;

  BfsDistOptions bfs_push_opt, bfs_mp_opt;
  bfs_push_opt.variant = DistVariant::PushRma;
  bfs_mp_opt.variant = DistVariant::MsgPassing;
  const auto bfs_push_res = bfs_dist(g, 0, 8, bfs_push_opt);
  const auto bfs_mp_res = bfs_dist(g, 0, 8, bfs_mp_opt);
  EXPECT_LT(bfs_mp_res.max_comm_us, bfs_push_res.max_comm_us);

  SsspDistOptions sssp_push_opt, sssp_mp_opt;
  sssp_push_opt.variant = DistVariant::PushRma;
  sssp_mp_opt.variant = DistVariant::MsgPassing;
  const auto sssp_push_res = sssp_dist(wg, 0, 8, sssp_push_opt);
  const auto sssp_mp_res = sssp_dist(wg, 0, 8, sssp_mp_opt);
  EXPECT_LT(sssp_mp_res.max_comm_us, sssp_push_res.max_comm_us);

  BcDistOptions bc_push_opt, bc_mp_opt;
  bc_push_opt.variant = DistVariant::PushRma;
  bc_push_opt.sources = {0, 1, 2, 3};
  bc_mp_opt.variant = DistVariant::MsgPassing;
  bc_mp_opt.sources = bc_push_opt.sources;
  const auto bc_push_res = betweenness_centrality_dist(g, 8, bc_push_opt);
  const auto bc_mp_res = betweenness_centrality_dist(g, 8, bc_mp_opt);
  EXPECT_LT(bc_mp_res.max_comm_us, bc_push_res.max_comm_us);
}

}  // namespace
}  // namespace pushpull::dist
