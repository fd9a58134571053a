// Directed differential suite: the engine digraph kernels against sequential
// references (BFS over the out-CSR, pagerank_digraph_seq) across a zoo of
// asymmetric digraphs, every §5 strategy the directed BFS exposes, and 1 vs 4
// threads — plus the §4.8 instr-count invariants (pull is zero-sync on
// digraphs too; PA push atomics are exactly the remote out-arcs) and the
// Digraph cross-validation diagnostics.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstdint>
#include <numeric>
#include <queue>

#include "core/baselines/baselines.hpp"
#include "core/directed.hpp"
#include "core/generalized_bfs.hpp"
#include "digraph_zoo.hpp"
#include "engine/edge_map.hpp"
#include "graph/partition.hpp"
#include "graph/partition_aware.hpp"
#include "perf/instr.hpp"

namespace pushpull {
namespace {

using testing::digraph_zoo;

// Counts arc landings; remote-half updates pay the sync policy.
struct AddOne {
  std::int64_t* acc;
  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    ctx.add(acc[d], std::int64_t{1});
    return false;
  }
};

std::vector<std::uint8_t> seq_reachable(const Digraph& g, vid_t root) {
  std::vector<std::uint8_t> vis(static_cast<std::size_t>(g.out.n()), 0);
  std::queue<vid_t> q;
  vis[static_cast<std::size_t>(root)] = 1;
  q.push(root);
  while (!q.empty()) {
    const vid_t v = q.front();
    q.pop();
    for (vid_t u : g.out.neighbors(v)) {
      if (!vis[static_cast<std::size_t>(u)]) {
        vis[static_cast<std::size_t>(u)] = 1;
        q.push(u);
      }
    }
  }
  return vis;
}

// --- BFS: every strategy must reproduce sequential BFS -----------------------

class DirectedDiffSweep : public ::testing::TestWithParam<int> {};

TEST_P(DirectedDiffSweep, BfsMatchesSequential) {
  omp_set_num_threads(GetParam());
  for (const auto& [name, g] : digraph_zoo()) {
    const auto ref = baseline::bfs(g.out, 0).dist;
    EXPECT_EQ(bfs_digraph(g, 0, Direction::Push), ref) << name << "/push";
    EXPECT_EQ(bfs_digraph(g, 0, Direction::Pull), ref) << name << "/pull";

    for (engine::StrategyKind k :
         {engine::StrategyKind::StaticPush, engine::StrategyKind::StaticPull,
          engine::StrategyKind::GenericSwitch,
          engine::StrategyKind::GreedySwitch,
          engine::StrategyKind::FrontierExploit}) {
      DigraphBfsOptions opt;
      opt.strategy = k;
      opt.grs_threshold = 0.2;  // make the GrS tail actually trigger
      const DigraphBfsResult r = bfs_digraph_strategy(g, 0, opt);
      EXPECT_EQ(r.dist, ref) << name << "/" << engine::to_string(k);
      if (k == engine::StrategyKind::GreedySwitch) {
        EXPECT_GE(r.sequential_tail_levels + r.levels, 1) << name;
      }
    }
  }
}

TEST_P(DirectedDiffSweep, PageRankMatchesSequential) {
  omp_set_num_threads(GetParam());
  DirectedPageRankOptions opt;
  opt.iterations = 12;
  for (const auto& [name, g] : digraph_zoo()) {
    // The reference sums the dangling mass in vertex order, which is
    // pr_dangling_mass's order on graphs of at most one 1024-vertex block.
    ASSERT_LE(g.out.n(), 1024) << name;
    const auto ref = pagerank_digraph_seq(g, opt);
    const auto pull = pagerank_digraph(g, opt, Direction::Pull);
    const auto push = pagerank_digraph(g, opt, Direction::Push);
    ASSERT_EQ(pull.size(), ref.size());
    // Pull folds each destination's in-arcs in order: bitwise at any thread
    // count. Push's float adds are CAS loops that land in the order the
    // threads choose (§4.1). Documented tolerance: 1e-12.
    for (std::size_t v = 0; v < ref.size(); ++v) {
      EXPECT_EQ(pull[v], ref[v]) << name << " v" << v;
      EXPECT_NEAR(push[v], ref[v], 1e-12) << name << " v" << v;
    }
  }
}

TEST_P(DirectedDiffSweep, ReachabilityMatchesSequential) {
  omp_set_num_threads(GetParam());
  for (const auto& [name, g] : digraph_zoo()) {
    const auto ref = seq_reachable(g, 0);
    EXPECT_EQ(reachability_digraph(g, 0, Direction::Push), ref)
        << name << "/push";
    EXPECT_EQ(reachability_digraph(g, 0, Direction::Pull), ref)
        << name << "/pull";
  }
}

TEST_P(DirectedDiffSweep, SccMatchesPairwiseReachability) {
  omp_set_num_threads(GetParam());
  for (const auto& [name, g] : digraph_zoo()) {
    const vid_t n = g.out.n();
    const auto scc = scc_digraph(g);
    // Ids must form a partition: every vertex labeled, ids dense in [0, max].
    vid_t max_id = -1;
    for (vid_t v = 0; v < n; ++v) {
      ASSERT_GE(scc[static_cast<std::size_t>(v)], 0) << name;
      max_id = std::max(max_id, scc[static_cast<std::size_t>(v)]);
    }
    // Ground truth: u ~ v iff mutually reachable.
    std::vector<std::vector<std::uint8_t>> reach;
    reach.reserve(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) reach.push_back(seq_reachable(g, v));
    for (vid_t u = 0; u < n; ++u) {
      for (vid_t v = 0; v < n; ++v) {
        const bool same = scc[static_cast<std::size_t>(u)] ==
                          scc[static_cast<std::size_t>(v)];
        const bool mutual = reach[static_cast<std::size_t>(u)]
                                 [static_cast<std::size_t>(v)] &&
                            reach[static_cast<std::size_t>(v)]
                                 [static_cast<std::size_t>(u)];
        EXPECT_EQ(same, mutual) << name << " u" << u << " v" << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DirectedDiffSweep, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name("t");
                           name += std::to_string(info.param);
                           return name;
                         });

// --- Generalized BFS over a DigraphView ---------------------------------------

TEST(DirectedGenBfs, DagPathCountsWithInDegreeReadyCounts) {
  // Diamond + tail: 0→{1,2}→3→4. ready = in-degree makes the wavefront
  // topological; op = sum counts source-to-vertex paths.
  BuildOptions opts;
  const Digraph g = build_digraph(
      5, {{0, 1, 1.f}, {0, 2, 1.f}, {1, 3, 1.f}, {2, 3, 1.f}, {3, 4, 1.f}},
      opts, "diamond5");
  auto run = [&](Direction dir) {
    std::vector<int> ready(5);
    for (vid_t v = 0; v < 5; ++v) ready[static_cast<std::size_t>(v)] = g.in.degree(v);
    std::vector<std::int64_t> values{1, 0, 0, 0, 0};
    auto op = [](std::int64_t& t, const std::int64_t& s) { t += s; };
    return generalized_bfs(g, std::move(ready), std::move(values), {0}, op, dir);
  };
  for (Direction dir : {Direction::Push, Direction::Pull}) {
    const auto r = run(dir);
    EXPECT_EQ(r.values, (std::vector<std::int64_t>{1, 1, 1, 2, 2}))
        << to_string(dir);
    EXPECT_EQ(r.levels, 4) << to_string(dir);  // {0} {1,2} {3} {4}
    EXPECT_EQ(r.frontier_sizes, (std::vector<std::size_t>{1, 2, 1, 1}))
        << to_string(dir);
  }
}

// --- §4.8 instr-count invariants on digraphs ----------------------------------

TEST(DirectedInstr, PullModesAreStructurallyZeroSync) {
  omp_set_num_threads(4);
  for (const auto& [name, g] : digraph_zoo()) {
    PerfCounters pc(omp_get_max_threads());
    DirectedPageRankOptions opt;
    opt.iterations = 3;
    pagerank_digraph(g, opt, Direction::Pull, CountingInstr(pc));
    bfs_digraph(g, 0, Direction::Pull, CountingInstr(pc));
    reachability_digraph(g, 0, Direction::Pull, CountingInstr(pc));
    EXPECT_EQ(pc.total().atomics, 0u) << name;
    EXPECT_EQ(pc.total().locks, 0u) << name;
  }
}

TEST(DirectedInstr, PullReadsAreExactlyInArcsPushLocksExactlyOutArcs) {
  // §4.8's asymmetric cost split, exact on every zoo entry: pulling scans
  // in-arcs (one counted read each), pushing pays one float-CAS "lock" per
  // out-arc.
  omp_set_num_threads(4);
  DirectedPageRankOptions opt;
  opt.iterations = 2;
  for (const auto& [name, g] : digraph_zoo()) {
    PerfCounters pc(omp_get_max_threads());
    pagerank_digraph(g, opt, Direction::Pull, CountingInstr(pc));
    EXPECT_EQ(pc.total().reads,
              static_cast<std::uint64_t>(opt.iterations) *
                  static_cast<std::uint64_t>(g.in.num_arcs()))
        << name;
    pc.reset();
    pagerank_digraph(g, opt, Direction::Push, CountingInstr(pc));
    EXPECT_EQ(pc.total().locks,
              static_cast<std::uint64_t>(opt.iterations) *
                  static_cast<std::uint64_t>(g.out.num_arcs()))
        << name;
    EXPECT_EQ(pc.total().atomics, 0u) << name;
  }
}

TEST(DirectedInstr, PaPushAtomicsAreExactlyRemoteOutArcs) {
  // Algorithm 8 over a digraph's out-CSR: the local half is plain writes,
  // every remote out-arc pays exactly one atomic.
  omp_set_num_threads(4);
  const Digraph& g = digraph_zoo().back().graph;  // rmat9
  const vid_t n = g.out.n();
  const PartitionAwareCsr pa(g.out, Partition1D(n, 4));
  std::vector<std::int64_t> acc(static_cast<std::size_t>(n), 0);
  PerfCounters pc(omp_get_max_threads());
  engine::Workspace ws(n);
  engine::dense_push_pa(pa, ws, AddOne{acc.data()}, {}, CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics,
            static_cast<std::uint64_t>(pa.num_remote_arcs()));
  // Every out-arc landed exactly once, local or remote.
  EXPECT_EQ(std::accumulate(acc.begin(), acc.end(), std::int64_t{0}),
            static_cast<std::int64_t>(g.out.num_arcs()));
}

// --- Digraph cross-validation diagnostics -------------------------------------

TEST(DigraphValidate, AcceptsEveryZooEntry) {
  for (const auto& [name, g] : digraph_zoo()) {
    validate_digraph(g, name);  // must not abort
  }
}

TEST(DigraphValidateDeath, ArcCountMismatchNamesTheGraph) {
  BuildOptions nosym;
  nosym.symmetrize = false;
  Digraph bad;
  bad.out = build_csr(4, {{0, 1, 1.f}, {1, 2, 1.f}}, nosym);
  bad.in = build_csr(4, {}, nosym);
  EXPECT_DEATH(validate_digraph(bad, "badgraph"),
               "badgraph.*arc counts differ");
}

TEST(DigraphValidateDeath, InDegreeMismatchIsDetected) {
  BuildOptions nosym;
  nosym.symmetrize = false;
  Digraph bad;
  bad.out = build_csr(3, {{0, 1, 1.f}, {1, 2, 1.f}}, nosym);
  bad.in = build_csr(3, {{0, 1, 1.f}, {1, 2, 1.f}}, nosym);  // not a transpose
  EXPECT_DEATH(validate_digraph(bad, "skewed"),
               "skewed.*in-degrees disagree");
}

TEST(DigraphValidateDeath, TransposedMembershipMismatchIsDetected) {
  BuildOptions nosym;
  nosym.symmetrize = false;
  Digraph bad;
  bad.out = build_csr(4, {{0, 1, 1.f}, {2, 3, 1.f}}, nosym);
  // In-degrees match (one arc into 1, one into 3) but sources are swapped.
  bad.in = build_csr(4, {{1, 2, 1.f}, {3, 0, 1.f}}, nosym);
  EXPECT_DEATH(validate_digraph(bad, "crossed"),
               "crossed.*not a transpose");
}

}  // namespace
}  // namespace pushpull
