// Directed differential suite: the engine digraph kernels against sequential
// references (baseline::bfs over the out-CSR, pagerank_seq) across a zoo of
// asymmetric digraphs and seeded R-MAT digraphs, every §5 strategy the BFS
// exposes with and without its tree, and 1, 2 and 4 threads — plus directed
// PageRank's closed-form cases, the §4.8 instr-count invariants (pull is
// zero-sync on digraphs too; PA push atomics are exactly the remote
// out-arcs) and the Digraph cross-validation diagnostics.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>
#include <string>

#include "core/baselines/baselines.hpp"
#include "core/bfs.hpp"
#include "core/directed.hpp"
#include "core/generalized_bfs.hpp"
#include "core/pagerank.hpp"
#include "digraph_zoo.hpp"
#include "engine/edge_map.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "graph/partition_aware.hpp"
#include "perf/instr.hpp"

namespace pushpull {
namespace {

using testing::digraph_zoo;

constexpr engine::StrategyKind kBfsStrategies[] = {
    engine::StrategyKind::StaticPush, engine::StrategyKind::StaticPull,
    engine::StrategyKind::GenericSwitch, engine::StrategyKind::GreedySwitch,
    engine::StrategyKind::FrontierExploit};

Digraph random_digraph(int scale, int ef, std::uint64_t seed) {
  return build_digraph(vid_t{1} << scale, rmat_edges(scale, ef, seed));
}

BfsResult static_bfs(const Digraph& g, vid_t root, engine::StrategyKind k) {
  DigraphBfsOptions opt;
  opt.strategy = k;
  return bfs_digraph_strategy(g, root, opt);
}

// What a pull round adopts: the first in-neighbor one level closer.
std::vector<vid_t> first_in_parents(const Digraph& g,
                                    const std::vector<vid_t>& dist) {
  std::vector<vid_t> parent(dist.size(), -1);
  for (vid_t v = 0; v < g.in.n(); ++v) {
    const vid_t dv = dist[static_cast<std::size_t>(v)];
    if (dv <= 0) continue;
    for (vid_t u : g.in.neighbors(v)) {
      if (dist[static_cast<std::size_t>(u)] == dv - 1) {
        parent[static_cast<std::size_t>(v)] = u;
        break;
      }
    }
  }
  return parent;
}

// A BFS tree over out-arcs: the root and the unreachable vertices have no
// parent; every other vertex's parent is an in-neighbor one level closer.
bool is_out_arc_bfs_tree(const Digraph& g, vid_t root, const BfsResult& r) {
  for (vid_t v = 0; v < g.in.n(); ++v) {
    const vid_t dv = r.dist[static_cast<std::size_t>(v)];
    const vid_t pv = r.parent[static_cast<std::size_t>(v)];
    if (v == root || dv < 0) {
      if (pv != -1) return false;
      continue;
    }
    if (pv < 0 || pv >= g.in.n()) return false;
    if (r.dist[static_cast<std::size_t>(pv)] != dv - 1) return false;
    const auto in = g.in.neighbors(v);
    if (std::find(in.begin(), in.end(), pv) == in.end()) return false;
  }
  return true;
}

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
    EXPECT_EQ(bfs_levels(engine::DigraphView(g), 0), ref) << name << "/levels";

    for (engine::StrategyKind k : kBfsStrategies) {
      DigraphBfsOptions opt;
      opt.strategy = k;
      opt.grs_threshold = 0.2;  // make the GrS tail actually trigger
      const BfsResult r = bfs_digraph_strategy(g, 0, opt);
      EXPECT_EQ(r.dist, ref) << name << "/" << engine::to_string(k);
      EXPECT_TRUE(r.parent.empty()) << name << "/" << engine::to_string(k);
      if (k == engine::StrategyKind::GreedySwitch) {
        EXPECT_GE(r.sequential_tail_levels + r.levels, 1) << name;
      }
    }
  }
}

// With the tree asked for, pull parents are exactly the first in-neighbor one
// level closer; every other strategy's parents (CAS winners, the GrS tail's
// FIFO) must form a BFS tree over out-arcs.
TEST_P(DirectedDiffSweep, BfsParentsFollowArcs) {
  omp_set_num_threads(GetParam());
  for (const auto& [name, g] : digraph_zoo()) {
    const auto ref = baseline::bfs(g.out, 0).dist;
    for (engine::StrategyKind k : kBfsStrategies) {
      DigraphBfsOptions opt;
      opt.strategy = k;
      opt.grs_threshold = 0.2;
      const BfsResult r = bfs_digraph_strategy(
          engine::DigraphView(g), 0, opt, DirOptParams{}, /*parents=*/true);
      const std::string what = name + "/" + engine::to_string(k);
      EXPECT_EQ(r.dist, ref) << what;
      ASSERT_EQ(r.parent.size(), ref.size()) << what;
      if (k == engine::StrategyKind::StaticPull) {
        EXPECT_EQ(r.parent, first_in_parents(g, ref)) << what;
      } else {
        EXPECT_TRUE(is_out_arc_bfs_tree(g, 0, r)) << what;
      }
    }
  }
}

TEST_P(DirectedDiffSweep, PageRankMatchesSequential) {
  omp_set_num_threads(GetParam());
  PageRankOptions opt;
  opt.iterations = 12;
  for (const auto& [name, g] : digraph_zoo()) {
    // The reference sums the dangling mass in vertex order, which is
    // pr_dangling_mass's order on graphs of at most one 1024-vertex block.
    ASSERT_LE(g.out.n(), 1024) << name;
    const auto ref = pagerank_seq(g, opt);
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

// --- R-MAT digraphs at 1, 2 and 4 threads ------------------------------------

class DirectedRmatSweep : public ::testing::TestWithParam<int> {};

TEST_P(DirectedRmatSweep, PageRankPushPullMatchSequential) {
  omp_set_num_threads(GetParam());
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Digraph g = random_digraph(9, 6, seed);
    PageRankOptions opt;
    opt.iterations = 15;
    const auto ref = pagerank_seq(g, opt);
    const auto push = pagerank_digraph(g, opt, Direction::Push);
    const auto pull = pagerank_digraph(g, opt, Direction::Pull);
    for (std::size_t v = 0; v < ref.size(); ++v) {
      EXPECT_NEAR(push[v], ref[v], 1e-10) << "seed " << seed;
      EXPECT_NEAR(pull[v], ref[v], 1e-10) << "seed " << seed;
    }
  }
}

TEST_P(DirectedRmatSweep, BfsPushPullMatchSequential) {
  omp_set_num_threads(GetParam());
  for (std::uint64_t seed : {4ull, 5ull}) {
    const Digraph g = random_digraph(9, 4, seed);
    const auto ref = baseline::bfs(g.out, 0).dist;
    EXPECT_EQ(static_bfs(g, 0, engine::StrategyKind::StaticPush).dist, ref)
        << "seed " << seed;
    EXPECT_EQ(static_bfs(g, 0, engine::StrategyKind::StaticPull).dist, ref)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, DirectedRmatSweep, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name("t");
                           name += std::to_string(info.param);
                           return name;
                         });

// --- Directed PageRank and BFS: closed-form cases -----------------------------

TEST(DirectedPr, MassConservation) {
  const Digraph g = random_digraph(10, 8, 77);
  PageRankOptions opt;
  opt.iterations = 30;
  const auto pr = pagerank_digraph(g, opt, Direction::Pull);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-9);
}

TEST(DirectedPr, DirectedCycleIsUniform) {
  // 0 -> 1 -> 2 -> ... -> n-1 -> 0: stationary distribution is uniform.
  const vid_t n = 32;
  EdgeList edges;
  for (vid_t v = 0; v < n; ++v) edges.push_back(Edge{v, static_cast<vid_t>((v + 1) % n), 1.f});
  const Digraph g = build_digraph(n, edges);
  const auto pr = pagerank_digraph(g, {.iterations = 100, .damping = 0.85},
                                   Direction::Push);
  for (double r : pr) EXPECT_NEAR(r, 1.0 / n, 1e-10);
}

TEST(DirectedPr, SinkAccumulatesRank) {
  // Star pointing inward: the center out-degree is 0 (dangling), leaves all
  // point at it — center rank must exceed any leaf's.
  const vid_t n = 16;
  EdgeList edges;
  for (vid_t v = 1; v < n; ++v) edges.push_back(Edge{v, 0, 1.f});
  const Digraph g = build_digraph(n, edges);
  const auto pr = pagerank_digraph(g, {.iterations = 60, .damping = 0.85},
                                   Direction::Pull);
  for (vid_t v = 1; v < n; ++v) {
    EXPECT_GT(pr[0], pr[static_cast<std::size_t>(v)]);
  }
}

TEST(DirectedBfs, ReachabilityRespectsArcDirection) {
  // Chain 0 -> 1 -> 2; from 2 nothing is reachable.
  const Digraph g = build_digraph(3, {{0, 1, 1.f}, {1, 2, 1.f}});
  const auto from0 = static_bfs(g, 0, engine::StrategyKind::StaticPush).dist;
  EXPECT_EQ(from0, (std::vector<vid_t>{0, 1, 2}));
  const auto from2 = static_bfs(g, 2, engine::StrategyKind::StaticPull).dist;
  EXPECT_EQ(from2, (std::vector<vid_t>{-1, -1, 0}));
}

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
    PageRankOptions opt;
    opt.iterations = 3;
    pagerank_digraph(g, opt, Direction::Pull, CountingInstr(pc));
    bfs_digraph_strategy(g, 0, {.strategy = engine::StrategyKind::StaticPull},
                         CountingInstr(pc));
    reachability_digraph(g, 0, Direction::Pull, CountingInstr(pc));
    EXPECT_EQ(pc.total().atomics, 0u) << name;
    EXPECT_EQ(pc.total().locks, 0u) << name;
  }
}

TEST(DirectedInstr, PullReadsAreTwicePerInArcPushLocksExactlyOutArcs) {
  // §4.8's asymmetric cost split, exact on every zoo entry: pulling scans
  // in-arcs (two counted reads each: the source's rank and its out-degree,
  // Table 1's read conflict), pushing pays one float-CAS "lock" per out-arc.
  omp_set_num_threads(4);
  PageRankOptions opt;
  opt.iterations = 2;
  for (const auto& [name, g] : digraph_zoo()) {
    PerfCounters pc(omp_get_max_threads());
    pagerank_digraph(g, opt, Direction::Pull, CountingInstr(pc));
    EXPECT_EQ(pc.total().reads,
              2 * static_cast<std::uint64_t>(opt.iterations) *
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

TEST(DirectedCost, PullReadsScaleWithInDegreeStructure) {
  // §4.8: pulling iterates incoming arcs of all vertices; pushing iterates
  // outgoing arcs of the active ones. Verify the counters see the in/out
  // split: a high-in-degree sink makes pull read from it repeatedly.
  const Digraph g = random_digraph(9, 8, 11);
  PerfCounters pc(omp_get_max_threads());
  PageRankOptions opt;
  opt.iterations = 2;
  pagerank_digraph(g, opt, Direction::Pull, CountingInstr(pc));
  // Two reads per in-arc per iteration (plus none anywhere else).
  EXPECT_EQ(pc.total().reads,
            2 * static_cast<std::uint64_t>(opt.iterations) *
                static_cast<std::uint64_t>(g.in.num_arcs()));
  pc.reset();
  pagerank_digraph(g, opt, Direction::Push, CountingInstr(pc));
  EXPECT_EQ(pc.total().locks,
            static_cast<std::uint64_t>(opt.iterations) *
                static_cast<std::uint64_t>(g.out.num_arcs()));
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
