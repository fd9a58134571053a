// Cross-checks the instrumentation layer against the PRAM analysis (§4):
// the measured operation counts of each kernel must match the paper's
// conflict/atomic/lock accounting in *shape* (who has zero, who scales with
// what), reproducing the qualitative content of Table 1.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "core/bc.hpp"
#include "core/bfs.hpp"
#include "core/coloring.hpp"
#include "core/connected_components.hpp"
#include "core/directed.hpp"
#include "core/kcore.hpp"
#include "core/mst_boruvka.hpp"
#include "core/pagerank.hpp"
#include "core/sssp_delta.hpp"
#include "engine/edge_map.hpp"
#include "core/triangle_count.hpp"
#include "graph/builder.hpp"
#include "graph/partition_aware.hpp"
#include "graph_zoo.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"

namespace pushpull {
namespace {

class InstrFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    omp_set_num_threads(4);
    g_ = make_undirected(256, rmat_edges(8, 8, 17));
    wg_ = make_undirected_weighted(256, rmat_edges(8, 8, 17), 1.f, 10.f, 99);
  }

  CounterBlock run_pr(Direction dir, int iters = 5) {
    PerfCounters pc(omp_get_max_threads());
    PageRankOptions opt;
    opt.iterations = iters;
    if (dir == Direction::Push) {
      pagerank_push(g_, opt, CountingInstr(pc));
    } else {
      pagerank_pull(g_, opt, CountingInstr(pc));
    }
    return pc.total();
  }

  Csr g_;
  Csr wg_;
};

TEST_F(InstrFixture, PageRankPushLocksAreLmPullHasNone) {
  const int L = 5;
  const CounterBlock push = run_pr(Direction::Push, L);
  const CounterBlock pull = run_pr(Direction::Pull, L);
  // §4.1: O(Lm) locks when pushing (one per edge per iteration), zero when
  // pulling; zero integer atomics in both.
  EXPECT_EQ(push.locks, static_cast<std::uint64_t>(L) * g_.num_arcs());
  EXPECT_EQ(pull.locks, 0u);
  EXPECT_EQ(push.atomics, 0u);
  EXPECT_EQ(pull.atomics, 0u);
  // Pulling reads both the neighbor rank and its degree: 2 reads per edge
  // per iteration plus the dangling scan.
  EXPECT_GE(pull.reads, static_cast<std::uint64_t>(L) * 2 * g_.num_arcs());
  EXPECT_GT(pull.writes, 0u);
}

TEST_F(InstrFixture, PageRankPaMovesLocksToCutEdges) {
  PerfCounters pc(omp_get_max_threads());
  const int threads = 4;
  PartitionAwareCsr pa(g_, Partition1D(g_.n(), threads));
  PageRankOptions opt;
  opt.iterations = 3;
#pragma omp parallel num_threads(1)
  {
  }
  pagerank_push_pa(g_, pa, opt, CountingInstr(pc));
  const CounterBlock t = pc.total();
  // Exactly one lock per remote arc per iteration — strictly fewer than
  // plain pushing's one per arc.
  EXPECT_EQ(t.locks, static_cast<std::uint64_t>(opt.iterations) * pa.num_remote_arcs());
  EXPECT_LT(t.locks, static_cast<std::uint64_t>(opt.iterations) * g_.num_arcs());
  // Local updates became plain writes.
  EXPECT_GE(t.writes, static_cast<std::uint64_t>(opt.iterations) * pa.num_local_arcs());
}

TEST_F(InstrFixture, BfsPushAtomicsBoundedByArcsPullHasNone) {
  PerfCounters pc(omp_get_max_threads());
  bfs_push(g_, 0, CountingInstr(pc));
  const CounterBlock push = pc.total();
  EXPECT_GT(push.atomics, 0u);
  EXPECT_LE(push.atomics, static_cast<std::uint64_t>(g_.num_arcs()));
  EXPECT_EQ(push.locks, 0u);

  pc.reset();
  bfs_pull(g_, 0, CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics, 0u);

  // The O(D·m) pull read blowup (§4.3) shows on *high-diameter* graphs (the
  // paper calls out rca): every level rescans the unvisited remainder. On a
  // grid, pull must read far more than push's one pass over each edge.
  Csr road = make_undirected(32 * 32, grid2d_edges(32, 32, 1.0, 5));
  pc.reset();
  bfs_push(road, 0, CountingInstr(pc));
  const std::uint64_t push_reads = pc.total().reads;
  pc.reset();
  bfs_pull(road, 0, CountingInstr(pc));
  EXPECT_GT(pc.total().reads, 5 * push_reads);
}

TEST_F(InstrFixture, SsspPushCasPerImprovingRelaxationPullNone) {
  PerfCounters pc(omp_get_max_threads());
  sssp_delta_push(wg_, 0, 4.0f, CountingInstr(pc));
  const CounterBlock push = pc.total();
  EXPECT_GT(push.atomics, 0u);
  EXPECT_EQ(push.locks, 0u);

  pc.reset();
  sssp_delta_pull(wg_, 0, 4.0f, CountingInstr(pc));
  const CounterBlock pull = pc.total();
  EXPECT_EQ(pull.atomics, 0u);
  EXPECT_GT(pull.reads, push.reads);  // §4.4 read-conflict blowup
}

TEST_F(InstrFixture, ColoringPushAtomicsPullPlainWrites) {
  ColoringOptions opt;
  opt.max_iterations = 50;
  PerfCounters pc(omp_get_max_threads());
  boman_color_push(g_, opt, CountingInstr(pc));
  const CounterBlock push = pc.total();

  pc.reset();
  boman_color_pull(g_, opt, CountingInstr(pc));
  const CounterBlock pull = pc.total();

  // Push resolves conflicts remotely via atomics; pull locally via writes.
  EXPECT_EQ(pull.atomics, 0u);
  EXPECT_GE(push.atomics, 0u);  // zero only if no conflicts occurred
  EXPECT_EQ(push.locks, 0u);
  EXPECT_EQ(pull.locks, 0u);
}

TEST_F(InstrFixture, MstPushAtomicMinsPullPrivateWrites) {
  PerfCounters pc(omp_get_max_threads());
  mst_boruvka(wg_, Direction::Push, CountingInstr(pc));
  const CounterBlock push = pc.total();
  EXPECT_GT(push.atomics, 0u);

  pc.reset();
  mst_boruvka(wg_, Direction::Pull, CountingInstr(pc));
  const CounterBlock pull = pc.total();
  EXPECT_EQ(pull.atomics, 0u);
  EXPECT_GT(pull.writes, 0u);
}

TEST_F(InstrFixture, BcBackwardPushLocksPullNone) {
  BcOptions push_opt;
  push_opt.sources = {0, 11, 42};
  push_opt.forward = Direction::Push;
  push_opt.backward = Direction::Push;
  PerfCounters pc(omp_get_max_threads());
  betweenness_centrality(g_, push_opt, CountingInstr(pc));
  const CounterBlock push = pc.total();
  // Forward phase: integer atomics (CAS + σ FAA). Backward: float locks.
  EXPECT_GT(push.atomics, 0u);
  EXPECT_GT(push.locks, 0u);

  BcOptions pull_opt = push_opt;
  pull_opt.forward = Direction::Pull;
  pull_opt.backward = Direction::Pull;
  pc.reset();
  betweenness_centrality(g_, pull_opt, CountingInstr(pc));
  const CounterBlock pull = pc.total();
  EXPECT_EQ(pull.atomics, 0u);
  EXPECT_EQ(pull.locks, 0u);
}

// --- engine-level counter invariants (the §3.8 defining properties) ----------

// A functor exercising every context primitive a pull or push kernel uses.
struct AllPrimsFunctor {
  std::int64_t* int_acc;
  double* dbl_acc;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    ctx.load(int_acc[s]);
    ctx.add(int_acc[d], std::int64_t{1});
    ctx.add(dbl_acc[d], 0.5);
    ctx.min(int_acc[d], std::int64_t{-1});
    std::int64_t expected = -1;
    ctx.claim(int_acc[d], expected, std::int64_t{-2});
    return false;
  }
};

// §3.8's defining property: a pull-mode edge_map can not issue a single
// atomic or lock, no matter what the functor does — PlainCtx is the only
// context pull traversals ever see.
TEST_F(InstrFixture, EnginePullModesIssueZeroSyncOps) {
  engine::Workspace ws(g_.n());
  std::vector<std::int64_t> ints(static_cast<std::size_t>(g_.n()), 0);
  std::vector<double> dbls(static_cast<std::size_t>(g_.n()), 0.0);
  PerfCounters pc(omp_get_max_threads());

  engine::dense_pull(g_, ws, AllPrimsFunctor{ints.data(), dbls.data()},
                     engine::EdgeMapOptions{}, CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics, 0u);
  EXPECT_EQ(pc.total().locks, 0u);
  EXPECT_GT(pc.total().reads, 0u);
  EXPECT_GT(pc.total().writes, 0u);

  pc.reset();
  std::vector<vid_t> dests{0, 5, 17};
  engine::sparse_pull(g_, ws, std::span<const vid_t>(dests),
                      AllPrimsFunctor{ints.data(), dbls.data()},
                      engine::EdgeMapOptions{}, CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics, 0u);
  EXPECT_EQ(pc.total().locks, 0u);
}

// Integer-add push functor: counts exactly one synchronized update per edge.
struct IntAddFunctor {
  std::int64_t* acc;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    ctx.add(acc[d], std::int64_t{1});
    return false;
  }
};

// Push mode's atomics must equal the cross-owner updates: under the
// partition-aware split, exactly the remote arcs; under the flat CSR, every
// arc is potentially cross-owner and pays.
TEST_F(InstrFixture, EnginePushAtomicsEqualCrossOwnerUpdates) {
  const PartitionAwareCsr pa(g_, Partition1D(g_.n(), 4));
  engine::Workspace ws(g_.n());
  std::vector<std::int64_t> acc(static_cast<std::size_t>(g_.n()), 0);
  PerfCounters pc(omp_get_max_threads());

  engine::dense_push_pa(pa, ws, IntAddFunctor{acc.data()},
                        engine::EdgeMapOptions{}, CountingInstr(pc));
  // Local-half updates are thread-owned plain writes; only remote arcs sync.
  EXPECT_EQ(pc.total().atomics,
            static_cast<std::uint64_t>(pa.num_remote_arcs()));
  EXPECT_EQ(pc.total().writes, static_cast<std::uint64_t>(pa.num_local_arcs()));
  EXPECT_EQ(pc.total().locks, 0u);

  pc.reset();
  engine::EdgeMapOptions flat;
  flat.track_output = false;
  engine::dense_push(g_, ws, nullptr, IntAddFunctor{acc.data()}, flat,
                     CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics, static_cast<std::uint64_t>(g_.num_arcs()));

  // The striped-lock policy prices the same updates as locks instead.
  pc.reset();
  flat.sync = engine::Sync::StripedLock;
  engine::dense_push(g_, ws, nullptr, IntAddFunctor{acc.data()}, flat,
                     CountingInstr(pc));
  EXPECT_EQ(pc.total().locks, static_cast<std::uint64_t>(g_.num_arcs()));
  EXPECT_EQ(pc.total().atomics, 0u);
}

// The engine's attribution carries into the new algorithms for free: CC pull
// rounds are sync-free and read each scanned in-arc's source label once, CC
// push rounds pay one atomic per improving min, and k-core's peel decrements
// are integer FAAs.
TEST_F(InstrFixture, EngineClientsInheritAttribution) {
  PerfCounters pc(omp_get_max_threads());
  CcOptions pull_opt;
  pull_opt.strategy = engine::StrategyKind::StaticPull;
  const CcResult pulled = connected_components(g_, pull_opt, CountingInstr(pc));
  EXPECT_EQ(pc.total().atomics, 0u);
  EXPECT_EQ(pc.total().locks, 0u);
  EXPECT_EQ(pc.total().reads,
            static_cast<std::uint64_t>(pulled.rounds) * g_.num_arcs());

  pc.reset();
  CcOptions push_opt;
  push_opt.strategy = engine::StrategyKind::FrontierExploit;
  connected_components(g_, push_opt, CountingInstr(pc));
  EXPECT_GT(pc.total().atomics, 0u);
  EXPECT_EQ(pc.total().locks, 0u);

  pc.reset();
  kcore_decomposition(g_, CountingInstr(pc));
  EXPECT_GT(pc.total().atomics, 0u);
  EXPECT_EQ(pc.total().locks, 0u);
}

// The per-round ledgers a traced run recorded: their sum over every round,
// and the Greedy-Switch tail's own delta and frontier.
struct RoundLedger {
  CounterBlock all;
  CounterBlock tail;
  int tails = 0;
  std::uint64_t tail_frontier = 0;
};

RoundLedger round_ledger(const obs::Tracer& t) {
  RoundLedger l;
  for (const auto& [tid, ev] : t.sorted_events()) {
    if (std::string(ev.cat) != "round") continue;
    const bool tail =
        ev.mode != nullptr && std::string(ev.mode) == "sequential-tail";
    CounterBlock c;
    for (int i = 0; i < ev.n_args; ++i) {
      const std::string key = ev.args[i].key;
      const auto v = static_cast<std::uint64_t>(ev.args[i].value);
      if (key == "reads") c.reads = v;
      if (key == "writes") c.writes = v;
      if (key == "atomics") c.atomics = v;
      if (key == "locks") c.locks = v;
      if (key == "frontier" && tail) l.tail_frontier = v;
    }
    l.all.reads += c.reads;
    l.all.writes += c.writes;
    l.all.atomics += c.atomics;
    l.all.locks += c.locks;
    if (tail) {
      l.tail = c;
      ++l.tails;
    }
  }
  return l;
}

void expect_rounds_cover(const RoundLedger& l, const CounterBlock& total) {
  EXPECT_EQ(l.all.reads, total.reads);
  EXPECT_EQ(l.all.writes, total.writes);
  EXPECT_EQ(l.all.atomics, total.atomics);
  EXPECT_EQ(l.all.locks, total.locks);
}

// Greedy-Switch's sequential tails count through the same PlainCtx as the
// engine rounds. CC's worklist reads the popped label once and each scanned
// neighbor's label once, and writes each lowered label, so on a 2-regular
// graph its reads are exactly 3 per pop, and pops = initial work + writes.
TEST_F(InstrFixture, CcGreedySwitchTailIsCountedExactly) {
  omp_set_num_threads(1);
  // One cycle through the vertices in a shuffled order: label 0 needs many
  // hops, so the tail (engaged right after round 1) lowers labels.
  constexpr vid_t n = 256;
  std::vector<vid_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(3));
  EdgeList edges;
  for (vid_t i = 0; i < n; ++i) {
    edges.push_back(Edge{order[i], order[(i + 1) % n], 1.0f});
  }
  const Csr cycle = make_undirected(n, std::move(edges));
  for (vid_t v = 0; v < n; ++v) ASSERT_EQ(cycle.degree(v), 2);

  PerfCounters pc(omp_get_max_threads());
  obs::Tracer t;
  CcOptions opt;
  opt.strategy = engine::StrategyKind::GreedySwitch;
  opt.grs_threshold = 1.0;
  const CcResult r = connected_components(cycle, opt, CountingInstr(pc), &t);
  ASSERT_EQ(r.sequential_tail_rounds, 1);
  EXPECT_EQ(r.comp, std::vector<vid_t>(n, 0));

  const RoundLedger l = round_ledger(t);
  ASSERT_EQ(l.tails, 1);
  EXPECT_GT(l.tail.writes, 0u);
  EXPECT_EQ(l.tail.reads, (l.tail_frontier + l.tail.writes) * 3);
  EXPECT_EQ(l.tail.atomics, 0u);
  EXPECT_EQ(l.tail.locks, 0u);
  expect_rounds_cover(l, pc.total());
  omp_set_num_threads(4);
}

// Directed BFS's FIFO tail pops every vertex from the tail's first level L
// on, reading its level once and each out-neighbor's level once, and writes
// each vertex it discovers: all of it follows from the final distances.
TEST_F(InstrFixture, DigraphBfsGreedySwitchTailIsCountedExactly) {
  omp_set_num_threads(1);
  const Digraph g = build_digraph(256, rmat_edges(8, 8, 17));
  const engine::DigraphView view(g);
  PerfCounters pc(omp_get_max_threads());
  obs::Tracer t;
  DigraphBfsOptions opt;
  opt.strategy = engine::StrategyKind::GreedySwitch;
  opt.grs_threshold = 1.0;
  const BfsResult r =
      bfs_digraph_strategy(view, 0, opt, CountingInstr(pc), &t);
  ASSERT_EQ(r.sequential_tail_levels, 1);

  const vid_t first = r.levels - 1;  // engine levels before the tail
  std::uint64_t pops = 0, arcs = 0, found = 0, at_first = 0;
  for (vid_t v = 0; v < g.out.n(); ++v) {
    const vid_t d = r.dist[static_cast<std::size_t>(v)];
    if (d < first) continue;
    ++pops;
    arcs += static_cast<std::uint64_t>(g.out.degree(v));
    if (d > first) ++found;
    if (d == first) ++at_first;
  }
  ASSERT_GT(found, 0u);

  const RoundLedger l = round_ledger(t);
  ASSERT_EQ(l.tails, 1);
  EXPECT_EQ(l.tail_frontier, at_first);
  EXPECT_EQ(l.tail.reads, pops + arcs);
  EXPECT_EQ(l.tail.writes, found);
  EXPECT_EQ(l.tail.atomics, 0u);
  EXPECT_EQ(l.tail.locks, 0u);
  expect_rounds_cover(l, pc.total());
  omp_set_num_threads(4);
}

TEST_F(InstrFixture, CacheSimPullMissesMoreThanPushForPr) {
  // Table 1, PR rows: pull's scattered reads produce more L1 misses than
  // push on the dense social graph (the paper reports 572M vs 335M).
  omp_set_num_threads(1);  // cache simulation is single-core
  PageRankOptions opt;
  opt.iterations = 3;

  PerfCounters pc1(1);
  CacheHierarchy cache_push;
  pagerank_push(g_, opt, CacheSimInstr(pc1, cache_push));

  PerfCounters pc2(1);
  CacheHierarchy cache_pull;
  pagerank_pull(g_, opt, CacheSimInstr(pc2, cache_pull));

  EXPECT_GT(cache_pull.stats().l1_misses, cache_push.stats().l1_misses);
  omp_set_num_threads(4);
}

TEST_F(InstrFixture, TcCountsScaleWithIterationStructure) {
  // Doubling the graph's edge factor increases both variants' reads;
  // push/pull read counts stay equal (§4.2).
  Csr small = make_undirected(128, rmat_edges(7, 4, 55));
  Csr dense = make_undirected(128, rmat_edges(7, 8, 55));
  PerfCounters pc(omp_get_max_threads());
  triangle_count_pull(small, CountingInstr(pc));
  const auto small_reads = pc.total().reads;
  pc.reset();
  triangle_count_pull(dense, CountingInstr(pc));
  EXPECT_GT(pc.total().reads, small_reads);
}

}  // namespace
}  // namespace pushpull
