// Micro-benchmarks (google-benchmark) for the primitive operations whose
// costs drive every push/pull tradeoff in the paper: plain vs atomic vs
// lock-accounted updates, frontier machinery, and single iterations of the
// core kernels in both directions.
#include <benchmark/benchmark.h>
#include <omp.h>

#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/frontier.hpp"
#include "core/pagerank.hpp"
#include "engine/edge_map.hpp"
#include "engine/policy.hpp"
#include "graph/analogs.hpp"
#include "graph/partition_aware.hpp"
#include "obs/trace.hpp"
#include "sync/atomics.hpp"
#include "sync/spinlock.hpp"

namespace pushpull {
namespace {

// --- update primitives (the §4.9 sync-cost hierarchy) -----------------------

void BM_PlainAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    data[i++ & 1023] += 1.0;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_PlainAdd);

void BM_AtomicFaaInt(benchmark::State& state) {
  std::vector<std::int64_t> data(1024, 0);
  std::size_t i = 0;
  for (auto _ : state) {
    faa(data[i++ & 1023], std::int64_t{1});
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_AtomicFaaInt);

void BM_CasLoopFloatAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    atomic_add(data[i++ & 1023], 1.0);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_CasLoopFloatAdd);

void BM_SpinlockAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  Spinlock lock;
  std::size_t i = 0;
  for (auto _ : state) {
    SpinGuard guard(lock);
    data[i++ & 1023] += 1.0;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_SpinlockAdd);

void BM_AtomicMinFloat(benchmark::State& state) {
  std::vector<float> data(1024, 1e30f);
  std::size_t i = 0;
  float v = 1e29f;
  for (auto _ : state) {
    atomic_min(data[i++ & 1023], v);
    v *= 0.999999f;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_AtomicMinFloat);

// --- frontier machinery (the k-filter) ---------------------------------------

void BM_FrontierMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FrontierBuffers buffers(omp_get_max_threads());
#pragma omp parallel for schedule(static)
    for (int i = 0; i < n; ++i) buffers.push_local(i);
    std::vector<vid_t> out;
    state.ResumeTiming();
    buffers.merge_into(out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FrontierMerge)->Arg(1 << 12)->Arg(1 << 16);

// --- one PR iteration in each direction --------------------------------------

const Csr& micro_graph() {
  static const Csr g = pok_analog(-2);
  return g;
}

void BM_PrIterationPull(benchmark::State& state) {
  const Csr& g = micro_graph();
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_pull(g, opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPull);

void BM_PrIterationPush(benchmark::State& state) {
  const Csr& g = micro_graph();
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_push(g, opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPush);

void BM_PrIterationPushPa(benchmark::State& state) {
  const Csr& g = micro_graph();
  static const PartitionAwareCsr pa(g, Partition1D(g.n(), omp_get_max_threads()));
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_push_pa(g, pa, opt);
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPushPa);

// --- one full BFS in each direction --------------------------------------------

void BM_BfsPush(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_push(g, 0);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsPush);

void BM_BfsPull(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_pull(g, 0);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsPull);

void BM_BfsDirOpt(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_direction_optimizing(g, 0);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsDirOpt);

// --- tracing overhead contract (DESIGN.md §6) --------------------------------
//
// The *TracerOff rows instantiate the kernels with the live obs::Tracer type
// — the tracing branches are compiled in — but the tracer is runtime-disabled.
// The overhead contract: these rows stay within 2% of their NullTracer
// siblings above (one relaxed atomic load per round, nothing per edge).

obs::Tracer& disabled_tracer() {
  static obs::Tracer t([] {
    obs::TracerOptions o;
    o.start_enabled = false;
    return o;
  }());
  return t;
}

void BM_BfsDirOptTracerOff(benchmark::State& state) {
  const Csr& g = micro_graph();
  for (auto _ : state) {
    auto r = bfs_direction_optimizing(g, 0, {}, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BfsDirOptTracerOff);

void BM_PrIterationPullTracerOff(benchmark::State& state) {
  const Csr& g = micro_graph();
  PageRankOptions opt;
  opt.iterations = 1;
  for (auto _ : state) {
    auto pr = pagerank_pull(g, opt, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_PrIterationPullTracerOff);

void BM_CcGreedySwitchTracerOff(benchmark::State& state) {
  const Csr& g = micro_graph();
  CcOptions opt;
  opt.strategy = engine::StrategyKind::GreedySwitch;
  for (auto _ : state) {
    auto r = connected_components(g, opt, NullInstr{}, &disabled_tracer());
    benchmark::DoNotOptimize(r.comp.data());
  }
}
BENCHMARK(BM_CcGreedySwitchTracerOff);

// --- raw engine edge_map throughput, one label-min round per loop shape ------
//
// The same CcPropagate functor through every traversal mode: the deltas
// between these rows are pure engine/loop-shape costs (k-filter merge vs
// dense sweep vs membership filter), with the per-edge work held constant.

void BM_EdgeMapSparsePush(benchmark::State& state) {
  const Csr& g = micro_graph();
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  engine::VertexSet in = engine::VertexSet::all(g.n());
  engine::EdgeMapOptions opt;
  opt.dedup_output = true;
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::sparse_push(
        g, ws, in, detail::CcPropagate{comp.data(), nullptr}, opt);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapSparsePush);

void BM_EdgeMapDensePush(benchmark::State& state) {
  const Csr& g = micro_graph();
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  engine::EdgeMapOptions opt;
  opt.dedup_output = true;
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::dense_push(g, ws, nullptr,
                                  detail::CcPropagate{comp.data(), nullptr}, opt);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapDensePush);

void BM_EdgeMapDensePull(benchmark::State& state) {
  const Csr& g = micro_graph();
  std::vector<vid_t> comp(static_cast<std::size_t>(g.n()));
  engine::Workspace ws(g.n());
  for (auto _ : state) {
    for (vid_t v = 0; v < g.n(); ++v) comp[static_cast<std::size_t>(v)] = v;
    auto out = engine::dense_pull(g, ws,
                                  detail::CcPropagate{comp.data(), nullptr});
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_EdgeMapDensePull);

// --- per_direction_thresholds: cached census vs O(n) scan --------------------
//
// engine::per_direction_thresholds answers from Csr's cached nonzero-degree
// census when the view exposes it; this pair prices the hoist. The Scan row
// routes the same graph through a facade that hides num_nonempty(), forcing
// the per-call O(n) reduction the cache removed from every directed-BFS run.

struct UncachedFacadeView {
  const Csr* g;
  struct NoCensus {
  } nc;
  const NoCensus& out() const noexcept { return nc; }
  const NoCensus& in() const noexcept { return nc; }
  vid_t n() const noexcept { return g->n(); }
  eid_t num_arcs() const noexcept { return g->num_arcs(); }
  vid_t out_degree(vid_t v) const noexcept { return g->degree(v); }
  vid_t in_degree(vid_t v) const noexcept { return g->degree(v); }
};

void BM_PerDirectionThresholdsCached(benchmark::State& state) {
  const engine::SymmetricView view(micro_graph());
  for (auto _ : state) {
    auto t = engine::per_direction_thresholds(view);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PerDirectionThresholdsCached);

void BM_PerDirectionThresholdsScan(benchmark::State& state) {
  const UncachedFacadeView view{&micro_graph(), {}};
  for (auto _ : state) {
    auto t = engine::per_direction_thresholds(view);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PerDirectionThresholdsScan);

// --- full CC runs under each §5 policy bundle --------------------------------

void cc_policy_bench(benchmark::State& state, engine::StrategyKind k) {
  const Csr& g = micro_graph();
  CcOptions opt;
  opt.strategy = k;
  for (auto _ : state) {
    auto r = connected_components(g, opt);
    benchmark::DoNotOptimize(r.comp.data());
  }
}

void BM_CcStaticPush(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::StaticPush); }
void BM_CcStaticPull(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::StaticPull); }
void BM_CcFrontierExploit(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::FrontierExploit); }
void BM_CcGenericSwitch(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::GenericSwitch); }
void BM_CcGreedySwitch(benchmark::State& s) { cc_policy_bench(s, engine::StrategyKind::GreedySwitch); }
BENCHMARK(BM_CcStaticPush);
BENCHMARK(BM_CcStaticPull);
BENCHMARK(BM_CcFrontierExploit);
BENCHMARK(BM_CcGenericSwitch);
BENCHMARK(BM_CcGreedySwitch);

}  // namespace
}  // namespace pushpull

BENCHMARK_MAIN();
