// PageRank (§3.1, §4.1, Algorithm 1) in push, pull, and push+Partition-Aware
// (§5, Algorithm 8) variants, on the engine substrate.
//
// r(v) = (1-f)/|V| + f * Σ_{u ∈ N(v)} r(u)/d(u)
//
//   pull — engine::dense_pull: t[v] accumulates r(u)/d(u) from every neighbor
//          into its own new_pr[v] through PlainCtx: read conflicts only, no
//          atomics or locks.
//   push — engine::dense_push: t[v] adds r(v)/d(v) into every neighbor's
//          new_pr[u] through AtomicCtx: float write conflicts; no CPU offers
//          float atomics, so each update is a CAS loop that the paper (and
//          the context's accounting) prices as a lock.
//   push+PA — engine::dense_push_pa over the partition-aware representation:
//          local updates ride PlainCtx (plain stores), only remote updates
//          pay the lock (Algorithm 8).
//
// One functor expresses the rank transfer; the direction and sync policy pick
// which context it writes through. Mass from dangling (degree-0) vertices is
// redistributed uniformly each iteration so ranks always sum to 1.
#pragma once

#include <algorithm>
#include <vector>

#include "engine/edge_map.hpp"
#include "graph/csr.hpp"
#include "graph/partition_aware.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct PageRankOptions {
  int iterations = 20;     // L
  double damping = 0.85;   // f
};

// Per-iteration wall times, filled if `iter_times != nullptr`.
using IterTimes = std::vector<double>;

namespace detail {

// The rank mass on dangling (degree-0) vertices, which every PageRank
// variant redistributes uniformly each iteration. Fixed-size vertex blocks are
// summed in vertex order and their partials combined in block order, so the
// result is the same bits at any team width and schedule. An OpenMP
// reduction(+) would fold per-thread partials in the order the threads finish.
template <CsrLike G>
inline double pr_dangling_mass(const G& g, const std::vector<double>& pr) {
  constexpr std::size_t kBlock = 1024;
  const std::size_t n = static_cast<std::size_t>(g.n());
  std::vector<double> partial((n + kBlock - 1) / kBlock);
#pragma omp parallel for schedule(static)
  for (std::size_t b = 0; b < partial.size(); ++b) {
    const std::size_t end = std::min(n, (b + 1) * kBlock);
    double sum = 0.0;
    for (std::size_t v = b * kBlock; v < end; ++v) {
      if (g.degree(static_cast<vid_t>(v)) == 0) sum += pr[v];
    }
    partial[b] = sum;
  }
  double dangling = 0.0;
  for (const double p : partial) dangling += p;
  return dangling;
}

// Pull: fold r(u)/d(u) into new_pr[v] in neighbor order, then scale once —
// the same per-vertex fold as pagerank_seq.
template <CsrLike G>
struct PrGather {
  const G* g;
  const double* pr;
  double* next;
  double base;
  double damping;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    const double pu = ctx.load(pr[u]);
    // Read conflict: the neighbor's degree lives in another thread's block.
    ctx.instr().read(&g->offsets()[static_cast<std::size_t>(u)], sizeof(eid_t));
    ctx.add(next[v], pu / g->degree(u));
    return false;
  }

  template <class Ctx>
  bool finalize(Ctx& ctx, vid_t v) const {
    ctx.store(next[v], base + damping * next[v]);
    return false;
  }
};

// Push: scatter f·r(s)/d(s) into each neighbor's accumulator. Works for both
// the flat CSR (AtomicCtx everywhere) and the PA split (PlainCtx local half,
// AtomicCtx remote half) — degree comes from the representation in use.
template <class Rep>
struct PrScatter {
  const Rep* rep;
  const double* pr;
  double* next;
  double damping;

  bool source(vid_t s) const { return rep->degree(s) > 0; }

  template <class Ctx>
  double source_data(Ctx& ctx, vid_t s) const {
    return damping * ctx.load(pr[s]) / rep->degree(s);
  }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t, double share) const {
    ctx.add(next[d], share);
    return false;
  }
};

}  // namespace detail

namespace detail {

// PR iterations are fixed-direction full sweeps; the RoundEvent still earns
// its keep in a trace (per-iteration wall time + instr deltas line up against
// BFS/CC lanes).
template <class TracerT>
inline void record_pr_round(TracerT* tracer, const char* mode, int iter,
                            std::int64_t n, std::int64_t m,
                            const engine::EdgeMapStats& st, std::uint64_t t0,
                            const CounterBlock& delta) {
  if constexpr (TracerT::kEnabled) {
    obs::RoundEvent ev;
    ev.kernel = "pagerank";
    ev.mode = mode;
    ev.round = iter;
    ev.frontier_size = n;  // dense sweep: every vertex is active
    ev.active_work = m;
    ev.total_work = m;
    ev.total_count = n;
    ev.updates = st.updates;
    ev.t0_ns = t0;
    ev.dur_ns = obs::now_ns() - t0;
    ev.instr = delta;
    obs::record_round(tracer, ev);
  } else {
    (void)tracer, (void)mode, (void)iter, (void)n, (void)m, (void)st, (void)t0,
        (void)delta;
  }
}

}  // namespace detail

// Pull-based PageRank: new_pr[v] += f·pr[u]/d(u) for u ∈ N(v)  (R-conflicts).
template <CsrLike G, class Instr = NullInstr, class TracerT = obs::NullTracer>
std::vector<double> pagerank_pull(const G& g, const PageRankOptions& opt,
                                  Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = g.n();
  PP_CHECK(n > 0);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 1;
  emo.track_output = false;
  for (int l = 0; l < opt.iterations; ++l) {
    const bool trace = obs::tracing(tracer);
    const std::uint64_t t0 = trace ? obs::now_ns() : 0;
    const CounterBlock c0 = trace ? obs::instr_snapshot(instr) : CounterBlock{};
    engine::EdgeMapStats st;
    const double dangling = detail::pr_dangling_mass(g, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
    engine::dense_pull(
        g, ws,
        detail::PrGather<G>{&g, pr.data(), next.data(), base, opt.damping},
        emo, instr, trace ? &st : nullptr);
    if (trace) {
      detail::record_pr_round(
          tracer, engine::to_string(st.mode), l + 1, n, g.num_arcs(), st, t0,
          obs::counter_delta(obs::instr_snapshot(instr), c0));
    }
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

// Push-based PageRank: new_pr[u] += f·pr[v]/d(v)  (W-conflicts on floats →
// CAS-loop "locks").
template <CsrLike G, class Instr = NullInstr, class TracerT = obs::NullTracer>
std::vector<double> pagerank_push(const G& g, const PageRankOptions& opt,
                                  Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = g.n();
  PP_CHECK(n > 0);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 2;
  emo.track_output = false;
  for (int l = 0; l < opt.iterations; ++l) {
    const bool trace = obs::tracing(tracer);
    const std::uint64_t t0 = trace ? obs::now_ns() : 0;
    const CounterBlock c0 = trace ? obs::instr_snapshot(instr) : CounterBlock{};
    engine::EdgeMapStats st;
    const double dangling = detail::pr_dangling_mass(g, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
    engine::dense_push(
        g, ws, /*sources=*/nullptr,
        detail::PrScatter<G>{&g, pr.data(), next.data(), opt.damping}, emo,
        instr, trace ? &st : nullptr);
    if (trace) {
      detail::record_pr_round(
          tracer, engine::to_string(st.mode), l + 1, n, g.num_arcs(), st, t0,
          obs::counter_delta(obs::instr_snapshot(instr), c0));
    }
    engine::vertex_map(
        n, ws,
        [&](auto& ctx, vid_t v) {
          ctx.add(next[static_cast<std::size_t>(v)], base);
          return false;
        },
        engine::VertexMapOptions{.track = false}, instr);
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

// Push+Partition-Awareness (Algorithm 8): local neighbors first with plain
// stores, a barrier, then remote neighbors with lock-accounted updates.
// Each partition is iterated by one thread, so local writes cannot race.
template <class Instr = NullInstr>
std::vector<double> pagerank_push_pa(const Csr& g, const PartitionAwareCsr& pa,
                                     const PageRankOptions& opt, Instr instr = {}) {
  const vid_t n = g.n();
  PP_CHECK(n > 0 && pa.n() == n);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 3;  // local half; the engine tags the remote half region+1
  for (int l = 0; l < opt.iterations; ++l) {
    const double dangling = detail::pr_dangling_mass(g, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
    engine::dense_push_pa(
        pa, ws,
        detail::PrScatter<PartitionAwareCsr>{&pa, pr.data(), next.data(),
                                             opt.damping},
        emo, instr);
    engine::vertex_map(
        n, ws,
        [&](auto& ctx, vid_t v) {
          ctx.add(next[static_cast<std::size_t>(v)], base);
          return false;
        },
        engine::VertexMapOptions{.track = false}, instr);
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

// Sequential reference (power iteration, identical update rule).
std::vector<double> pagerank_seq(const Csr& g, const PageRankOptions& opt);

}  // namespace pushpull
