// PageRank (§3.1, §4.1, §4.8, Algorithm 1) in push, pull, and
// push+Partition-Aware (§5, Algorithm 8) variants, on the engine substrate.
//
// r(v) = (1-f)/|V| + f * Σ_{u ∈ N_in(v)} r(u)/d_out(u)
//
//   pull — engine::dense_pull: t[v] accumulates r(u)/d_out(u) from every
//          in-neighbor into its own new_pr[v] through PlainCtx: read
//          conflicts only, no atomics or locks.
//   push — engine::dense_push: t[v] adds r(v)/d_out(v) into every
//          out-neighbor's new_pr[u] through AtomicCtx: float write
//          conflicts; no CPU offers float atomics, so each update is a CAS
//          loop that the paper (and the context's accounting) prices as a
//          lock.
//   push+PA — engine::dense_push_pa over the partition-aware representation:
//          local updates ride PlainCtx (plain stores), only remote updates
//          pay the lock (Algorithm 8).
//
// One driver runs the sweep loop over any GraphView in either direction, so
// symmetric graphs, digraphs and snapshots share it; pagerank_pull,
// pagerank_push, pagerank_digraph (core/directed.hpp) and pagerank_converged
// are wrappers. Mass from dangling (out-degree 0) vertices is redistributed
// uniformly each iteration so ranks always sum to 1.
#pragma once

#include <algorithm>
#include <type_traits>
#include <vector>

#include "core/direction.hpp"
#include "core/round_trace.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
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

struct PrFixpoint {
  std::vector<double> ranks;
  int iterations = 0;
  double residual = 0.0;  // final L∞ sweep change (computed under a stop)
};

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

// Pull: fold r(u)/d_out(u) into new_pr[v] in in-neighbor order, then scale
// once — the same per-vertex fold as pagerank_seq. `g` is the out-CSR.
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

// Push: scatter f·r(s)/d(s) into each out-neighbor's accumulator. Works for
// both the flat out-CSR (AtomicCtx everywhere) and the PA split (PlainCtx
// local half, AtomicCtx remote half) — degree comes from the representation
// in use.
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

// The one PageRank driver: up to opt.iterations sweeps of the dangling-mass,
// sweep and swap loop in direction `dir`. With tol > 0 each sweep also takes
// its L∞ change, and the loop stops once that falls below tol.
template <engine::GraphView View, class Instr, class TracerT>
PrFixpoint pagerank_sweeps(const View& view, const PageRankOptions& opt,
                           Direction dir, double tol, Instr instr,
                           TracerT* tracer) {
  const vid_t n = view.n();
  PP_CHECK(n > 0);
  const auto& out = view.out();
  using OutG = std::remove_cvref_t<decltype(view.out())>;
  PrFixpoint fix;
  std::vector<double>& pr = fix.ranks;
  pr.assign(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = dir == Direction::Pull ? 1 : 2;
  emo.track_output = false;
  const auto arcs = static_cast<double>(view.num_arcs());
  while (fix.iterations < opt.iterations) {
    RoundTrace round(tracer, instr);
    const double dangling = pr_dangling_mass(out, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
    if (dir == Direction::Pull) {
      engine::dense_pull(
          view, ws,
          PrGather<OutG>{&out, pr.data(), next.data(), base, opt.damping}, emo,
          instr, round.stats());
    } else {
      engine::dense_push(
          view, ws, /*sources=*/nullptr,
          PrScatter<OutG>{&out, pr.data(), next.data(), opt.damping}, emo,
          instr, round.stats());
    }
    // A dense sweep: every vertex is active, every arc is work.
    round.record("pagerank", fix.iterations + 1, n, arcs, arcs, n, 0.0, 0.0);
    if (dir == Direction::Push) {
      engine::vertex_map(
          n, ws,
          [&](auto& ctx, vid_t v) {
            ctx.add(next[static_cast<std::size_t>(v)], base);
            return false;
          },
          engine::VertexMapOptions{.track = false}, instr);
    }
    if (tol > 0.0) {
      double delta = 0.0;
#pragma omp parallel for reduction(max : delta) schedule(static)
      for (vid_t v = 0; v < n; ++v) {
        const double d = next[static_cast<std::size_t>(v)] -
                         pr[static_cast<std::size_t>(v)];
        delta = std::max(delta, d < 0 ? -d : d);
      }
      fix.residual = delta;
    }
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
    ++fix.iterations;
    if (tol > 0.0 && fix.residual < tol) break;
  }
  return fix;
}

}  // namespace detail

// Pull-based PageRank: new_pr[v] += f·pr[u]/d(u) for u ∈ N(v)  (R-conflicts).
template <class Instr = NullInstr, class TracerT = obs::NullTracer>
std::vector<double> pagerank_pull(const Csr& g, const PageRankOptions& opt,
                                  Instr instr = {}, TracerT* tracer = nullptr) {
  return detail::pagerank_sweeps(engine::SymmetricView(g), opt,
                                 Direction::Pull, 0.0, instr, tracer)
      .ranks;
}

// Push-based PageRank: new_pr[u] += f·pr[v]/d(v)  (W-conflicts on floats →
// CAS-loop "locks").
template <class Instr = NullInstr, class TracerT = obs::NullTracer>
std::vector<double> pagerank_push(const Csr& g, const PageRankOptions& opt,
                                  Instr instr = {}, TracerT* tracer = nullptr) {
  return detail::pagerank_sweeps(engine::SymmetricView(g), opt,
                                 Direction::Push, 0.0, instr, tracer)
      .ranks;
}

// Pull PageRank iterated to the L∞ < 1e-12 fixpoint (at most 1000 sweeps):
// the service's cold PageRank.
template <engine::GraphView View, class Instr = NullInstr>
PrFixpoint pagerank_converged(const View& view, Instr instr = {}) {
  return detail::pagerank_sweeps(view, {.iterations = 1000}, Direction::Pull,
                                 1e-12, instr,
                                 static_cast<obs::NullTracer*>(nullptr));
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

// Sequential references (power iteration, identical update rule): rank
// flows along the arcs of `g`, and a symmetric Csr is its own transpose.
std::vector<double> pagerank_seq(const Csr& g, const PageRankOptions& opt);
std::vector<double> pagerank_seq(const Digraph& g, const PageRankOptions& opt);

}  // namespace pushpull
