// Generalized BFS (Algorithm 3, verbatim semantics), on the engine substrate.
//
// The paper defines BFS over (a) per-vertex *ready counters* — a vertex
// enters the frontier only after `ready[v]` of its neighbors have been in
// the frontier (1 = standard BFS; the in-degree of a DAG = the backward
// sweep of betweenness centrality) — and (b) a commutative, associative
// *accumulation operator* ⇐ that folds predecessor values into each vertex.
//
// Both directions are edge_map functors over a graph view (the semiring hook
// is the functor's captured `op`):
//
//   push — engine::sparse_push over out-arcs: each frontier vertex folds its
//          value into every still-ready neighbor (guarded by the striped-lock
//          critical section, lines 12-14) and decrements the neighbor's
//          counter with ctx.fetch_add; the update whose FAA returns 1 dropped
//          the counter to zero and enqueues the vertex (lines 15-17). The
//          engine's k-filter replaces the hand-rolled my_F merge (line 8).
//   pull — engine::dense_pull over in-arcs: every still-ready vertex scans
//          for frontier members, folds their values with thread-private
//          writes and decrements its own counter; kBreakOnUpdate stops the
//          scan the moment the counter is exhausted (lines 19-26).
//
// Both directions accumulate from a vertex only while its counter is
// positive, so with exact ready counts every required predecessor contributes
// exactly once — which is what lets the push round fold and decrement per
// arc in one pass.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/direction.hpp"
#include "core/frontier.hpp"
#include "core/switch_defaults.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "engine/policy.hpp"
#include "graph/csr.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

template <class T>
struct GeneralizedBfsResult {
  std::vector<T> values;
  int levels = 0;
  std::vector<std::size_t> frontier_sizes;  // f_i per while-loop iteration
};

namespace detail {

template <class T, class Op>
struct GenBfsPush {
  int* ready;
  T* values;
  const Op* op;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    // Lines 12-14: fold into d only while its counter is positive. Every
    // pending predecessor (this one included) still counts toward ready[d],
    // so with exact counts the guard never drops a required contribution.
    if (ctx.load(ready[d]) > 0) {
      ctx.critical(static_cast<std::size_t>(d),
                   [&] { (*op)(values[d], values[s]); });
    }
    // Lines 15-17: whoever drops the counter to zero owns the enqueue.
    return ctx.fetch_add(ready[d], -1) == 1;
  }
};

template <class T, class Op>
struct GenBfsPull {
  int* ready;
  T* values;
  const Op* op;
  const DenseFrontier* in_frontier;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return ready[v] > 0; }

  template <class Ctx>
  bool update(Ctx&, vid_t u, vid_t v, eid_t) const {
    if (!in_frontier->test(u)) return false;
    // Thread-private: v is owned by the iterating thread in pull mode.
    (*op)(values[v], values[u]);
    return --ready[v] == 0;  // counter exhausted: break (mirrors push)
  }
};

// View-generic core; the public Csr/Digraph overloads wrap it.
template <engine::GraphView View, class T, class Op, class Instr>
GeneralizedBfsResult<T> generalized_bfs_impl(const View& view,
                                             std::vector<int> ready,
                                             std::vector<T> initial_values,
                                             std::vector<vid_t> initial_frontier,
                                             Op op, Direction dir, Instr instr) {
  const vid_t n = view.n();
  PP_CHECK(ready.size() == static_cast<std::size_t>(n));
  PP_CHECK(initial_values.size() == static_cast<std::size_t>(n));

  GeneralizedBfsResult<T> result;
  result.values = std::move(initial_values);
  std::vector<T>& values = result.values;

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  engine::VertexSet frontier(n, std::move(initial_frontier));
  for (vid_t v : frontier.ids()) {
    PP_CHECK(ready[static_cast<std::size_t>(v)] == 0);
  }

  while (!frontier.empty()) {
    result.frontier_sizes.push_back(frontier.size());
    ++result.levels;
    if (dir == Direction::Push) {
      emo.region = 80;
      frontier = engine::sparse_push(
          view, ws, frontier,
          GenBfsPush<T, Op>{ready.data(), values.data(), &op}, emo, instr);
    } else {
      emo.region = 81;
      // The VertexSet's cached dense view is the membership bitmap the pull
      // functor scans; the functor only borrows it for this one map call.
      frontier = engine::dense_pull(
          view, ws,
          GenBfsPull<T, Op>{ready.data(), values.data(), &op,
                            &frontier.dense()},
          emo, instr);
    }
  }
  return result;
}

}  // namespace detail

// `op(target, source)` folds a frontier neighbor's value into the target's.
template <class T, class Op, class Instr = NullInstr>
GeneralizedBfsResult<T> generalized_bfs(const Csr& g, std::vector<int> ready,
                                        std::vector<T> initial_values,
                                        std::vector<vid_t> initial_frontier,
                                        Op op, Direction dir, Instr instr = {}) {
  return detail::generalized_bfs_impl(engine::SymmetricView(g), std::move(ready),
                                      std::move(initial_values),
                                      std::move(initial_frontier), op, dir,
                                      instr);
}

// Directed generalization (§4.8): push folds along *out*-arcs, pull gathers
// along *in*-arcs — ready counters on a DAG are in-degrees, making the
// topological wavefront explicit.
template <class T, class Op, class Instr = NullInstr>
GeneralizedBfsResult<T> generalized_bfs(const Digraph& g, std::vector<int> ready,
                                        std::vector<T> initial_values,
                                        std::vector<vid_t> initial_frontier,
                                        Op op, Direction dir, Instr instr = {}) {
  return detail::generalized_bfs_impl(engine::DigraphView(g), std::move(ready),
                                      std::move(initial_values),
                                      std::move(initial_frontier), op, dir,
                                      instr);
}

// --- Multi-source entries (the serving layer's batched pass) -----------------
//
// The serving layer (src/serve/) merges k concurrent single-source queries
// arriving within a batching window into ONE edge_map pass. Both entries are
// instances of the generalized-BFS semiring scheme above, specialized so one
// sweep carries all k lanes:
//
//   multi_source_bfs  — T = a 64-bit lane mask, ⇐ = bitwise OR, ready ≡ 1.
//     A vertex's value is the set of sources that have reached it; the
//     frontier is the set of vertices whose mask grew last round, so lane l's
//     level of v is the round in which bit l first entered v's mask. Each
//     lane's levels are exactly bfs_levels(view, sources[l]) — BFS levels are
//     direction-independent and exact, so batching is invisible to callers.
//
//   multi_source_sssp — T = a k-vector of tentative distances, ⇐ = per-lane
//     (min, +). Label-correcting relaxation to quiescence: every lane
//     converges to the unique least fixpoint of
//     dist[v] = min over in-arcs (u,v) of (dist[u] + w(u,v)), which is the
//     same float fixpoint Δ-stepping settles (relaxation values are always
//     left-to-right path sums and min over floats is exact), so each lane is
//     bit-identical to sssp_delta(g, sources[l], Δ, ·).dist for any Δ.

// Per-lane BFS levels of one batched pass, lane-major: levels[l * n + v] is
// lane l's level of v (-1 = unreachable from sources[l]).
struct MultiSourceBfsResult {
  std::vector<vid_t> levels;
  int lanes = 0;
  int rounds = 0;
  std::vector<std::size_t> frontier_sizes;

  // Lane l's levels as a standalone vector (what bfs_levels would return).
  std::vector<vid_t> lane(int l, vid_t n) const {
    const std::size_t off = static_cast<std::size_t>(l) * n;
    return std::vector<vid_t>(levels.begin() + off, levels.begin() + off + n);
  }
};

// The switch runs at the shared (kSwitchAlpha, kSwitchBeta) thresholds.
struct MultiSourceBfsOptions {
  engine::StrategyKind strategy = engine::StrategyKind::GenericSwitch;
};

namespace detail {

// Push lane-merge: fold the source's lane mask into the destination's
// next-round mask. The critical section makes read-modify-write of next[d]
// atomic across lanes; exactly the update that finds next[d] == 0 (the first
// contributor this round) enqueues d, so the output frontier is duplicate-free
// without dedup bitmaps.
struct MsBfsPush {
  const std::uint64_t* cur;
  const std::uint64_t* seen;
  std::uint64_t* next;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    const std::uint64_t m = cur[s] & ~ctx.load(seen[d]);
    if (m == 0) return false;
    bool first = false;
    ctx.critical(static_cast<std::size_t>(d), [&] {
      const std::uint64_t add = m & ~next[d];
      if (add != 0) {
        first = next[d] == 0;
        next[d] |= add;
      }
    });
    return first;
  }
};

// Pull lane-merge: a not-yet-fully-seen vertex scans its in-neighbors and ORs
// in their frontier masks (cur[u] != 0 iff u was in last round's frontier).
// Thread-private writes — v is owned by the iterating thread — preserving the
// zero-sync pull property. No early break: all k lanes must accumulate.
struct MsBfsPull {
  const std::uint64_t* cur;
  const std::uint64_t* seen;
  std::uint64_t* next;
  std::uint64_t full;

  bool cond(vid_t v) const { return (seen[v] & full) != full; }

  template <class Ctx>
  bool update(Ctx&, vid_t u, vid_t v, eid_t) const {
    const std::uint64_t add = cur[u] & ~seen[v] & ~next[v];
    if (add == 0) return false;
    const bool first = next[v] == 0;
    next[v] |= add;
    return first;
  }
};

}  // namespace detail

// One level-synchronous pass carrying up to 64 sources; direction chosen per
// round by the strategy's α/β controller exactly like single-source BFS.
// Duplicate sources are fine (lanes are independent).
template <engine::GraphView View, class Instr = NullInstr>
MultiSourceBfsResult multi_source_bfs(const View& view,
                                      std::span<const vid_t> sources,
                                      const MultiSourceBfsOptions& opt = {},
                                      Instr instr = {}) {
  const vid_t n = view.n();
  const int k = static_cast<int>(sources.size());
  PP_CHECK(k >= 1 && k <= 64);

  MultiSourceBfsResult r;
  r.lanes = k;
  r.levels.assign(static_cast<std::size_t>(n) * k, vid_t{-1});
  const std::uint64_t full =
      k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;

  std::vector<std::uint64_t> cur(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> init;
  for (int l = 0; l < k; ++l) {
    const vid_t s = sources[static_cast<std::size_t>(l)];
    PP_CHECK(s >= 0 && s < n);
    r.levels[static_cast<std::size_t>(l) * n + s] = 0;
    if (cur[static_cast<std::size_t>(s)] == 0) init.push_back(s);
    cur[static_cast<std::size_t>(s)] |= std::uint64_t{1} << l;
    seen[static_cast<std::size_t>(s)] |= std::uint64_t{1} << l;
  }

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  engine::DirectionPolicy policy(opt.strategy);
  engine::VertexSet frontier(n, std::move(init));
  const double total_work = static_cast<double>(view.num_arcs());

  while (!frontier.empty()) {
    r.frontier_sizes.push_back(frontier.size());
    const Direction dir = policy.choose(
        frontier.out_degree_sum(view), total_work,
        static_cast<double>(frontier.size()), static_cast<double>(n));
    engine::VertexSet out(n);
    if (dir == Direction::Push) {
      emo.region = 84;
      out = engine::sparse_push(
          view, ws, frontier,
          detail::MsBfsPush{cur.data(), seen.data(), next.data()}, emo, instr);
    } else {
      emo.region = 85;
      out = engine::dense_pull(
          view, ws,
          detail::MsBfsPull{cur.data(), seen.data(), next.data(), full}, emo,
          instr);
    }
    ++r.rounds;
    // Round epilogue: retire the old frontier's masks, record the round as
    // the level of every newly-set lane bit, then promote next → cur.
    for (const vid_t v : frontier.ids()) cur[static_cast<std::size_t>(v)] = 0;
    const std::span<const vid_t> out_ids = out.ids();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < out_ids.size(); ++i) {
      const vid_t v = out_ids[i];
      std::uint64_t bits = next[static_cast<std::size_t>(v)];
      seen[static_cast<std::size_t>(v)] |= bits;
      while (bits != 0) {
        const int l = std::countr_zero(bits);
        r.levels[static_cast<std::size_t>(l) * n + v] =
            static_cast<vid_t>(r.rounds);
        bits &= bits - 1;
      }
    }
    cur.swap(next);  // old cur is all-zero again: next round's scratch
    frontier = std::move(out);
  }
  return r;
}

// Per-lane tentative distances of one batched SSSP pass, lane-major like
// MultiSourceBfsResult (+inf = unreachable).
struct MultiSourceSsspResult {
  std::vector<weight_t> dist;
  int lanes = 0;
  int rounds = 0;

  std::vector<weight_t> lane(int l, vid_t n) const {
    const std::size_t off = static_cast<std::size_t>(l) * n;
    return std::vector<weight_t>(dist.begin() + off, dist.begin() + off + n);
  }
};

namespace detail {

// k-lane push relaxation. Distances are vertex-major in the working array
// (the k lanes of one vertex are contiguous — one cache line serves every
// lane of an edge relaxation); converted to lane-major on return. Racy reads
// of the source lanes are safe: distances only decrease, so a stale (larger)
// read merely delays convergence and a fresh (smaller) read is itself a valid
// path sum.
template <CsrLike G>
struct MsSsspRelax {
  const G* g;
  weight_t* dist;  // vertex-major scratch: dist[v * k + l]
  int k;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t e) const {
    const weight_t w = g->edge_weight(e);
    weight_t* ds = dist + static_cast<std::size_t>(s) * k;
    weight_t* dd = dist + static_cast<std::size_t>(d) * k;
    bool improved = false;
    for (int l = 0; l < k; ++l) {
      const weight_t sv = atomic_load(ds[l]);
      if (sv == std::numeric_limits<weight_t>::infinity()) continue;
      const weight_t nd = sv + w;
      if (nd < ctx.load(dd[l]) && ctx.min(dd[l], nd)) improved = true;
    }
    return improved;
  }
};

}  // namespace detail

// Label-correcting k-lane SSSP: relax out-arcs of every vertex whose lane
// vector improved last round, until quiescence. Push-only (a pull variant
// would rescan every unsettled vertex's full in-row per round for all lanes,
// which §4.4 already prices as the losing direction at these densities).
// Non-negative weights required, as with Δ-stepping.
template <CsrLike G, class Instr = NullInstr>
MultiSourceSsspResult multi_source_sssp(const G& g,
                                        std::span<const vid_t> sources,
                                        Instr instr = {}) {
  PP_CHECK(g.has_weights());
  const vid_t n = g.n();
  const int k = static_cast<int>(sources.size());
  PP_CHECK(k >= 1 && k <= 64);

  constexpr weight_t kInf = std::numeric_limits<weight_t>::infinity();
  std::vector<weight_t> dist(static_cast<std::size_t>(n) * k, kInf);
  std::vector<vid_t> init;
  for (int l = 0; l < k; ++l) {
    const vid_t s = sources[static_cast<std::size_t>(l)];
    PP_CHECK(s >= 0 && s < n);
    if (dist[static_cast<std::size_t>(s) * k + l] != 0) {
      if (std::find(init.begin(), init.end(), s) == init.end()) {
        init.push_back(s);
      }
      dist[static_cast<std::size_t>(s) * k + l] = 0;
    }
  }

  MultiSourceSsspResult r;
  r.lanes = k;
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 86;
  emo.dedup_output = true;  // improved vertices enter the next frontier once

  engine::VertexSet frontier(n, std::move(init));
  while (!frontier.empty()) {
    frontier = engine::sparse_push(
        g, ws, frontier, detail::MsSsspRelax<G>{&g, dist.data(), k}, emo,
        instr);
    ++r.rounds;
  }

  // Transpose the vertex-major scratch into the lane-major result layout.
  r.dist.assign(static_cast<std::size_t>(n) * k, kInf);
  for (vid_t v = 0; v < n; ++v) {
    for (int l = 0; l < k; ++l) {
      r.dist[static_cast<std::size_t>(l) * n + v] =
          dist[static_cast<std::size_t>(v) * k + l];
    }
  }
  return r;
}

}  // namespace pushpull
