// Triangle Counting (§3.2, §4.2, Algorithm 2) on the engine substrate.
//
// The NodeIterator variants are vertex maps — the per-center unordered pair
// loop {w1, w2} ⊆ N(v) is the functor's work, the engine owns the sweep and
// the sync policy:
//
//   pull — engine::vertex_map (PlainCtx): the center increments its own
//          tc[v]; one thread-private write per vertex, zero atomics.
//   push — engine::vertex_map with a *synchronized* context (AtomicCtx): the
//          center increments tc[w1] and tc[w2] — remote writes → FAA atomics
//          (§4.2); every triangle is counted twice per vertex, so the final
//          counts are halved, exactly as in Algorithm 2.
//
// `triangle_count_fast` is the production kernel: the degree-ordered
// orientation is the out-half of a DigraphView (forward lists = out-CSR,
// backward lists = its transpose), and the kernel is one engine::dense_push
// over that out-CSR — push never walks in-arcs, so the backward half is
// never materialized — whose per-arc update merge-intersects the two
// forward lists: each triangle discovered once, all three corners credited
// with FAA.
#pragma once

#include <omp.h>

#include <cstdint>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "graph/csr.hpp"
#include "perf/instr.hpp"
#include "sync/atomics.hpp"
#include "util/check.hpp"

namespace pushpull {

namespace detail {

// Binary search with instrumented probes.
template <class Instr>
bool instr_has_edge(const Csr& g, vid_t u, vid_t v, Instr& instr) {
  const auto nb = g.neighbors(u);
  std::size_t lo = 0, hi = nb.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    instr.read(&nb[mid], sizeof(vid_t));
    instr.branch_cond();
    if (nb[mid] == v) return true;
    if (nb[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

}  // namespace detail

// Pull-based NodeIterator: only local writes.
template <class Instr = NullInstr>
std::vector<std::int64_t> triangle_count_pull(const Csr& g, Instr instr = {}) {
  std::vector<std::int64_t> tc(static_cast<std::size_t>(g.n()), 0);
  engine::Workspace ws(g.n());
  engine::vertex_map(
      g.n(), ws,
      [&g, tcp = tc.data()](auto& ctx, vid_t v) {
        ctx.instr().code_region(20);
        const auto nb = g.neighbors(v);
        std::int64_t local = 0;
        for (std::size_t i = 0; i < nb.size(); ++i) {
          for (std::size_t j = i + 1; j < nb.size(); ++j) {
            ctx.instr().read(&nb[i], sizeof(vid_t));
            ctx.instr().read(&nb[j], sizeof(vid_t));
            ctx.instr().branch_cond();
            if (detail::instr_has_edge(g, nb[i], nb[j], ctx.instr())) ++local;
          }
        }
        ctx.store(tcp[static_cast<std::size_t>(v)], local);
        return false;
      },
      engine::VertexMapOptions{.track = false, .chunk = 64}, instr);
  return tc;
}

// Push-based NodeIterator: remote FAA increments, halved at the end.
template <class Instr = NullInstr>
std::vector<std::int64_t> triangle_count_push(const Csr& g, Instr instr = {}) {
  std::vector<std::int64_t> tc(static_cast<std::size_t>(g.n()), 0);
  engine::Workspace ws(g.n());
  engine::vertex_map(
      g.n(), ws,
      [&g, tcp = tc.data()](auto& ctx, vid_t v) {
        ctx.instr().code_region(21);
        const auto nb = g.neighbors(v);
        for (std::size_t i = 0; i < nb.size(); ++i) {
          for (std::size_t j = i + 1; j < nb.size(); ++j) {
            ctx.instr().read(&nb[i], sizeof(vid_t));
            ctx.instr().read(&nb[j], sizeof(vid_t));
            ctx.instr().branch_cond();
            if (detail::instr_has_edge(g, nb[i], nb[j], ctx.instr())) {
              // Write conflicts on integer counters → FAA (§4.2).
              ctx.add(tcp[static_cast<std::size_t>(nb[i])], std::int64_t{1});
              ctx.add(tcp[static_cast<std::size_t>(nb[j])], std::int64_t{1});
            }
          }
        }
        return false;
      },
      engine::VertexMapOptions{.track = false, .synchronized = true,
                               .chunk = 64},
      instr);
  // Each triangle was counted twice per vertex (once from each of the other
  // two centers).
  engine::vertex_map(
      g.n(), ws,
      [tcp = tc.data()](auto&, vid_t v) {
        PP_DCHECK(tcp[static_cast<std::size_t>(v)] % 2 == 0);
        tcp[static_cast<std::size_t>(v)] /= 2;
        return false;
      },
      engine::VertexMapOptions{.track = false}, instr);
  return tc;
}

// Production kernel: rank vertices by (degree, id); the forward (higher-
// ranked) adjacency forms a degree-ordered DigraphView, and one dense_push
// over it intersects the forward lists of each arc's endpoints. Discovers
// each triangle exactly once and credits all three corners.
std::vector<std::int64_t> triangle_count_fast(const Csr& g);

// Sum of per-vertex counts / 3 = number of distinct triangles.
std::int64_t total_triangles(const std::vector<std::int64_t>& tc);

}  // namespace pushpull
