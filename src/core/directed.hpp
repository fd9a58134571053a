// Directed-graph push/pull kernels (§4.8), on the engine substrate.
//
// On digraphs the dichotomy becomes asymmetric: pushing iterates the
// *outgoing* arcs of the active vertices while pulling iterates the
// *incoming* arcs of the updated vertices, so the cost bounds trade d̂_out
// against d̂_in. engine::DigraphView carries that asymmetry into edge_map —
// sparse/dense push walk Digraph::out, dense/sparse pull walk Digraph::in.
// Pull keeps its defining zero-sync property on digraphs: the view changes
// which arcs are scanned, never the update context.
//
// The §4.8 pair runs the one kernel of each algorithm over the view: BFS is
// bfs_digraph_strategy (core/bfs.hpp, every §5 strategy), and
// pagerank_digraph below wraps the PageRank driver of core/pagerank.hpp.
// This header adds the directed riders the seam makes cheap:
// forward/backward reachability, and an FW-BW SCC decomposition whose
// backward passes run the *same* claim functor over view.reversed().
#pragma once

#include <cstdint>
#include <vector>

#include "core/bfs.hpp"
#include "core/direction.hpp"
#include "core/pagerank.hpp"
#include "engine/context.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "engine/policy.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

// Directed PageRank: rank flows along arc direction, r(v) depends on the
// in-neighbors' ranks scaled by their *out*-degrees. Dangling vertices
// (out-degree 0) redistribute uniformly.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<double> pagerank_digraph(const View& view,
                                     const PageRankOptions& opt,
                                     Direction dir, Instr instr = {}) {
  return detail::pagerank_sweeps(view, opt, dir, 0.0, instr,
                                 static_cast<obs::NullTracer*>(nullptr))
      .ranks;
}

template <class Instr = NullInstr>
std::vector<double> pagerank_digraph(const Digraph& g,
                                     const PageRankOptions& opt,
                                     Direction dir, Instr instr = {}) {
  PP_CHECK(g.in.n() == g.out.n());
  return pagerank_digraph(engine::DigraphView(g), opt, dir, instr);
}

// --- Reachability ------------------------------------------------------------

namespace detail {

// Claim an unvisited target, optionally restricted to one FW-BW subproblem.
struct ReachClaim {
  std::uint8_t* visited;
  const vid_t* sub = nullptr;  // nullptr: unrestricted
  vid_t sid = 0;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    if (sub != nullptr && sub[d] != sid) return false;
    if (ctx.load(visited[d])) return false;
    return ctx.claim(visited[d], std::uint8_t{0}, std::uint8_t{1});
  }
};

// Pull flavor: an unvisited vertex adopts reachability from any visited
// in-neighbor (monotone — rounds repeat until a sweep claims nothing).
struct ReachAdopt {
  std::uint8_t* visited;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return visited[v] == 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    if (!ctx.load(visited[u])) return false;
    ctx.store(visited[v], std::uint8_t{1});
    return true;
  }
};

}  // namespace detail

// Vertices reachable from `root` along arc direction (1 = reachable).
//   push — frontier rounds of sparse_push over out-arcs,
//   pull — dense_pull sweeps over in-arcs until no vertex flips.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<std::uint8_t> reachability_digraph(const View& view, vid_t root,
                                               Direction dir, Instr instr = {}) {
  const vid_t n = view.n();
  PP_CHECK(root >= 0 && root < n);
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(n), 0);
  visited[static_cast<std::size_t>(root)] = 1;
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 75;

  if (dir == Direction::Push) {
    engine::VertexSet frontier = engine::VertexSet::single(n, root);
    while (!frontier.empty()) {
      frontier = engine::sparse_push(
          view, ws, frontier, detail::ReachClaim{visited.data()}, emo, instr);
    }
  } else {
    for (;;) {
      const engine::VertexSet claimed = engine::dense_pull(
          view, ws, detail::ReachAdopt{visited.data()}, emo, instr);
      if (claimed.empty()) break;
    }
  }
  return visited;
}

template <class Instr = NullInstr>
std::vector<std::uint8_t> reachability_digraph(const Digraph& g, vid_t root,
                                               Direction dir, Instr instr = {}) {
  return reachability_digraph(engine::DigraphView(g), root, dir, instr);
}

// Strongly connected components via forward-backward reachability (the
// SCC-forward passes ride the same ReachClaim functor; the backward pass
// pushes over view.reversed(), i.e. along in-arcs). Returns a component id
// per vertex in [0, #scc).
std::vector<vid_t> scc_digraph(const Digraph& g);

}  // namespace pushpull
