// Borůvka on the engine substrate (§3.7, §4.7, Algorithm 7; Figure 4 phases).
//
// The three phases of every iteration are engine rounds now:
//
//   Find-Minimum  push — one sparse_push over the member vertices of the
//                 active supervertices: every cut arc (v, w) performs an
//                 atomic minimum on min_edge[comp(w)] (CAS-accounted write
//                 conflicts, §4.7). Every cut edge is seen from both sides,
//                 so each slot still receives its true minimum.
//                 pull — two zero-sync pull maps: a sparse_pull over the same
//                 member vertices folds each vertex's best cut arc into its
//                 own cand[v] (thread-private), then a dense_pull over the
//                 per-iteration *membership CSR* (supervertex → members, an
//                 in-CSR like any other) min-reduces cand into min_edge[f].
//   Build-Merge-Tree — hook, 2-cycle break and pointer jumping are sparse
//                 vertex_map rounds over the active list.
//   Merge         — sequential component bookkeeping (list splicing + tree
//                 edge emission) plus a dense vertex_map relabeling comp.
//
// Candidates are packed as (weight bits << 32 | canonical arc id), which
// makes the minimum unique and both variants bit-deterministic: the forest is
// the one Kruskal selects under the same tie-break
// (baseline::kruskal_msf_edges), as tests/test_mst.cpp asserts.
#include "core/mst_boruvka.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <limits>

#include "engine/edge_map.hpp"
#include "sync/atomics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pushpull {

namespace {

constexpr std::uint64_t kNoEdge = std::numeric_limits<std::uint64_t>::max();

// Packs (weight, canonical arc) so that unsigned comparison orders by weight
// first and breaks ties by the *undirected* edge identity. Using a canonical
// arc id (the smaller of the two directions) gives every component the same
// global total order on cut edges, which guarantees the Boruvka hooking
// graph contains no cycles longer than 2 — even with fully tied weights.
// Valid for non-negative finite floats, whose IEEE bit patterns are monotone
// under unsigned integer comparison.
std::uint64_t pack_candidate(weight_t w, eid_t canonical_arc) {
  PP_DCHECK(w >= 0);
  PP_DCHECK(canonical_arc >= 0 && canonical_arc < (eid_t{1} << 32));
  const std::uint32_t wbits = std::bit_cast<std::uint32_t>(w);
  return (static_cast<std::uint64_t>(wbits) << 32) |
         static_cast<std::uint32_t>(canonical_arc);
}

eid_t unpack_arc(std::uint64_t packed) {
  return static_cast<eid_t>(packed & 0xffffffffULL);
}

// FM push: cut arcs override the *neighbor* component's candidate slot
// (atomic minimum through the synchronized context).
template <class Graph>
struct FmPush {
  const Graph* g;
  const vid_t* comp;
  const eid_t* canonical;
  std::uint64_t* min_edge;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t e) const {
    const vid_t fs = comp[s];
    const vid_t fd = ctx.load(comp[d]);
    if (fd == fs) return false;
    ctx.instr().read(&g->weight_array()[static_cast<std::size_t>(e)],
                     sizeof(weight_t));
    ctx.min(min_edge[fd],
            pack_candidate(g->edge_weight(e),
                           canonical[static_cast<std::size_t>(e)]));
    return false;
  }
};

// FM pull, stage 1: each member vertex folds its best cut arc into its own
// cand[v] — thread-private, the defining pull property.
template <class Graph>
struct FmVertexPull {
  const Graph* g;
  const vid_t* comp;
  const eid_t* canonical;
  std::uint64_t* cand;

  template <class Ctx>
  void begin_dest(Ctx&, vid_t v) const {
    cand[v] = kNoEdge;
  }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t e) const {
    const vid_t fv = comp[v];
    const vid_t fu = ctx.load(comp[u]);
    if (fu == fv) return false;
    ctx.instr().read(&g->weight_array()[static_cast<std::size_t>(e)],
                     sizeof(weight_t));
    ctx.min(cand[v],
            pack_candidate(g->edge_weight(e),
                           canonical[static_cast<std::size_t>(e)]));
    return false;
  }
};

// FM pull, stage 2: min-reduce cand over the membership CSR. The iterated
// "vertex" is the index of a supervertex in the active list; its
// "in-neighbors" are the member vertices.
struct FmReduce {
  const vid_t* active;
  const std::uint64_t* cand;
  std::uint64_t* min_edge;

  template <class Ctx>
  void begin_dest(Ctx&, vid_t i) const {
    min_edge[active[i]] = kNoEdge;
  }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t member, vid_t i, eid_t) const {
    ctx.min(min_edge[active[i]], ctx.load(cand[member]));
    return false;
  }
};

template <class Instr>
BoruvkaResult run(const Csr& g, Direction dir, Instr instr) {
  PP_CHECK(g.has_weights() || g.num_arcs() == 0);
  PP_CHECK(g.num_arcs() < (eid_t{1} << 32));
  const vid_t n = g.n();
  BoruvkaResult result;
  if (n == 0) return result;

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.track_output = false;

  // Arc source lookup and canonical (direction-independent) arc ids: one
  // vertex_map filling each vertex's (thread-owned) arc range.
  std::vector<vid_t> arc_src(static_cast<std::size_t>(g.num_arcs()));
  std::vector<eid_t> canonical(static_cast<std::size_t>(g.num_arcs()));
  engine::vertex_map(
      n, ws,
      [&](auto&, vid_t v) {
        for (eid_t e = g.edge_begin(v); e < g.edge_end(v); ++e) {
          arc_src[static_cast<std::size_t>(e)] = v;
          const vid_t w = g.edge_target(e);
          // Reverse arc: position of v in N(w) (sorted adjacency).
          const auto nb = g.neighbors(w);
          const auto it = std::lower_bound(nb.begin(), nb.end(), v);
          PP_DCHECK(it != nb.end() && *it == v);
          const eid_t rev = g.edge_begin(w) + (it - nb.begin());
          canonical[static_cast<std::size_t>(e)] = std::min(e, rev);
        }
        return false;
      },
      engine::VertexMapOptions{.track = false, .chunk = 256}, instr);

  std::vector<vid_t> comp(static_cast<std::size_t>(n));
  std::vector<std::vector<vid_t>> members(static_cast<std::size_t>(n));
  std::vector<vid_t> active;
  active.reserve(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    comp[static_cast<std::size_t>(v)] = v;
    members[static_cast<std::size_t>(v)] = {v};
    active.push_back(v);
  }

  std::vector<std::uint64_t> min_edge(static_cast<std::size_t>(n), kNoEdge);
  std::vector<std::uint64_t> cand(static_cast<std::size_t>(n), kNoEdge);
  std::vector<vid_t> parent(static_cast<std::size_t>(n));
  std::vector<vid_t> flat;  // member vertices of active supervertices
  flat.reserve(static_cast<std::size_t>(n));

  while (true) {
    BoruvkaPhaseTimes phases;

    // --- Phase 1: Find Minimum (FM) -------------------------------------
    {
      WallTimer t;
      // Flatten the active membership: the vertex set both FM directions map
      // over, and (for pull) the adjacency of the membership CSR.
      flat.clear();
      std::vector<eid_t> flat_off;
      flat_off.reserve(active.size() + 1);
      flat_off.push_back(0);
      for (vid_t f : active) {
        const auto& m = members[static_cast<std::size_t>(f)];
        flat.insert(flat.end(), m.begin(), m.end());
        flat_off.push_back(static_cast<eid_t>(flat.size()));
      }

      if (dir == Direction::Pull) {
        emo.region = 50;
        engine::sparse_pull(
            g, ws, std::span<const vid_t>(flat),
            FmVertexPull<Csr>{&g, comp.data(), canonical.data(), cand.data()},
            emo, instr);
        const Csr membership(std::move(flat_off), std::vector<vid_t>(flat));
        emo.region = 52;
        engine::dense_pull(
            membership, ws,
            FmReduce{active.data(), cand.data(), min_edge.data()}, emo, instr);
      } else {
        for (vid_t f : active) min_edge[static_cast<std::size_t>(f)] = kNoEdge;
        emo.region = 51;
        engine::sparse_push(
            g, ws, std::span<const vid_t>(flat),
            FmPush<Csr>{&g, comp.data(), canonical.data(), min_edge.data()},
            emo, instr);
      }
      phases.find_minimum_s = t.elapsed_s();
    }

    // --- Phase 2: Build Merge Tree (BMT) ----------------------------------
    bool any_merge = false;
    {
      WallTimer t;
      const std::span<const vid_t> active_span(active);
      // Hook every supervertex across its minimum edge. The canonical arc is
      // direction-free: the partner is whichever endpoint is not in f.
      engine::vertex_map(
          n, ws, active_span,
          [&](auto&, vid_t f) {
            const std::uint64_t c = min_edge[static_cast<std::size_t>(f)];
            if (c == kNoEdge) {
              parent[static_cast<std::size_t>(f)] = f;
              return false;
            }
            const eid_t arc = unpack_arc(c);
            const vid_t ca = comp[static_cast<std::size_t>(
                arc_src[static_cast<std::size_t>(arc)])];
            const vid_t cb = comp[static_cast<std::size_t>(g.edge_target(arc))];
            PP_DCHECK(ca == f || cb == f);
            parent[static_cast<std::size_t>(f)] = ca == f ? cb : ca;
            return false;
          },
          engine::VertexMapOptions{.track = false}, instr);
      // Break 2-cycles: the smaller endpoint becomes the root. Cycles longer
      // than 2 cannot occur thanks to the global edge order (see
      // pack_candidate).
      engine::vertex_map(
          n, ws, active_span,
          [&](auto&, vid_t f) {
            const vid_t p = parent[static_cast<std::size_t>(f)];
            if (p != f && parent[static_cast<std::size_t>(p)] == f && f < p) {
              parent[static_cast<std::size_t>(f)] = f;
            }
            return false;
          },
          engine::VertexMapOptions{.track = false}, instr);
      // Pointer jumping to full compression: rounds end when no parent moves.
      for (;;) {
        const engine::VertexSet changed = engine::vertex_map(
            n, ws, active_span,
            [&](auto&, vid_t f) {
              const vid_t p = parent[static_cast<std::size_t>(f)];
              const vid_t gp = parent[static_cast<std::size_t>(p)];
              if (p == gp) return false;
              parent[static_cast<std::size_t>(f)] = gp;
              return true;
            },
            engine::VertexMapOptions{.track = true}, instr);
        if (changed.empty()) break;
      }
      phases.build_merge_tree_s = t.elapsed_s();
    }

    // --- Phase 3: Merge (M) -------------------------------------------------
    {
      WallTimer t;
      std::vector<vid_t> next_active;
      for (vid_t f : active) {
        const vid_t root = parent[static_cast<std::size_t>(f)];
        if (root == f) {
          if (min_edge[static_cast<std::size_t>(f)] != kNoEdge) {
            next_active.push_back(f);
          }
          continue;
        }
        any_merge = true;
        // Record f's minimum edge in the MST (each non-root contributes
        // exactly one distinct edge of the merge forest).
        const eid_t arc = unpack_arc(min_edge[static_cast<std::size_t>(f)]);
        result.tree_edges.emplace_back(arc_src[static_cast<std::size_t>(arc)],
                                       g.edge_target(arc));
        result.total_weight += g.edge_weight(arc);
        // Move members into the root's list.
        auto& src = members[static_cast<std::size_t>(f)];
        auto& dst = members[static_cast<std::size_t>(root)];
        dst.insert(dst.end(), src.begin(), src.end());
        src.clear();
        src.shrink_to_fit();
      }
      // Relabel vertices of merged components.
      engine::vertex_map(
          n, ws,
          [&](auto&, vid_t v) {
            comp[static_cast<std::size_t>(v)] =
                parent[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])];
            return false;
          },
          engine::VertexMapOptions{.track = false}, instr);
      active.swap(next_active);
      phases.merge_s = t.elapsed_s();
    }

    result.phase_times.push_back(phases);
    ++result.iterations;
    if (!any_merge) break;
  }
  return result;
}

}  // namespace

namespace detail {

BoruvkaResult mst_boruvka_impl(const Csr& g, Direction dir, NullInstr instr) {
  return run(g, dir, instr);
}
BoruvkaResult mst_boruvka_impl(const Csr& g, Direction dir, CountingInstr instr) {
  return run(g, dir, instr);
}
BoruvkaResult mst_boruvka_impl(const Csr& g, Direction dir, CacheSimInstr instr) {
  return run(g, dir, instr);
}

}  // namespace detail

}  // namespace pushpull
