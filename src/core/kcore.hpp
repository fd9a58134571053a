// k-core decomposition by peel-by-degree over the bucketed frontier.
//
// Vertices sit in engine::BucketedVertexSet buckets keyed by residual degree;
// popping the smallest bucket k yields exactly the vertices whose residual
// fell to ≤ k once every smaller core is gone — their coreness is k. The
// decrement of surviving neighbors stays an engine sparse_push (AtomicCtx's
// integer FAA), and the decremented survivors re-enter the structure at
// max(residual, k): the clamp folds same-wave cascades back into the bucket
// being peeled (Julienne's k-core formulation). The old per-k dense
// vertex_map scan is gone — work per wave is O(|peeled| + their arcs), and
// empty degree ranges cost nothing (the empty-bucket skip).
//
// core[v] = the largest k such that v belongs to a subgraph in which every
// vertex has degree ≥ k. Coreness is a unique fixed point, so the result is
// asserted equal to the sequential peel baseline::kcore.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/edge_map.hpp"
#include "engine/vertex_set.hpp"
#include "graph/csr.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct KcoreResult {
  std::vector<vid_t> core;  // coreness per vertex
  vid_t max_core = 0;       // degeneracy of the graph
  int rounds = 0;           // peel waves (popped buckets) across all k
};

namespace detail {

struct KcorePeel {
  vid_t* residual;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    // Integer FAA; peeled neighbors may drive residual negative, which the
    // bucket clamp treats the same as "at the current k". Returning true
    // hands the decremented target back so it can be re-bucketed; the dead
    // are filtered at insertion.
    ctx.add(residual[d], vid_t{-1});
    return true;
  }
};

}  // namespace detail

template <class Instr = NullInstr>
KcoreResult kcore_decomposition(const Csr& g, Instr instr = {}) {
  using key_t = engine::BucketedVertexSet::key_t;
  const vid_t n = g.n();
  KcoreResult r;
  r.core.assign(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> residual(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(n), 1);
  for (vid_t v = 0; v < n; ++v) residual[static_cast<std::size_t>(v)] = g.degree(v);

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 72;
  emo.dedup_output = true;  // each decremented neighbor reported once per wave

  engine::BucketedVertexSet buckets(n);
  for (vid_t v = 0; v < n; ++v) {
    buckets.insert(v, static_cast<key_t>(residual[static_cast<std::size_t>(v)]));
  }
  // Clamping to the popped bucket k makes cascade-decremented vertices
  // (residual now < k) members of the wave being peeled instead of stale
  // entries behind the window; coreness is monotone in peel order, so the
  // clamp never misassigns. Dead vertices are never scheduled again.
  const auto key_of = [&](vid_t v, key_t b) {
    if (!alive[static_cast<std::size_t>(v)]) {
      return engine::BucketedVertexSet::kInfKey;
    }
    const key_t res = static_cast<key_t>(residual[static_cast<std::size_t>(v)]);
    return res > b ? res : b;
  };

  std::vector<vid_t> peel;
  key_t k;
  while ((k = buckets.pop_bucket(peel, key_of)) !=
         engine::BucketedVertexSet::kInfKey) {
    ++r.rounds;
    for (const vid_t v : peel) {
      alive[static_cast<std::size_t>(v)] = 0;
      r.core[static_cast<std::size_t>(v)] = static_cast<vid_t>(k);
    }
    const engine::VertexSet touched = engine::sparse_push(
        g, ws, std::span<const vid_t>(peel),
        detail::KcorePeel{residual.data()}, emo, instr);
    for (const vid_t v : touched.ids()) {
      if (!alive[static_cast<std::size_t>(v)]) continue;
      const key_t res = static_cast<key_t>(residual[static_cast<std::size_t>(v)]);
      buckets.insert(v, res > k ? res : k);
    }
  }
  for (vid_t c : r.core) r.max_core = std::max(r.max_core, c);
  return r;
}

}  // namespace pushpull
