// Δ-Stepping single-source shortest paths (§3.4, §4.4, Algorithm 4), on the
// engine substrate.
//
// Vertices are grouped into buckets of width Δ by tentative distance and
// buckets are processed in order; within a bucket, relaxations repeat until
// the bucket stops changing (an *epoch* of inner iterations).
//
//   push — engine::dense_push over the active set: each active vertex relaxes
//          its out-edges; concurrent writes to d[w] resolve through
//          AtomicCtx::min (one CAS-accounted atomic per improving
//          relaxation). The engine's dedup bitmap plays active_next.
//   pull — engine::dense_pull: every unsettled vertex scans its neighbors for
//          members of the current bucket and relaxes *itself* through
//          PlainCtx (thread-private writes), re-reading all edges of all
//          unsettled vertices every inner iteration (the O((L/Δ)·m·l_Δ) read
//          conflicts of §4.4).
//
// Δ controls the tradeoff: Δ→∞ degenerates to Bellman-Ford (one big bucket),
// Δ→0 to Dijkstra-like settling. Figure 2c sweeps Δ.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/direction.hpp"
#include "engine/edge_map.hpp"
#include "graph/csr.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pushpull {

struct DeltaSteppingResult {
  std::vector<weight_t> dist;       // +inf = unreachable
  int epochs = 0;                   // number of processed buckets
  int inner_iterations = 0;         // total relaxation rounds
  std::vector<double> epoch_times;  // wall seconds per bucket epoch
};

// Δ-bucket arithmetic, public so the distributed Δ-stepping kernel
// (dist/sssp_dist.hpp) reuses exactly the same mapping instead of copying it:
// any divergence here would silently break the dist-vs-core equality tests.
inline constexpr weight_t kInfWeight = std::numeric_limits<weight_t>::infinity();

inline std::int64_t bucket_of(weight_t d, weight_t delta) noexcept {
  return d == kInfWeight ? std::numeric_limits<std::int64_t>::max()
                         : static_cast<std::int64_t>(d / delta);
}

namespace detail {

inline constexpr weight_t kInf = kInfWeight;

using pushpull::bucket_of;

// Smallest bucket index > b over all vertices; max() if none.
inline std::int64_t next_bucket(const std::vector<weight_t>& d, weight_t delta,
                                std::int64_t b) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
#pragma omp parallel for reduction(min : best) schedule(static)
  for (std::size_t v = 0; v < d.size(); ++v) {
    const std::int64_t bv = bucket_of(d[v], delta);
    if (bv > b && bv < best) best = bv;
  }
  return best;
}

// Push relaxation of one out-edge. Every improving CAS winner reports its
// target: the kernel routes same-bucket winners back into the running epoch
// and enqueues future-bucket winners into the BucketedVertexSet (positive
// weights make earlier-bucket landings impossible — nd > dv ≥ b·Δ).
template <CsrLike G>
struct SsspPushRelax {
  const G* g;
  weight_t* dist;
  weight_t delta;
  std::int64_t b;

  template <class Ctx>
  weight_t source_data(Ctx&, vid_t s) const {
    return atomic_load(dist[s]);
  }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t e, weight_t dv) const {
    const weight_t nd = dv + g->edge_weight(e);
    if (nd < ctx.load(dist[d])) {
      // Relaxation via CAS (write conflict, §4.4).
      if (ctx.min(dist[d], nd)) return true;
    }
    return false;
  }
};

// Pull relaxation: an unsettled vertex relaxes itself against bucket-b
// neighbors (only those that changed last round, after round 0).
template <CsrLike G>
struct SsspPullRelax {
  const G* g;
  weight_t* dist;
  const DenseFrontier* changed_last;  // null on the epoch's first round
  weight_t delta;
  std::int64_t b;

  bool cond(vid_t v) const { return bucket_of(dist[v], delta) >= b; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t w, vid_t v, eid_t e) const {
    const weight_t dw = ctx.load(dist[w]);
    if (bucket_of(dw, delta) != b) return false;
    if (changed_last != nullptr && !changed_last->test(w) && w != v) return false;
    ctx.instr().read(&g->weight_array()[static_cast<std::size_t>(e)],
                     sizeof(weight_t));
    const weight_t nd = dw + g->edge_weight(e);
    // Thread-private write: v is owned by the iterating thread.
    return ctx.min(dist[v], nd) && bucket_of(nd, delta) == b;
  }
};

}  // namespace detail

template <CsrLike G, class Instr = NullInstr>
DeltaSteppingResult sssp_delta_push(const G& g, vid_t src, weight_t delta,
                                    Instr instr = {}) {
  PP_CHECK(g.has_weights());
  PP_CHECK(src >= 0 && src < g.n());
  PP_CHECK(delta > 0);
  const vid_t n = g.n();
  DeltaSteppingResult r;
  r.dist.assign(static_cast<std::size_t>(n), detail::kInf);
  r.dist[static_cast<std::size_t>(src)] = 0;

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 30;
  emo.dedup_output = true;  // the engine bitmap is Algorithm 4's active_next

  // The bucket structure IS the epoch driver: vertices are enqueued at their
  // tentative bucket the moment a relaxation wins, so finding the next
  // non-empty bucket is a pop instead of the old O(n) next_bucket reduction,
  // and the epoch's initial active set is the popped (validated, deduped)
  // bucket instead of an O(n) vertex_map filter. bucket_of maps +inf to
  // int64 max == kInfKey, so unreachable vertices are never scheduled.
  engine::BucketedVertexSet buckets(n);
  buckets.insert(src, 0);
  const auto key_of = [&](vid_t v, engine::BucketedVertexSet::key_t) {
    return bucket_of(r.dist[static_cast<std::size_t>(v)], delta);
  };

  std::vector<vid_t> members;
  std::int64_t b;
  while ((b = buckets.pop_bucket(members, key_of)) !=
         engine::BucketedVertexSet::kInfKey) {
    WallTimer epoch_timer;
    engine::VertexSet active(n, std::move(members));
    while (!active.empty()) {
      ++r.inner_iterations;
      engine::VertexSet out = engine::dense_push(
          g, ws, &active,
          detail::SsspPushRelax<G>{&g, r.dist.data(), delta, b}, emo, instr);
      // Split the improved targets: same-bucket winners re-activate within
      // this epoch (Algorithm 4's active_next), later-bucket winners enqueue
      // lazily — stale entries from further improvements are filtered at pop.
      active.clear();
      std::vector<vid_t>& next_ids = active.mutable_ids();
      for (const vid_t v : out.ids()) {
        const std::int64_t bv =
            bucket_of(r.dist[static_cast<std::size_t>(v)], delta);
        if (bv == b) {
          next_ids.push_back(v);
        } else {
          buckets.insert(v, bv);
        }
      }
    }
    r.epoch_times.push_back(epoch_timer.elapsed_s());
    ++r.epochs;
  }
  return r;
}

template <CsrLike G, class Instr = NullInstr>
DeltaSteppingResult sssp_delta_pull(const G& g, vid_t src, weight_t delta,
                                    Instr instr = {}) {
  PP_CHECK(g.has_weights());
  PP_CHECK(src >= 0 && src < g.n());
  PP_CHECK(delta > 0);
  const vid_t n = g.n();
  DeltaSteppingResult r;
  r.dist.assign(static_cast<std::size_t>(n), detail::kInf);
  r.dist[static_cast<std::size_t>(src)] = 0;

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 31;

  std::int64_t b = 0;
  while (b != std::numeric_limits<std::int64_t>::max()) {
    WallTimer epoch_timer;
    engine::VertexSet changed(n);
    bool first_round = true;
    for (;;) {
      ++r.inner_iterations;
      engine::VertexSet out = engine::dense_pull(
          g, ws,
          detail::SsspPullRelax<G>{&g, r.dist.data(),
                                   first_round ? nullptr : &changed.dense(),
                                   delta, b},
          emo, instr);
      first_round = false;
      if (out.empty()) break;
      changed = std::move(out);
    }
    r.epoch_times.push_back(epoch_timer.elapsed_s());
    ++r.epochs;
    b = detail::next_bucket(r.dist, delta, b);
  }
  return r;
}

// Convenience dispatcher.
template <CsrLike G, class Instr = NullInstr>
DeltaSteppingResult sssp_delta(const G& g, vid_t src, weight_t delta,
                               Direction dir, Instr instr = {}) {
  return dir == Direction::Push ? sssp_delta_push(g, src, delta, instr)
                                : sssp_delta_pull(g, src, delta, instr);
}

}  // namespace pushpull
