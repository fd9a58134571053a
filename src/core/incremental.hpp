// Delta-driven incremental recomputation over DeltaGraph snapshots
// (ROADMAP: "Mutable graph storage + incremental recomputation").
//
// Each kernel here takes the *post-update* snapshot, the committed update
// batch, and the previous fixpoint, and repairs the fixpoint instead of
// recomputing it — the SumInc-style delta pass (SNIPPETS.md Snippet 1):
// re-propagation starts only from the vertices the batch touched, and work
// radiates outward exactly as far as values keep changing.
//
//   BFS  — inserted arcs can only shorten distances: CAS-min relax waves
//          seeded at insertion tails. Deleted arcs can only lengthen them:
//          a deletion is harmless iff its head keeps an in-neighbor on the
//          previous level (then the old level is still achievable, and by
//          induction the whole labeling still is); otherwise fall back to a
//          full BFS.
//   CC   — min-label invariant: inserted edges merge components, so label
//          repair floods the smaller label from the insertion endpoints.
//          A deleted edge whose endpoints stay weakly connected in the new
//          graph cannot split anything (any old path can be patched through
//          the surviving connection); a disconnect is a monotone break —
//          labels would have to *grow* — so repair falls back to recompute.
//
// PageRank has no repair here: the service serves it cold
// (pagerank_converged, core/pagerank.hpp).
//
// Both kernels are differentially tested against full recompute on the same
// snapshot (tests/test_incremental.cpp); perfbench's ingest_repair workload
// times the BFS and CC repairs per commit batch and checks every answer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "graph/delta_graph.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct IncrementalStats {
  bool fell_back = false;  // repair degenerated to full recompute
  int repair_rounds = 0;   // localized rounds run
};

namespace detail {

// RAII repair span: one 'X' event per incremental kernel invocation, tagged
// with the outcome (mode = "incremental" or "fell-back") read from the stats
// the kernel filled — recorded at scope exit so every return path, including
// the fallback ones, is covered.
template <class TracerT>
class RepairSpan {
 public:
  RepairSpan(TracerT* t, const char* name,
             const IncrementalStats* st) noexcept {
    if (obs::tracing(t)) {
      t_ = t;
      name_ = name;
      st_ = st;
      t0_ = obs::now_ns();
    }
  }

  RepairSpan(const RepairSpan&) = delete;
  RepairSpan& operator=(const RepairSpan&) = delete;

  ~RepairSpan() {
    if (t_ == nullptr) return;
    obs::TraceEvent ev;
    ev.name = name_;
    ev.cat = "repair";
    ev.ts_ns = t0_;
    ev.dur_ns = obs::now_ns() - t0_;
    ev.mode = st_->fell_back ? "fell-back" : "incremental";
    ev.arg("fell_back", st_->fell_back ? 1.0 : 0.0)
        .arg("repair_rounds", static_cast<double>(st_->repair_rounds));
    t_->record(ev);
  }

 private:
  TracerT* t_ = nullptr;
  const char* name_ = nullptr;
  const IncrementalStats* st_ = nullptr;
  std::uint64_t t0_ = 0;
};

}  // namespace detail

namespace detail {

// Min-label flood to the weak fixpoint from `changed`: each round pushes
// labels along out-arcs and, on a digraph, along in-arcs too, then merges the
// two changed sets. Returns the number of rounds.
template <engine::GraphView View, class Instr>
int weak_cc_flood(const View& view, std::vector<vid_t>& comp,
                  engine::VertexSet changed, int region, Instr instr) {
  const vid_t n = view.n();
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = region;
  emo.dedup_output = true;
  const CcPropagate propagate{comp.data(), nullptr};
  int rounds = 0;
  for (; !changed.empty(); ++rounds) {
    engine::VertexSet fwd =
        engine::sparse_push(view.out(), ws, changed, propagate, emo, instr);
    if (view.is_symmetric()) {
      changed = std::move(fwd);
      continue;
    }
    engine::VertexSet bwd =
        engine::sparse_push(view.in(), ws, changed, propagate, emo, instr);
    std::vector<vid_t> merged(fwd.ids().begin(), fwd.ids().end());
    merged.insert(merged.end(), bwd.ids().begin(), bwd.ids().end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    changed = engine::VertexSet(n, std::move(merged));
  }
  return rounds;
}

}  // namespace detail

// --- Full-recompute comparators over a GraphView -----------------------------
// (BFS levels: bfs_levels, core/bfs.hpp.)

// Weakly-connected component labels: comp[v] = smallest vertex id reachable
// from v ignoring arc direction. On a symmetric view this is exactly
// connected_components(); on a digraph, min labels propagate along out- and
// in-arcs until a joint fixpoint.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<vid_t> cc_labels(const View& view, Instr instr = {}) {
  if (view.is_symmetric()) return connected_components(view.out(), {}, instr).comp;
  const vid_t n = view.n();
  std::vector<vid_t> comp(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) comp[static_cast<std::size_t>(v)] = v;
  if (n == 0) return comp;
  detail::weak_cc_flood(view, comp, engine::VertexSet::all(n), 80, instr);
  return comp;
}

// --- Incremental BFS ---------------------------------------------------------

namespace detail {

// CAS-min distance relaxation that treats -1 as +inf: an improved source
// re-relaxes its out-arcs until every label is the true (new) distance.
struct BfsRelax {
  vid_t* dist;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    const vid_t nd = ctx.load(dist[s]) + 1;
    vid_t cur = ctx.load(dist[d]);
    while (cur < 0 || cur > nd) {
      if (ctx.claim(dist[d], cur, nd)) return true;
      cur = ctx.load(dist[d]);
    }
    return false;
  }
};

}  // namespace detail

// Repairs BFS levels after one committed batch. `prev` is the fixpoint on the
// pre-update snapshot; `view` is the post-update snapshot. Exact: the result
// equals bfs_levels(view, root).
template <engine::GraphView View, class Instr = NullInstr,
          class TracerT = obs::NullTracer>
std::vector<vid_t> incremental_bfs(const View& view,
                                   std::span<const EdgeUpdate> updates,
                                   vid_t root, const std::vector<vid_t>& prev,
                                   IncrementalStats* stats = nullptr,
                                   Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = view.n();
  PP_CHECK(root >= 0 && root < n);
  PP_CHECK(prev.size() == static_cast<std::size_t>(n));
  PP_CHECK(prev[static_cast<std::size_t>(root)] == 0);
  IncrementalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};
  const detail::RepairSpan<TracerT> span(tracer, "incremental_bfs", stats);
  std::vector<vid_t> dist = prev;

  // Deletions first (Ramalingam–Reps style): dropping the arc u→v can only
  // matter when it supplied v's level and no other in-neighbor still does.
  // Such orphans cascade — a vertex whose every level-supplying in-neighbor
  // went orphaned is orphaned too — and the affected region's new (weakly
  // larger) levels are then re-settled from its supported boundary with a
  // small heap. Work is proportional to the affected region; only a blast
  // radius rivaling the graph falls back to full recompute.
  std::vector<vid_t> orphans;  // also the scan stack
  std::vector<std::uint8_t> orphaned(static_cast<std::size_t>(n), 0);
  const auto orphan = [&](vid_t v) {
    if (dist[static_cast<std::size_t>(v)] < 1 ||
        orphaned[static_cast<std::size_t>(v)]) {
      return;
    }
    orphaned[static_cast<std::size_t>(v)] = 1;
    orphans.push_back(v);
  };
  const auto supported = [&](vid_t v) {
    const vid_t want = dist[static_cast<std::size_t>(v)] - 1;
    for (vid_t w : view.in().neighbors(v)) {
      if (!orphaned[static_cast<std::size_t>(w)] &&
          dist[static_cast<std::size_t>(w)] == want) {
        return true;
      }
    }
    return false;
  };
  const auto seed_orphan = [&](vid_t u, vid_t v) {
    if (dist[static_cast<std::size_t>(v)] >= 1 &&
        dist[static_cast<std::size_t>(u)] ==
            dist[static_cast<std::size_t>(v)] - 1 &&
        !supported(v)) {
      orphan(v);
    }
  };
  for (const EdgeUpdate& up : updates) {
    if (up.insert) continue;
    seed_orphan(up.u, up.v);
    if (view.is_symmetric()) seed_orphan(up.v, up.u);
  }
  for (std::size_t head = 0; head < orphans.size(); ++head) {
    if (orphans.size() > static_cast<std::size_t>(n) / 4) {
      stats->fell_back = true;
      return bfs_levels(view, root, instr);
    }
    const vid_t w = orphans[head];
    for (vid_t y : view.out().neighbors(w)) {
      if (!orphaned[static_cast<std::size_t>(y)] &&
          dist[static_cast<std::size_t>(y)] ==
              dist[static_cast<std::size_t>(w)] + 1 &&
          !supported(y)) {
        orphan(y);
      }
    }
  }
  if (!orphans.empty()) {
    // Re-settle the orphans in level order from their supported boundary.
    // Levels only grow under deletions, so a settled vertex is final.
    using HeapItem = std::pair<vid_t, vid_t>;  // (tentative level, vertex)
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    for (vid_t v : orphans) {
      vid_t best = -1;
      for (vid_t w : view.in().neighbors(v)) {
        const vid_t dw = dist[static_cast<std::size_t>(w)];
        if (orphaned[static_cast<std::size_t>(w)] || dw < 0) continue;
        if (best < 0 || dw + 1 < best) best = dw + 1;
      }
      dist[static_cast<std::size_t>(v)] = -1;
      if (best >= 0) heap.emplace(best, v);
    }
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (!orphaned[static_cast<std::size_t>(v)]) continue;  // already settled
      orphaned[static_cast<std::size_t>(v)] = 0;
      dist[static_cast<std::size_t>(v)] = d;
      for (vid_t y : view.out().neighbors(v)) {
        if (orphaned[static_cast<std::size_t>(y)]) heap.emplace(d + 1, y);
      }
    }
    stats->repair_rounds += static_cast<int>(orphans.size());
  }

  // Insertions can only shorten distances: seed relax waves at every
  // insertion tail that is itself reachable (on a symmetric view the edge
  // carries both directions, so both endpoints seed). Re-settled orphans seed
  // too: the heap ran on the post-update snapshot, so an orphan can settle
  // *below* its previous level through an arc inserted this batch, and that
  // improvement has to reach its non-orphaned neighbors through the wave.
  std::vector<vid_t> seeds;
  for (const EdgeUpdate& up : updates) {
    if (!up.insert) continue;
    if (dist[static_cast<std::size_t>(up.u)] >= 0) seeds.push_back(up.u);
    if (view.is_symmetric() && dist[static_cast<std::size_t>(up.v)] >= 0) {
      seeds.push_back(up.v);
    }
  }
  for (const vid_t v : orphans) {
    if (dist[static_cast<std::size_t>(v)] >= 0) seeds.push_back(v);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  if (seeds.empty()) return dist;

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 82;
  emo.dedup_output = true;
  engine::VertexSet frontier(n, std::move(seeds));
  while (!frontier.empty()) {
    frontier = engine::sparse_push(view.out(), ws, frontier,
                                   detail::BfsRelax{dist.data()}, emo, instr);
    ++stats->repair_rounds;
  }
  return dist;
}

// --- Incremental connected components ----------------------------------------

namespace detail {

enum class CcProbe {
  kConnected,  // found `to` — the deletion did not split anything
  kSplit,      // exhausted `from`'s side without reaching `to`; side in *members
  kBudget,     // budget ran out first — undecided
};

// Bounded sequential probe: walk weak arcs from `from` inside the old
// component (old labels bound the search) looking for `to`. On real graphs a
// surviving alternative path is two or three hops, so a tiny budget settles
// most deletions; when `from` sits in a small split-off piece the walk
// instead exhausts it and hands the caller its full member list for
// relabeling. Budget is spent per arc, so even a tiny budget makes progress
// through a hub's adjacency instead of refusing to look at it.
template <engine::GraphView View>
CcProbe cc_probe(const View& view, const std::vector<vid_t>& comp, vid_t from,
                 vid_t to, std::size_t budget, std::vector<vid_t>* members) {
  const vid_t label = comp[static_cast<std::size_t>(from)];
  std::vector<std::uint8_t> seen(comp.size(), 0);
  std::vector<vid_t> queue{from};
  seen[static_cast<std::size_t>(from)] = 1;
  bool found = false;
  std::size_t head = 0;
  for (; head < queue.size() && !found && budget > 0; ++head) {
    const vid_t x = queue[head];
    auto expand = [&](std::span<const vid_t> nbrs) {
      for (vid_t y : nbrs) {
        if (budget == 0 || found) return;
        --budget;
        if (seen[static_cast<std::size_t>(y)]) continue;
        if (comp[static_cast<std::size_t>(y)] != label) continue;
        seen[static_cast<std::size_t>(y)] = 1;
        if (y == to) {
          found = true;
          return;
        }
        queue.push_back(y);
      }
    };
    expand(view.out().neighbors(x));
    if (!view.is_symmetric() && !found) expand(view.in().neighbors(x));
  }
  if (found) return CcProbe::kConnected;
  // budget == 0 may have truncated the last expansion, so only a walk that
  // drained its queue with budget to spare has provably seen the whole side.
  if (head < queue.size() || budget == 0) return CcProbe::kBudget;
  *members = std::move(queue);
  return CcProbe::kSplit;
}

}  // namespace detail

// Repairs weak-CC labels after one committed batch. Exact: the result equals
// cc_labels(view).
template <engine::GraphView View, class Instr = NullInstr,
          class TracerT = obs::NullTracer>
std::vector<vid_t> incremental_cc(const View& view,
                                  std::span<const EdgeUpdate> updates,
                                  const std::vector<vid_t>& prev,
                                  IncrementalStats* stats = nullptr,
                                  Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = view.n();
  PP_CHECK(prev.size() == static_cast<std::size_t>(n));
  IncrementalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};
  const detail::RepairSpan<TracerT> span(tracer, "incremental_cc", stats);

  std::vector<vid_t> comp = prev;

  // Deletions: endpoints that stay weakly connected cannot split a component
  // (patch any old path through the surviving connection). Each deletion runs
  // a tiered probe — cheap local searches from either endpoint first, the big
  // budget only on failure — and a probe that exhausts one side without
  // reaching the other has enumerated a genuine split-off piece, which is
  // relabeled to its minimum id in place (the side holding the old component
  // minimum keeps its label, so the probe ladder hunts the other side). Pre-
  // update arcs never cross old labels, so the piece can only rejoin the rest
  // through edges inserted this batch, and those seed the merge flood below.
  // Only an undecidable deletion — the relabel-able side larger than the big
  // budget — falls back to full recompute.
  const std::size_t big_budget = std::max<std::size_t>(
      256, static_cast<std::size_t>(view.num_arcs()) / 8);
  for (const EdgeUpdate& up : updates) {
    if (up.insert || up.u == up.v) continue;
    if (comp[static_cast<std::size_t>(up.u)] !=
        comp[static_cast<std::size_t>(up.v)]) {
      continue;  // an earlier split this batch already separated them
    }
    // Probe attempts in rising cost; a split side that contains the old
    // component minimum keeps its label (the *other* side must be relabeled,
    // and a later attempt from the other endpoint enumerates exactly it).
    const std::pair<vid_t, std::size_t> attempts[4] = {
        {up.u, 256}, {up.v, 256}, {up.u, big_budget}, {up.v, big_budget}};
    bool decided = false;
    for (const auto& [from, budget] : attempts) {
      std::vector<vid_t> side;
      const detail::CcProbe r = detail::cc_probe(
          view, comp, from, from == up.u ? up.v : up.u, budget, &side);
      if (r == detail::CcProbe::kBudget) continue;
      if (r == detail::CcProbe::kSplit) {
        vid_t fresh = side[0];
        for (vid_t w : side) fresh = std::min(fresh, w);
        if (fresh == comp[static_cast<std::size_t>(side[0])]) continue;
        for (vid_t w : side) comp[static_cast<std::size_t>(w)] = fresh;
        ++stats->repair_rounds;
      }
      decided = true;  // connected, or the split side relabeled
      break;
    }
    if (!decided) {
      stats->fell_back = true;
      return cc_labels(view, instr);
    }
  }

  // Insertions only merge: flood the smaller label from the endpoints of
  // every inserted edge until the joint fixpoint.
  std::vector<vid_t> seeds;
  for (const EdgeUpdate& up : updates) {
    if (!up.insert) continue;
    seeds.push_back(up.u);
    seeds.push_back(up.v);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  if (seeds.empty()) return comp;

  stats->repair_rounds += detail::weak_cc_flood(
      view, comp, engine::VertexSet(n, std::move(seeds)), 83, instr);
  return comp;
}

}  // namespace pushpull
