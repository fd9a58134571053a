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
//   PR   — the fixpoint factors as pr = β·s over the base-response system
//          s = 1 + f·Mᵀs (no dangling feedback), so the batch-induced global
//          dangling-mass shift is cancelled analytically by rescaling the
//          warm start with the closed-form β ratio; the leftover spiky error
//          is collapsed by per-vertex Aitken Δ² steps between certification
//          sweeps, which run to the L∞ < tol fixpoint. The certificate makes
//          the result comparable to a cold pagerank_converged run: both land
//          within tol·f/(1−f) of the true fixpoint, so they agree to ~7·tol
//          regardless of the warm start.
//
// Every kernel is differentially tested against full recompute on the same
// snapshot (tests/test_incremental.cpp); bench/update_workload.cpp measures
// the incremental-vs-full speedup per commit batch.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/connected_components.hpp"
#include "core/directed.hpp"
#include "core/pagerank.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "graph/delta_graph.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct IncrementalOptions {
  double damping = 0.85;
  double tol = 1e-12;          // PR: stop when the L∞ sweep change < tol
  int max_iterations = 1000;   // PR: certification sweep cap
  int max_repair_rounds = 64;  // PR: Aitken sweep-pair rounds before handing
                               // off to the vanilla converged loop
};

struct IncrementalStats {
  bool fell_back = false;      // repair degenerated to full recompute
  int repair_rounds = 0;       // localized rounds (BFS/CC) or pushes (PR) run
  int certify_iterations = 0;  // PR: full sweeps after the localized phase
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
        .arg("repair_rounds", static_cast<double>(st_->repair_rounds))
        .arg("certify_iterations",
             static_cast<double>(st_->certify_iterations));
    t_->record(ev);
  }

 private:
  TracerT* t_ = nullptr;
  const char* name_ = nullptr;
  const IncrementalStats* st_ = nullptr;
  std::uint64_t t0_ = 0;
};

}  // namespace detail

// --- Full-recompute comparators over a GraphView -----------------------------

// Level-synchronous BFS distances (-1 = unreachable) along arc direction.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<vid_t> bfs_levels(const View& view, vid_t root, Instr instr = {}) {
  return bfs_digraph(view, root, Direction::Push, instr);
}

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
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 80;
  emo.dedup_output = true;
  engine::VertexSet changed = engine::VertexSet::all(n);
  while (!changed.empty()) {
    engine::VertexSet fwd = engine::sparse_push(
        view.out(), ws, changed, detail::CcPropagate{comp.data(), nullptr}, emo,
        instr);
    engine::VertexSet bwd = engine::sparse_push(
        view.in(), ws, changed, detail::CcPropagate{comp.data(), nullptr}, emo,
        instr);
    std::vector<vid_t> merged(fwd.ids().begin(), fwd.ids().end());
    merged.insert(merged.end(), bwd.ids().begin(), bwd.ids().end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    changed = engine::VertexSet(n, std::move(merged));
  }
  return comp;
}

struct PrFixpoint {
  std::vector<double> ranks;
  int iterations = 0;
  double residual = 0.0;  // final L∞ sweep change
};

// Jacobi PageRank iterated to the L∞ < tol fixpoint (same update rule and
// dangling redistribution as pagerank_digraph, but convergence-driven rather
// than a fixed L). `warm` seeds the iteration when non-empty — the
// incremental kernel's certification phase and the cold comparator are the
// same function, differing only in the start point.
template <engine::GraphView View, class Instr = NullInstr>
PrFixpoint pagerank_converged(const View& view,
                              const IncrementalOptions& opt = {},
                              std::vector<double> warm = {}, Instr instr = {}) {
  const vid_t n = view.n();
  PP_CHECK(n > 0);
  const auto& out = view.out();
  using OutG = std::remove_cvref_t<decltype(view.out())>;
  PrFixpoint fix;
  fix.ranks = warm.empty()
                  ? std::vector<double>(static_cast<std::size_t>(n), 1.0 / n)
                  : std::move(warm);
  PP_CHECK(fix.ranks.size() == static_cast<std::size_t>(n));
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 81;
  emo.track_output = false;
  while (fix.iterations < opt.max_iterations) {
    const double dangling = detail::pr_dangling_mass(out, fix.ranks);
    const double base =
        (1.0 - opt.damping) / n + opt.damping * dangling / n;
    engine::dense_pull(view, ws,
                       detail::DirPrGather<OutG>{&out, fix.ranks.data(),
                                                 next.data(), base, opt.damping},
                       emo, instr);
    double delta = 0.0;
#pragma omp parallel for reduction(max : delta) schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      const double d = next[static_cast<std::size_t>(v)] -
                       fix.ranks[static_cast<std::size_t>(v)];
      delta = std::max(delta, d < 0 ? -d : d);
    }
    fix.ranks.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
    ++fix.iterations;
    fix.residual = delta;
    if (delta < opt.tol) break;
  }
  return fix;
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
      if (stats != nullptr) stats->fell_back = true;
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
    if (stats != nullptr) {
      stats->repair_rounds += static_cast<int>(orphans.size());
    }
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
    if (stats != nullptr) ++stats->repair_rounds;
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
        if (stats != nullptr) ++stats->repair_rounds;
      }
      decided = true;  // connected, or the split side relabeled
      break;
    }
    if (!decided) {
      if (stats != nullptr) stats->fell_back = true;
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

  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 83;
  emo.dedup_output = true;
  engine::VertexSet changed(n, std::move(seeds));
  while (!changed.empty()) {
    if (view.is_symmetric()) {
      changed = engine::sparse_push(view.out(), ws, changed,
                                    detail::CcPropagate{comp.data(), nullptr},
                                    emo, instr);
    } else {
      engine::VertexSet fwd = engine::sparse_push(
          view.out(), ws, changed, detail::CcPropagate{comp.data(), nullptr},
          emo, instr);
      engine::VertexSet bwd = engine::sparse_push(
          view.in(), ws, changed, detail::CcPropagate{comp.data(), nullptr},
          emo, instr);
      std::vector<vid_t> merged(fwd.ids().begin(), fwd.ids().end());
      merged.insert(merged.end(), bwd.ids().begin(), bwd.ids().end());
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      changed = engine::VertexSet(n, std::move(merged));
    }
    if (stats != nullptr) ++stats->repair_rounds;
  }
  return comp;
}

namespace detail {

// In-place Gaussian elimination with partial pivoting for the tiny (m ≤ 5)
// regularized Anderson normal equations; `lda` is the row stride of `a`.
// Returns false when a pivot underflows (window fully degenerate).
inline bool solve_spd(int m, double* a, int lda, const double* b, double* x) {
  double rhs[8];
  for (int i = 0; i < m; ++i) rhs[i] = b[i];
  for (int k = 0; k < m; ++k) {
    int piv = k;
    for (int r = k + 1; r < m; ++r) {
      if (std::abs(a[r * lda + k]) > std::abs(a[piv * lda + k])) piv = r;
    }
    if (std::abs(a[piv * lda + k]) < 1e-300) return false;
    if (piv != k) {
      for (int c = k; c < m; ++c) std::swap(a[k * lda + c], a[piv * lda + c]);
      std::swap(rhs[k], rhs[piv]);
    }
    for (int r = k + 1; r < m; ++r) {
      const double factor = a[r * lda + k] / a[k * lda + k];
      for (int c = k; c < m; ++c) a[r * lda + c] -= factor * a[k * lda + c];
      rhs[r] -= factor * rhs[k];
    }
  }
  for (int i = m - 1; i >= 0; --i) {
    double s = rhs[i];
    for (int c = i + 1; c < m; ++c) s -= a[i * lda + c] * x[c];
    x[i] = s / a[i * lda + i];
  }
  return true;
}

}  // namespace detail

// --- Incremental PageRank ----------------------------------------------------

// Repairs PageRank after one committed batch: an analytic global rescale
// re-anchors the warm start, then Aitken-accelerated certification sweeps run
// the whole vector to the L∞ < tol fixpoint. Matches a cold
// pagerank_converged(view) run to within ~2·tol·f/(1−f).
//
// Why not a localized frontier repair? A warm start converges to tol-grade
// residuals *slower* than a cold one here: the update-induced error rides the
// walk modes with |eigenvalue| ≈ 1 — mass shuffled between weak components by
// merge/split updates, and oscillations on near-bipartite low-degree
// structures — which decay at the worst-case rate f per sweep, while a cold
// uniform start barely excites them (uniform already carries each closed
// component's correct share, so cold error is dominated by fast-mixing smooth
// modes). And on a small-world graph a 1e-12-grade repair wave reaches the
// whole graph in a handful of hops, so arc-following locality saves nothing.
// Both slow families are instead removed structurally:
//
// (a) arcs never leave a weak component, so the damped chain conserves each
//     component's mass up to teleport inflow and dangling redistribution.
//     With β = (1−f)/n + f·(Σ_dangling pr)/n, component C's stationary mass
//     obeys  mass_C·(1−f) = β·|C| − f·dang_C  exactly. Rescaling the warm
//     vector per component to that budget (β and the scales solve in closed
//     form below) cancels every inter-component migration mode analytically
//     — no iteration ever has to carry them.
// (b) the leftover error still rides degenerate slow clusters — every closed
//     component contributes a walk eigenvalue at exactly +1 (stationary
//     redistribution) and every bipartite one at −1 — so the certification
//     sweeps run under Anderson acceleration: each step takes one genuine
//     Jacobi sweep g(x), then extrapolates through the least-squares
//     combination of the last kAndersonDepth residual differences (windowed
//     GMRES on I−g). A degenerate cluster is a single root of the implicit
//     residual polynomial, so the ±f families die together instead of
//     paying ~14 sweeps per decade each. Extrapolation never touches the
//     termination certificate — the loop only exits when a genuine sweep's
//     L∞ change is < tol, the same criterion the cold run uses, so the
//     ~2·tol·f/(1−f) differential bound is unconditional.
template <engine::GraphView View, class Instr = NullInstr,
          class TracerT = obs::NullTracer>
PrFixpoint incremental_pagerank(const View& view,
                                std::span<const EdgeUpdate> updates,
                                const std::vector<double>& prev,
                                const IncrementalOptions& opt = {},
                                IncrementalStats* stats = nullptr,
                                Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = view.n();
  PP_CHECK(n > 0);
  PP_CHECK(prev.size() == static_cast<std::size_t>(n));
  IncrementalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};
  const detail::RepairSpan<TracerT> span(tracer, "incremental_pagerank", stats);
  const auto& out = view.out();
  const double f = opt.damping;
  // The repair is global-analytic, so the update list itself is not walked;
  // it stays in the signature for interface symmetry with the other kernels.
  (void)updates;

  // Weak components of the post-update graph (labels are component-minimum
  // vertex ids), then each component's warm total mass and dangling mass.
  const std::vector<vid_t> comp = cc_labels(view, instr);
  std::vector<double> mass(static_cast<std::size_t>(n), 0.0);
  std::vector<double> dang(static_cast<std::size_t>(n), 0.0);
  std::vector<vid_t> csize(static_cast<std::size_t>(n), 0);
  for (vid_t v = 0; v < n; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    const std::size_t c = static_cast<std::size_t>(comp[i]);
    mass[c] += prev[i];
    if (out.degree(v) == 0) dang[c] += prev[i];
    ++csize[c];
  }

  // Self-consistent β and per-component scales: with x_C = scale_C·prev_C,
  // the budget mass_C·(1−f) = β·|C| − f·dang_C gives
  //   scale_C = β·|C| / ((1−f)·mass_C + f·dang_C),
  // and substituting the scaled dangling mass back into
  // β = (1−f)/n + f·Σ_C scale_C·dang_C / n leaves β alone on both sides.
  // mass_C ≥ |C|·(1−f)/n > 0, so every denominator is positive.
  double t = 0.0;
  for (vid_t c = 0; c < n; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (csize[i] == 0) continue;
    t += dang[i] * csize[i] / ((1.0 - f) * mass[i] + f * dang[i]);
  }
  const double beta = ((1.0 - f) / n) / (1.0 - f * t / n);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    const std::size_t c = static_cast<std::size_t>(comp[i]);
    const double scale = beta * csize[c] / ((1.0 - f) * mass[c] + f * dang[c]);
    x[i] = scale * prev[i];
  }

  // Anderson-accelerated certification. Each step costs one genuine sweep
  // g(x) plus O(kAndersonDepth·n) vector work; the mixing coefficients come
  // from an m×m normal-equation solve over the residual-difference window.
  constexpr int kAndersonDepth = 5;
  IncrementalOptions single = opt;
  single.max_iterations = 1;
  PrFixpoint fix;
  int sweeps = 0;
  const auto certified = [&]() {
    fix.iterations = sweeps;
    if (stats != nullptr) {
      stats->repair_rounds = sweeps;
      stats->certify_iterations = sweeps;
    }
  };
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<std::vector<double>> dxs, dfs;  // last m iterate/residual deltas
  std::vector<double> x_prev, f_prev, fvec(un);
  while (sweeps < opt.max_iterations &&
         sweeps < opt.max_repair_rounds) {
    fix = pagerank_converged(view, single, x, instr);  // g(x); keeps x alive
    ++sweeps;
    if (fix.residual < opt.tol) {
      certified();
      return fix;
    }
    for (std::size_t i = 0; i < un; ++i) fvec[i] = fix.ranks[i] - x[i];
    if (!x_prev.empty()) {
      std::vector<double> dx(un), df(un);
      for (std::size_t i = 0; i < un; ++i) {
        dx[i] = x[i] - x_prev[i];
        df[i] = fvec[i] - f_prev[i];
      }
      if (dxs.size() == kAndersonDepth) {
        dxs.erase(dxs.begin());
        dfs.erase(dfs.begin());
      }
      dxs.push_back(std::move(dx));
      dfs.push_back(std::move(df));
    }
    x_prev = x;
    f_prev = fvec;

    // γ = argmin ||f − Σ γ_j Δf_j||₂ via the (regularized) normal equations;
    // then x⁺ = x + f − Σ γ_j (Δx_j + Δf_j). With an empty window this is the
    // plain Picard step x⁺ = g(x).
    std::vector<double> xnext = std::move(fix.ranks);
    const int m = static_cast<int>(dxs.size());
    if (m > 0) {
      double gram[kAndersonDepth][kAndersonDepth];
      double rhs[kAndersonDepth];
      double diag_max = 0.0;
      for (int a = 0; a < m; ++a) {
        for (int b = a; b < m; ++b) {
          double dot = 0.0;
          for (std::size_t i = 0; i < un; ++i) dot += dfs[a][i] * dfs[b][i];
          gram[a][b] = gram[b][a] = dot;
        }
        diag_max = std::max(diag_max, gram[a][a]);
        double dot = 0.0;
        for (std::size_t i = 0; i < un; ++i) dot += dfs[a][i] * fvec[i];
        rhs[a] = dot;
      }
      // Tikhonov floor keeps near-parallel columns (converged directions)
      // from blowing up the solve instead of being ignored.
      for (int a = 0; a < m; ++a) gram[a][a] += 1e-10 * diag_max;
      double gamma[kAndersonDepth];
      bool solved = detail::solve_spd(m, &gram[0][0], kAndersonDepth, rhs,
                                      gamma);
      if (solved) {
        for (int a = 0; a < m; ++a) {
          const double g = gamma[a];
          if (g == 0.0) continue;
          for (std::size_t i = 0; i < un; ++i) {
            xnext[i] -= g * (dxs[a][i] + dfs[a][i]);
          }
        }
        for (std::size_t i = 0; i < un; ++i) {
          if (!std::isfinite(xnext[i])) {
            solved = false;
            break;
          }
        }
        if (!solved) {  // poisoned extrapolation: fall back to plain Picard
          for (std::size_t i = 0; i < un; ++i) xnext[i] = x_prev[i] + fvec[i];
        }
      }
    }
    x = std::move(xnext);
  }

  // Sweep budget exhausted without a certificate: hand the last genuinely
  // swept vector to the vanilla converged loop (identical to the cold path).
  fix = pagerank_converged(view, opt, std::move(x), instr);
  fix.iterations += sweeps;
  if (stats != nullptr) {
    stats->repair_rounds = sweeps;
    stats->certify_iterations = fix.iterations;
  }
  return fix;
}

}  // namespace pushpull
