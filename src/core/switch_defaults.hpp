// The direction-switch default constants and their per-direction refinement.
//
// One source of truth for the Beamer direction-optimizing thresholds (α = 14,
// β = 24) that every switching surface shares: core DirOptParams, the engine's
// DirectionParams and the dist FrontierHeuristic default from here, and CC,
// directed BFS and multi-source BFS switch at these values, instead of each
// repeating the literals.
//
// On digraphs the dichotomy is asymmetric (§4.8): pushing pays the frontier's
// *out*-arc mass, pulling scans the unvisited set's *in*-arcs, and the two
// degree estimates d̂_out and d̂_in differ on skewed graphs. SwitchThresholds
// carries a separate (α_out, β_in) pair and per_direction_thresholds derives
// it from the view's source/sink structure, so a sink-heavy digraph enters
// pull earlier (its fat sinks make bottom-up parent discovery cheap and
// top-down CAS contention expensive) and leaves it later, while a symmetric
// view reproduces the classic single-pair behavior bit for bit.
#pragma once

#include <algorithm>

namespace pushpull {

// Generic-Switch defaults (§5): push→pull when active_work > total_work/α,
// pull→push when active_count < total_count/β.
inline constexpr double kSwitchAlpha = 14.0;
inline constexpr double kSwitchBeta = 24.0;

// Per-direction switch thresholds: α_out gates the push→pull flip in units of
// out-arc work, β_in gates the pull→push flip in destination counts.
struct SwitchThresholds {
  double alpha_out = kSwitchAlpha;
  double beta_in = kSwitchBeta;
};

// Scales (α, β) by the view's direction skew r = d̂_in / d̂_out, where
// d̂_out = m / #{v : out_degree(v) > 0} (mean degree over push *sources*) and
// d̂_in = m / #{v : in_degree(v) > 0} (mean degree over pull *sinks*). Since
// Σ out-degrees = Σ in-degrees = m, plain per-vertex averages are always
// equal — the skew lives in how many vertices carry the arcs on each side.
// r > 1 means arcs concentrate on few sinks: a pull round amortizes better
// (α_out grows — flip to pull sooner) and stays profitable longer (β_in
// grows — the pull→push count threshold total/β_in shrinks). r is clamped to
// [1/8, 8] so a degenerate view (one hub, no sinks) cannot push a threshold
// past the useful range. Symmetric graphs give r = 1: the scaled pair equals
// (α, β) exactly, which the differential tests rely on.
inline SwitchThresholds per_direction_thresholds(double arcs,
                                                 double out_sources,
                                                 double in_sinks,
                                                 double alpha = kSwitchAlpha,
                                                 double beta = kSwitchBeta) {
  SwitchThresholds t{alpha, beta};
  if (arcs <= 0 || out_sources <= 0 || in_sinks <= 0) return t;
  const double r = std::clamp(out_sources / in_sinks, 1.0 / 8.0, 8.0);
  t.alpha_out = alpha * r;
  t.beta_in = beta * r;
  return t;
}

}  // namespace pushpull
