// Connected components via label propagation — an engine client written
// against the abstraction alone (~60 lines of algorithm): min-label waves ride
// engine::sparse_push / dense_pull, and the §5 strategies come in as
// DirectionPolicy choices rather than new loops.
//
//   push — dense_push: every vertex re-pushes its label along out-edges each
//          round (AtomicCtx::min), touching all m arcs per round,
//   pull — dense_pull: every vertex re-derives its label from all neighbors
//          (PlainCtx), also all m arcs per round,
//   FE   — Frontier-Exploit: sparse_push over the vertices whose label
//          changed last round — only the frontier's neighborhood is touched,
//   GS   — FE that flips to a dense pull (changed-filtered) when the frontier
//          out-degree crosses the α threshold,
//   GrS  — FE that finishes the sub-threshold remainder with a sequential
//          worklist sweep (the engine supplies the decision, the tail is ~10
//          lines).
//
// The result is policy-invariant: comp[v] = smallest vertex id in v's
// component (asserted against the union-find baseline in the tests).
#pragma once

#include <vector>

#include "core/round_trace.hpp"
#include "engine/context.hpp"
#include "engine/edge_map.hpp"
#include "engine/policy.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

// GS switches at the shared (kSwitchAlpha, kSwitchBeta) thresholds.
struct CcOptions {
  engine::StrategyKind strategy = engine::StrategyKind::GreedySwitch;
  double grs_threshold = 0.05;   // GrS: sequential tail below this fraction
};

struct CcResult {
  std::vector<vid_t> comp;  // smallest vertex id in the component
  int rounds = 0;
  int sequential_tail_rounds = 0;  // GrS: 1 when the tail ran
  std::vector<Direction> round_dirs;
};

namespace detail {

struct CcPropagate {
  vid_t* comp;
  const DenseFrontier* changed;  // pull: only listen to last round's movers

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    if (changed != nullptr && !changed->test(s)) return false;
    return ctx.min(comp[d], ctx.load(comp[s]));
  }
};

}  // namespace detail

template <CsrLike G, class Instr = NullInstr, class TracerT = obs::NullTracer>
CcResult connected_components(const G& g, const CcOptions& opt = {},
                              Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = g.n();
  CcResult r;
  r.comp.resize(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) r.comp[static_cast<std::size_t>(v)] = v;
  if (n == 0) return r;

  engine::Workspace ws(n);
  engine::DirectionPolicy policy(
      opt.strategy, {.grs_threshold = opt.grs_threshold}, Direction::Push);
  engine::EdgeMapOptions emo;
  emo.region = 70;
  emo.dedup_output = true;

  engine::VertexSet changed = engine::VertexSet::all(n);
  while (!changed.empty()) {
    const double active_work = changed.out_degree_sum(g);
    const double active_count = static_cast<double>(changed.size());

    // Greedy-Switch: finish the small remainder with a sequential worklist.
    if (policy.suggest_sequential(active_count, static_cast<double>(n)) &&
        r.rounds > 0) {
      // Counted like an engine round: one read of the popped label, one per
      // scanned arc, one write per lowered label.
      detail::RoundTrace round(tracer, instr);
      engine::PlainCtx<Instr> ctx(instr);
      vid_t* comp = r.comp.data();
      std::vector<vid_t> work(changed.ids().begin(), changed.ids().end());
      while (!work.empty()) {
        const vid_t v = work.back();
        work.pop_back();
        const vid_t label = ctx.load(comp[v]);
        for (vid_t u : g.neighbors(v)) {
          if (label < ctx.load(comp[u])) {
            ctx.store(comp[u], label);
            work.push_back(u);
          }
        }
      }
      r.sequential_tail_rounds = 1;
      ++r.rounds;
      round.record("cc", r.rounds, active_count, active_work,
                   static_cast<double>(g.num_arcs()), n, policy.params().alpha,
                   policy.params().beta, "sequential-tail");
      break;
    }

    const Direction dir =
        policy.choose(active_work, static_cast<double>(g.num_arcs()),
                      active_count, static_cast<double>(n));
    const bool frontier_exploit =
        opt.strategy != engine::StrategyKind::StaticPush &&
        opt.strategy != engine::StrategyKind::StaticPull;
    detail::RoundTrace round(tracer, instr);
    if (dir == Direction::Push) {
      if (frontier_exploit) {
        // FE: only the changed set's neighborhood is touched this round.
        changed = engine::sparse_push(
            g, ws, changed, detail::CcPropagate{r.comp.data(), nullptr}, emo,
            instr, round.stats());
      } else {
        // Static push: all m arcs re-pushed every round.
        changed = engine::dense_push(g, ws, /*sources=*/nullptr,
                                     detail::CcPropagate{r.comp.data(), nullptr},
                                     emo, instr, round.stats());
      }
    } else {
      changed = engine::dense_pull(
          g, ws,
          detail::CcPropagate{r.comp.data(),
                              frontier_exploit ? &changed.dense() : nullptr},
          emo, instr, round.stats());
    }
    r.round_dirs.push_back(dir);
    ++r.rounds;
    round.record("cc", r.rounds, active_count, active_work,
                 static_cast<double>(g.num_arcs()), n, policy.params().alpha,
                 policy.params().beta);
  }
  return r;
}

}  // namespace pushpull
