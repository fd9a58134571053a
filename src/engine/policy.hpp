// Engine policies: the §5 acceleration strategies as composable, orthogonal
// axes (DESIGN.md §2).
//
// The paper's claim is that push vs. pull is one generic dichotomy with one
// switching controller (Generic-Switch) and a small set of acceleration
// strategies that apply uniformly across algorithms. The engine encodes that
// claim as a policy product:
//
//   direction  — ForcePush | ForcePull | GenericSwitch(α, β)
//   sync       — Atomic (CAS/FAA, float CAS loops lock-accounted)
//                | StripedLock (spinlock pool, arbitrary critical sections)
//                | plain thread-owned writes (pull modes always use these)
//   partition  — Flat | PartitionAware (Algorithm 8 local/remote split)
//   frontier   — FrontierExploit: sparse frontier-driven traversal vs. dense
//                full sweeps (the engine's sparse vs. dense map variants)
//   greedy     — GreedySwitch: drop to a sequential tail once the active set
//                falls below a threshold fraction (the caller runs the tail;
//                the engine supplies the decision)
//
// Every combination drives the same edge_map loops in edge_map.hpp; kernels
// select policies, they do not reimplement traversal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/direction.hpp"
#include "graph/types.hpp"
#include "util/check.hpp"

namespace pushpull::engine {

// The traversal loop shapes one edge_map call can take.
enum class Mode {
  SparsePush,  // iterate a sparse frontier, write along out-edges (k-filter out)
  DensePull,   // iterate all destinations, scan in-edges, early-break option
  SparsePull,  // iterate a sparse destination set, scan in-edges
  DensePush,   // iterate all sources, write along out-edges
};

inline const char* to_string(Mode m) {
  switch (m) {
    case Mode::SparsePush: return "sparse-push";
    case Mode::DensePull: return "dense-pull";
    case Mode::SparsePull: return "sparse-pull";
    case Mode::DensePush: return "dense-push";
  }
  return "?";
}

// Synchronization used by push-mode updates. Pull modes never synchronize —
// thread-owned writes are the defining property of pulling (§3.8) and the
// engine enforces it by construction (PlainCtx is the only pull context).
enum class Sync {
  Atomic,       // integer CAS/FAA; float accumulation = lock-accounted CAS loop
  StripedLock,  // spinlock pool keyed by destination vertex
  Plain,        // provably conflict-free push (a single-source round like
                // Prim's relaxation, or writes the partition makes exclusive);
                // same context as the PA local half. The writes still cross
                // ownership and are counted as writes, just not synchronized.
};

// Named policy bundles for benches and tests: the §5 strategy set as it
// appears in Figure 6 plus the two static directions.
enum class StrategyKind {
  StaticPush,
  StaticPull,
  GenericSwitch,   // GS: α/β-controlled direction flips per superstep
  GreedySwitch,    // GrS: GS + sequential tail under the threshold
  FrontierExploit, // FE: sparse frontier-driven maps (push until GS says pull)
  PartitionAware,  // PA: push with the local/remote split representation
};

const char* to_string(StrategyKind k);

// Parses "push|pull|gs|grs|fe|pa" (the bench `--policy` vocabulary).
// Aborts with a message listing the vocabulary on anything else.
StrategyKind parse_strategy(const std::string& name);

// "all" → every strategy, otherwise the one named policy.
std::vector<StrategyKind> parse_strategy_list(const std::string& name);

// Direction selection for one superstep, shared by every switching kernel.
// Wraps SwitchController with the strategy vocabulary so kernels write
// `policy.choose(...)` instead of hand-rolling the Beamer heuristic.
struct DirectionParams {
  double alpha = kSwitchAlpha;  // push→pull when active_work > total/α
  double beta = kSwitchBeta;    // pull→push when active_count < total/β
  double grs_threshold = 0.0;   // >0: suggest a sequential tail below this

  DirectionParams with_thresholds(const SwitchThresholds& t) const {
    DirectionParams p = *this;
    p.alpha = t.alpha_out;
    p.beta = t.beta_in;
    return p;
  }
};

// Derives the per-direction (α_out, β_in) pair from a view's source/sink
// structure (switch_defaults.hpp has the model). Constrained on the degree
// accessors rather than GraphView so Csr-likes qualify too.
template <class View>
  requires requires(const View& v, vid_t x) {
    v.n();
    v.num_arcs();
    v.out_degree(x);
    v.in_degree(x);
  }
SwitchThresholds per_direction_thresholds(const View& view) {
  // Fast path: views whose CSRs cache their nonzero-degree census (Csr does —
  // the count is a property of the adjacency structure, computed once per
  // graph) answer in O(1), hoisting the per-call O(n) reduction out of every
  // directed-BFS run. Views over CsrLikes without the cache (snapshot
  // overlays) keep the scan.
  std::int64_t out_sources = 0, in_sinks = 0;
  if constexpr (requires {
                  view.out().num_nonempty();
                  view.in().num_nonempty();
                }) {
    out_sources = view.out().num_nonempty();
    in_sinks = view.in().num_nonempty();
  } else {
    const vid_t n = view.n();
#pragma omp parallel for reduction(+ : out_sources, in_sinks) schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      out_sources += view.out_degree(v) > 0 ? 1 : 0;
      in_sinks += view.in_degree(v) > 0 ? 1 : 0;
    }
  }
  return pushpull::per_direction_thresholds(
      static_cast<double>(view.num_arcs()), static_cast<double>(out_sources),
      static_cast<double>(in_sinks));
}

class DirectionPolicy {
 public:
  using Params = DirectionParams;

  DirectionPolicy(StrategyKind kind, Params p = Params(),
                  Direction start = Direction::Push)
      : kind_(kind), params_(p), ctl_(p.alpha, p.beta, start) {}

  StrategyKind kind() const noexcept { return kind_; }
  const Params& params() const noexcept { return params_; }

  // Direction for the next superstep given this superstep's statistics.
  Direction choose(double active_work, double total_work, double active_count,
                   double total_count) noexcept {
    switch (kind_) {
      case StrategyKind::StaticPush:
      case StrategyKind::PartitionAware:
        return Direction::Push;
      case StrategyKind::StaticPull:
        return Direction::Pull;
      case StrategyKind::FrontierExploit:
        // FE keeps its direction fixed; only the frontier sparsity changes.
        return ctl_.current();
      case StrategyKind::GenericSwitch:
      case StrategyKind::GreedySwitch:
        return ctl_.step(active_work, total_work, active_count, total_count);
    }
    return Direction::Push;
  }

  Direction current() const noexcept {
    switch (kind_) {
      case StrategyKind::StaticPull: return Direction::Pull;
      case StrategyKind::StaticPush:
      case StrategyKind::PartitionAware: return Direction::Push;
      default: return ctl_.current();
    }
  }

  // GreedySwitch decision: true once the active count falls below
  // threshold · total (and the strategy is GrS). The caller owns the
  // sequential tail; the engine owns only the decision.
  bool suggest_sequential(double active_count, double total_count) const noexcept {
    return kind_ == StrategyKind::GreedySwitch && params_.grs_threshold > 0.0 &&
           active_count < params_.grs_threshold * total_count;
  }

  void force(Direction d) noexcept { ctl_.force(d); }

 private:
  StrategyKind kind_;
  Params params_;
  SwitchController ctl_;
};

}  // namespace pushpull::engine
