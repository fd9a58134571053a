// Breadth-First Search (§3.3, §4.3, §4.8, Algorithm 3), on the engine
// substrate: one kernel over any GraphView.
//
//   push — the classical top-down BFS: engine::sparse_push expands the
//          frontier along out-arcs; the functor claims unvisited neighbors
//          through AtomicCtx::claim (integer CAS, O(m) atomics).
//   pull — the bottom-up BFS: engine::dense_pull scans every unvisited
//          vertex's in-arcs for a parent in the previous level; writes go
//          through PlainCtx (thread-private, no atomics) at the price of
//          O(D·m) read conflicts; kBreakOnUpdate gives the §3.3 early break.
//
// bfs_digraph_strategy picks the direction per level with DirectionPolicy,
// so the five §5 strategies are the same two functors: static push, static
// pull, Generic-Switch (the Beamer-style switch: top-down while the
// frontier's out-arcs stay under m/α, bottom-up until it shrinks below n/β),
// Greedy-Switch (a serial worklist tail) and Frontier-Exploit. The symmetric
// names below (bfs_push, bfs_pull, bfs_direction_optimizing) and bfs_levels
// are wrappers over it. The traversal loops, frontier machinery and counter
// attribution live in engine/edge_map.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/direction.hpp"
#include "core/round_trace.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "engine/policy.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct BfsResult {
  std::vector<vid_t> dist;    // hop distance; -1 = unreachable
  std::vector<vid_t> parent;  // BFS-tree parent; -1 = root/unreachable;
                              // empty unless the caller asked for the tree
  int levels = 0;             // number of non-empty frontiers processed
  int sequential_tail_levels = 0;     // GrS: levels finished by the serial tail
  std::vector<Direction> level_dirs;  // direction used per engine level
};

// The Generic-Switch thresholds. On a digraph they are scaled per direction
// by the view's d̂_in/d̂_out skew (§4.8, switch_defaults.hpp), so sink-heavy
// digraphs flip to pull sooner and leave it later; symmetric views scale by
// exactly 1.
struct DirOptParams {
  double alpha = kSwitchAlpha;  // push→pull when frontier out-arcs > m/alpha
  double beta = kSwitchBeta;    // pull→push when frontier size < n/beta
};

struct DigraphBfsOptions {
  engine::StrategyKind strategy = engine::StrategyKind::GenericSwitch;
  double grs_threshold = 0.0;   // GrS: sequential tail below this fraction
};

namespace detail {

// Push: claim an unvisited out-neighbor with CAS; exactly one winner stores
// the parent (when the tree is asked for) and enqueues d.
struct BfsPushClaim {
  vid_t* dist;
  vid_t* parent;  // nullptr: no tree
  vid_t level;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    if (ctx.load(dist[d]) >= 0) return false;
    if (!ctx.claim(dist[d], vid_t{-1}, level)) return false;
    if (parent != nullptr) ctx.store(parent[d], s);
    return true;
  }
};

// Pull: an unvisited vertex adopts the first in-neighbor on the previous
// level; thread-private writes only.
struct BfsPullAdopt {
  vid_t* dist;
  vid_t* parent;  // nullptr: no tree
  vid_t level;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return dist[v] < 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    if (ctx.load(dist[u]) != level - 1) return false;
    ctx.store(dist[v], level);
    if (parent != nullptr) ctx.store(parent[v], u);
    return true;
  }
};

}  // namespace detail

// The BFS: from `root` along arc direction, the §5 strategy from `opt`, α/β
// from `p`, and the BFS tree only when `parents` is set (one more store per
// discovered vertex). Pull parents are the first in-neighbor one level
// closer; push parents are CAS winners.
template <engine::GraphView View, class Instr = NullInstr,
          class TracerT = obs::NullTracer>
BfsResult bfs_digraph_strategy(const View& view, vid_t root,
                               const DigraphBfsOptions& opt,
                               const DirOptParams& p, bool parents,
                               Instr instr = {}, TracerT* tracer = nullptr) {
  const vid_t n = view.n();
  PP_CHECK(root >= 0 && root < n);
  BfsResult r;
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.dist[static_cast<std::size_t>(root)] = 0;
  if (parents) r.parent.assign(static_cast<std::size_t>(n), -1);
  vid_t* const dist = r.dist.data();
  vid_t* const parent = parents ? r.parent.data() : nullptr;

  // Only a switching policy reads α/β and each frontier's out-arc mass (a
  // trace records them too); the static strategies and FE skip that work.
  const bool switching =
      opt.strategy == engine::StrategyKind::GenericSwitch ||
      opt.strategy == engine::StrategyKind::GreedySwitch ||
      obs::tracing(tracer);
  // The view's skew, recovered from its default thresholds: exactly 1 on a
  // symmetric view, and the default pair comes back bit for bit.
  const SwitchThresholds skew = switching
                                    ? engine::per_direction_thresholds(view)
                                    : SwitchThresholds{};
  engine::DirectionPolicy policy(
      opt.strategy,
      {.alpha = p.alpha * (skew.alpha_out / kSwitchAlpha),
       .beta = p.beta * (skew.beta_in / kSwitchBeta),
       .grs_threshold = opt.grs_threshold},
      Direction::Push);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  engine::VertexSet frontier = engine::VertexSet::single(n, root);
  double frontier_out_arcs = view.out_degree(root);
  const auto arcs = static_cast<double>(view.num_arcs());
  const double alpha = policy.params().alpha;
  const double beta = policy.params().beta;
  vid_t level = 0;

  while (!frontier.empty()) {
    const auto frontier_size = static_cast<double>(frontier.size());
    const double active_work = frontier_out_arcs;

    // Greedy-Switch: finish the sub-threshold remainder with a sequential
    // FIFO sweep (the engine supplies the decision, the caller the tail).
    if (level > 0 &&
        policy.suggest_sequential(frontier_size, static_cast<double>(n))) {
      // Counted like an engine round: one read of the popped level, one per
      // scanned arc, one write per discovered vertex (two with the tree).
      detail::RoundTrace round(tracer, instr);
      engine::PlainCtx<Instr> ctx(instr);
      std::vector<vid_t> queue(frontier.ids().begin(), frontier.ids().end());
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const vid_t v = queue[head];
        const vid_t next = ctx.load(dist[v]) + 1;
        for (vid_t u : view.out().neighbors(v)) {
          if (ctx.load(dist[u]) < 0) {
            ctx.store(dist[u], next);
            if (parent != nullptr) ctx.store(parent[u], v);
            queue.push_back(u);
          }
        }
      }
      r.sequential_tail_levels = 1;
      ++r.levels;
      round.record("bfs", static_cast<int>(level + 1), frontier_size,
                   active_work, arcs, n, alpha, beta, "sequential-tail");
      break;
    }

    ++level;
    const Direction dir = policy.choose(active_work, arcs, frontier_size,
                                        static_cast<double>(n));
    detail::RoundTrace round(tracer, instr);
    if (dir == Direction::Push) {
      emo.region = 10;
      frontier = engine::sparse_push(
          view, ws, frontier, detail::BfsPushClaim{dist, parent, level}, emo,
          instr, round.stats());
    } else {
      emo.region = 11;
      frontier = engine::dense_pull(
          view, ws, detail::BfsPullAdopt{dist, parent, level}, emo, instr,
          round.stats());
    }
    if (switching) frontier_out_arcs = frontier.out_degree_sum(view);
    r.level_dirs.push_back(dir);
    ++r.levels;
    round.record("bfs", static_cast<int>(level), frontier_size, active_work,
                 arcs, n, alpha, beta);
  }
  return r;
}

// Distances and per-level directions only, the BFS the service and the
// strategy sweeps run.
template <engine::GraphView View, class Instr = NullInstr,
          class TracerT = obs::NullTracer>
BfsResult bfs_digraph_strategy(const View& view, vid_t root,
                               const DigraphBfsOptions& opt = {},
                               Instr instr = {}, TracerT* tracer = nullptr) {
  return bfs_digraph_strategy(view, root, opt, DirOptParams{},
                              /*parents=*/false, instr, tracer);
}

template <class Instr = NullInstr, class TracerT = obs::NullTracer>
BfsResult bfs_digraph_strategy(const Digraph& g, vid_t root,
                               const DigraphBfsOptions& opt = {},
                               Instr instr = {}, TracerT* tracer = nullptr) {
  return bfs_digraph_strategy(engine::DigraphView(g), root, opt, instr,
                              tracer);
}

// Level-synchronous BFS distances (-1 = unreachable) along arc direction:
// the full-recompute comparator of the incremental repairs.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<vid_t> bfs_levels(const View& view, vid_t root, Instr instr = {}) {
  return bfs_digraph_strategy(
             view, root, {.strategy = engine::StrategyKind::StaticPush}, instr)
      .dist;
}

// --- The symmetric names: a Csr through SymmetricView, with the BFS tree ----

template <class Instr = NullInstr>
BfsResult bfs_push(const Csr& g, vid_t root, Instr instr = {}) {
  return bfs_digraph_strategy(engine::SymmetricView(g), root,
                              {.strategy = engine::StrategyKind::StaticPush},
                              DirOptParams{}, /*parents=*/true, instr);
}

template <class Instr = NullInstr>
BfsResult bfs_pull(const Csr& g, vid_t root, Instr instr = {}) {
  return bfs_digraph_strategy(engine::SymmetricView(g), root,
                              {.strategy = engine::StrategyKind::StaticPull},
                              DirOptParams{}, /*parents=*/true, instr);
}

// Direction-optimizing BFS (the paper's Generic-Switch, §5).
template <class Instr = NullInstr, class TracerT = obs::NullTracer>
BfsResult bfs_direction_optimizing(const Csr& g, vid_t root,
                                   const DirOptParams& p = {}, Instr instr = {},
                                   TracerT* tracer = nullptr) {
  return bfs_digraph_strategy(engine::SymmetricView(g), root,
                              {.strategy = engine::StrategyKind::GenericSwitch},
                              p, /*parents=*/true, instr, tracer);
}

// Validates a BFS result against graph structure: distances are consistent
// along tree edges, every edge differs by at most one level, reachability
// matches. Returns true if the tree is a valid BFS tree.
bool validate_bfs(const Csr& g, vid_t root, const BfsResult& r);

}  // namespace pushpull
