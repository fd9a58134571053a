// Breadth-First Search (§3.3, §4.3, Algorithm 3), on the engine substrate.
//
//   push — the classical top-down BFS: engine::sparse_push expands the
//          frontier; the functor claims unvisited neighbors through
//          AtomicCtx::claim (integer CAS, O(m) atomics).
//   pull — the bottom-up BFS: engine::dense_pull scans every unvisited
//          vertex's neighbors for a parent in the previous level; writes go
//          through PlainCtx (thread-private, no atomics) at the price of
//          O(D·m) read conflicts; kBreakOnUpdate gives the §3.3 early break.
//   direction-optimizing — the Beamer-style switch (the paper's
//          Generic-Switch, §5): SwitchController flips between the same two
//          edge_map calls — top-down while the frontier is small, bottom-up
//          when its out-edge count exceeds m/alpha, back below n/beta.
//
// The traversal loops, frontier machinery and counter attribution live in
// engine/edge_map.hpp; this file only supplies the two BFS functors.
#pragma once

#include <vector>

#include "core/direction.hpp"
#include "engine/edge_map.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct BfsResult {
  std::vector<vid_t> dist;    // hop distance; -1 = unreachable
  std::vector<vid_t> parent;  // BFS-tree parent; -1 = root/unreachable
  int levels = 0;             // number of non-empty frontiers processed
  std::vector<Direction> level_dirs;  // direction used per level
};

namespace detail {

// Push: claim an unvisited neighbor with CAS; exactly one winner stores the
// parent and enqueues d.
struct BfsPushClaim {
  vid_t* dist;
  vid_t* parent;
  vid_t level;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t) const {
    if (ctx.load(dist[d]) >= 0) return false;
    if (ctx.claim(dist[d], vid_t{-1}, level)) {
      ctx.store(parent[d], s);
      return true;
    }
    return false;
  }
};

// Pull: an unvisited vertex adopts the first in-neighbor on the previous
// level; thread-private writes only.
struct BfsPullAdopt {
  vid_t* dist;
  vid_t* parent;
  vid_t level;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return dist[v] < 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    if (ctx.load(dist[u]) != level - 1) return false;
    ctx.store(dist[v], level);
    ctx.store(parent[v], u);
    return true;
  }
};

template <CsrLike G>
inline BfsResult bfs_init(const G& g, vid_t root) {
  const vid_t n = g.n();
  PP_CHECK(root >= 0 && root < n);
  BfsResult r;
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.parent.assign(static_cast<std::size_t>(n), -1);
  r.dist[static_cast<std::size_t>(root)] = 0;
  return r;
}

}  // namespace detail

// --- Top-down (push) ---------------------------------------------------------

template <CsrLike G, class Instr = NullInstr>
BfsResult bfs_push(const G& g, vid_t root, Instr instr = {}) {
  BfsResult r = detail::bfs_init(g, root);
  engine::Workspace ws(g.n());
  engine::VertexSet frontier = engine::VertexSet::single(g.n(), root);
  engine::EdgeMapOptions opt;
  opt.region = 10;
  vid_t level = 0;
  while (!frontier.empty()) {
    ++level;
    frontier = engine::sparse_push(
        g, ws, frontier,
        detail::BfsPushClaim{r.dist.data(), r.parent.data(), level}, opt, instr);
    r.level_dirs.push_back(Direction::Push);
    ++r.levels;
  }
  return r;
}

// --- Bottom-up (pull) ----------------------------------------------------------

template <CsrLike G, class Instr = NullInstr>
BfsResult bfs_pull(const G& g, vid_t root, Instr instr = {}) {
  BfsResult r = detail::bfs_init(g, root);
  engine::Workspace ws(g.n());
  engine::EdgeMapOptions opt;
  opt.region = 11;
  vid_t level = 0;
  for (;;) {
    ++level;
    const engine::VertexSet claimed = engine::dense_pull(
        g, ws, detail::BfsPullAdopt{r.dist.data(), r.parent.data(), level},
        opt, instr);
    if (claimed.empty()) break;
    r.level_dirs.push_back(Direction::Pull);
    ++r.levels;
  }
  return r;
}

// --- Direction-optimizing (Generic-Switch) -------------------------------------

struct DirOptParams {
  double alpha = kSwitchAlpha;  // push→pull when frontier out-edges > m/alpha
  double beta = kSwitchBeta;    // pull→push when frontier size < n/beta
};

template <CsrLike G, class Instr = NullInstr, class TracerT = obs::NullTracer>
BfsResult bfs_direction_optimizing(const G& g, vid_t root,
                                   const DirOptParams& p = {}, Instr instr = {},
                                   TracerT* tracer = nullptr) {
  const vid_t n = g.n();
  BfsResult r = detail::bfs_init(g, root);
  engine::Workspace ws(n);
  engine::VertexSet frontier = engine::VertexSet::single(n, root);
  double frontier_out_edges = g.degree(root);
  engine::DirectionPolicy policy(engine::StrategyKind::GenericSwitch,
                                 {p.alpha, p.beta}, Direction::Push);
  engine::EdgeMapOptions opt;
  vid_t level = 0;

  while (!frontier.empty()) {
    ++level;
    const bool trace = obs::tracing(tracer);
    const std::int64_t frontier_size = frontier.size();
    const double active_work = frontier_out_edges;
    const double total_work = static_cast<double>(g.num_arcs());
    const Direction dir =
        policy.choose(frontier_out_edges, total_work,
                      static_cast<double>(frontier.size()), static_cast<double>(n));
    engine::EdgeMapStats st;
    engine::EdgeMapStats* stp = trace ? &st : nullptr;
    const std::uint64_t t0 = trace ? obs::now_ns() : 0;
    const CounterBlock c0 = trace ? obs::instr_snapshot(instr) : CounterBlock{};
    if (dir == Direction::Push) {
      opt.region = 12;
      frontier = engine::sparse_push(
          g, ws, frontier,
          detail::BfsPushClaim{r.dist.data(), r.parent.data(), level}, opt,
          instr, stp);
    } else {
      // Bottom-up step: the engine's dense pull recomputes the frontier as
      // "vertices claimed at `level`".
      opt.region = 13;
      frontier = engine::dense_pull(
          g, ws, detail::BfsPullAdopt{r.dist.data(), r.parent.data(), level},
          opt, instr, stp);
    }
    frontier_out_edges = frontier.out_degree_sum(g);
    r.level_dirs.push_back(dir);
    ++r.levels;
    if (trace) {
      obs::RoundEvent ev;
      ev.kernel = "bfs";
      ev.mode = engine::to_string(st.mode);
      ev.round = static_cast<int>(level);
      ev.frontier_size = frontier_size;
      ev.active_work = static_cast<std::int64_t>(active_work);
      ev.total_work = static_cast<std::int64_t>(g.num_arcs());
      ev.total_count = n;
      ev.alpha = p.alpha;
      ev.beta = p.beta;
      ev.updates = st.updates;
      ev.t0_ns = t0;
      ev.dur_ns = obs::now_ns() - t0;
      ev.instr = obs::counter_delta(obs::instr_snapshot(instr), c0);
      obs::record_round(tracer, ev);
    }
  }
  return r;
}

// Validates a BFS result against graph structure: distances are consistent
// along tree edges, every edge differs by at most one level, reachability
// matches. Returns true if the tree is a valid BFS tree.
bool validate_bfs(const Csr& g, vid_t root, const BfsResult& r);

}  // namespace pushpull
