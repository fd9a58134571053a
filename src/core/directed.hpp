// Directed-graph push/pull kernels (§4.8), on the engine substrate.
//
// On digraphs the dichotomy becomes asymmetric: pushing iterates the
// *outgoing* arcs of the active vertices while pulling iterates the
// *incoming* arcs of the updated vertices, so the cost bounds trade d̂_out
// against d̂_in. engine::DigraphView carries that asymmetry into edge_map —
// sparse/dense push walk Digraph::out, dense/sparse pull walk Digraph::in —
// and the kernels below are plain functors plus policy choices, exactly like
// their undirected counterparts in core/pagerank.hpp and core/bfs.hpp. Pull
// keeps its defining zero-sync property on digraphs: the view changes which
// arcs are scanned, never the update context.
//
// Beyond the §4.8 pair (PageRank, BFS) this header adds the directed riders
// the seam makes cheap: a strategy-driven BFS (push/pull/GS/GrS/FE via
// DirectionPolicy), forward/backward reachability, and an FW-BW SCC
// decomposition whose backward passes run the *same* claim functor over
// view.reversed().
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/direction.hpp"
#include "core/pagerank.hpp"
#include "engine/context.hpp"
#include "engine/edge_map.hpp"
#include "engine/graph_view.hpp"
#include "engine/policy.hpp"
#include "graph/csr.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"
#include "util/check.hpp"

namespace pushpull {

struct DirectedPageRankOptions {
  int iterations = 20;
  double damping = 0.85;
};

namespace detail {

// Push: every non-dangling u adds f·r(u)/d_out(u) into each out-neighbor's
// accumulator. Float conflicts → lock-accounted CAS loops (§4.1): one lock
// per out-arc, which test_directed pins exactly.
template <CsrLike G>
struct DirPrScatter {
  const G* out;
  const double* pr;
  double* next;
  double damping;

  bool source(vid_t s) const { return out->degree(s) != 0; }

  template <class Ctx>
  double source_data(Ctx&, vid_t s) const {
    return damping * pr[s] / out->degree(s);
  }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t, double share) const {
    ctx.add(next[d], share);
    return false;
  }
};

// Pull: v folds f·r(u)/d_out(u) over its in-neighbors into its own
// accumulator (PlainCtx — read conflicts only; exactly one counted read per
// in-arc, the §4.8 cost shape test_directed pins).
template <CsrLike G>
struct DirPrGather {
  const G* out;
  const double* pr;
  double* next;
  double base;
  double damping;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    const double pu = ctx.load(pr[u]);
    next[v] += pu / out->degree(u);
    return false;
  }

  template <class Ctx>
  bool finalize(Ctx& ctx, vid_t v) const {
    ctx.store(next[v], base + damping * next[v]);
    return false;
  }
};

// Directed BFS push: claim an unvisited out-neighbor with CAS.
struct DirBfsClaim {
  vid_t* dist;
  vid_t level;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    if (ctx.load(dist[d]) >= 0) return false;
    return ctx.claim(dist[d], vid_t{-1}, level);
  }
};

// Directed BFS pull: an unvisited vertex adopts the first *in*-neighbor on
// the previous level; thread-private writes only.
struct DirBfsAdopt {
  vid_t* dist;
  vid_t level;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return dist[v] < 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    if (ctx.load(dist[u]) != level - 1) return false;
    ctx.store(dist[v], level);
    return true;
  }
};

}  // namespace detail

// Directed PageRank: rank flows along arc direction, r(v) depends on the
// in-neighbors' ranks scaled by their *out*-degrees. Dangling vertices
// (out-degree 0) redistribute uniformly.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<double> pagerank_digraph(const View& view,
                                     const DirectedPageRankOptions& opt,
                                     Direction dir, Instr instr = {}) {
  const vid_t n = view.n();
  PP_CHECK(n > 0);
  const auto& out = view.out();
  using OutG = std::remove_cvref_t<decltype(view.out())>;
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.track_output = false;
  for (int l = 0; l < opt.iterations; ++l) {
    const double dangling = detail::pr_dangling_mass(out, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;

    if (dir == Direction::Push) {
      emo.region = 70;
      engine::dense_push(
          view, ws, /*sources=*/nullptr,
          detail::DirPrScatter<OutG>{&out, pr.data(), next.data(), opt.damping},
          emo, instr);
      engine::vertex_map(
          n, ws,
          [&](auto& ctx, vid_t v) {
            ctx.add(next[static_cast<std::size_t>(v)], base);
            return false;
          },
          engine::VertexMapOptions{.track = false}, instr);
    } else {
      emo.region = 71;
      engine::dense_pull(view, ws,
                         detail::DirPrGather<OutG>{&out, pr.data(), next.data(),
                                                   base, opt.damping},
                         emo, instr);
    }
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

template <class Instr = NullInstr>
std::vector<double> pagerank_digraph(const Digraph& g,
                                     const DirectedPageRankOptions& opt,
                                     Direction dir, Instr instr = {}) {
  PP_CHECK(g.in.n() == g.out.n());
  return pagerank_digraph(engine::DigraphView(g), opt, dir, instr);
}

// Sequential reference (pull formulation, serial).
std::vector<double> pagerank_digraph_seq(const Digraph& g,
                                         const DirectedPageRankOptions& opt);

// Directed BFS along arc direction.
//   push — frontier vertices claim unvisited *out*-neighbors with CAS,
//   pull — unvisited vertices scan their *in*-neighbors for frontier members.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<vid_t> bfs_digraph(const View& view, vid_t root, Direction dir,
                               Instr instr = {}) {
  const vid_t n = view.n();
  PP_CHECK(root >= 0 && root < n);
  std::vector<vid_t> dist(static_cast<std::size_t>(n), -1);
  dist[static_cast<std::size_t>(root)] = 0;
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;

  if (dir == Direction::Push) {
    emo.region = 72;
    engine::VertexSet frontier = engine::VertexSet::single(n, root);
    vid_t level = 0;
    while (!frontier.empty()) {
      ++level;
      frontier = engine::sparse_push(
          view, ws, frontier, detail::DirBfsClaim{dist.data(), level}, emo,
          instr);
    }
  } else {
    emo.region = 73;
    vid_t level = 0;
    for (;;) {
      ++level;
      const engine::VertexSet claimed = engine::dense_pull(
          view, ws, detail::DirBfsAdopt{dist.data(), level}, emo, instr);
      if (claimed.empty()) break;
    }
  }
  return dist;
}

template <class Instr = NullInstr>
std::vector<vid_t> bfs_digraph(const Digraph& g, vid_t root, Direction dir,
                               Instr instr = {}) {
  return bfs_digraph(engine::DigraphView(g), root, dir, instr);
}

// --- Strategy-driven directed BFS (§5 over DigraphView) ----------------------

// The switch thresholds are (kSwitchAlpha, kSwitchBeta) refined per
// direction (§4.8): scaled by the view's d̂_in/d̂_out skew so sink-heavy
// digraphs flip to pull sooner and leave it later (switch_defaults.hpp has
// the model). Symmetric views scale by exactly 1.
struct DigraphBfsOptions {
  engine::StrategyKind strategy = engine::StrategyKind::GenericSwitch;
  double grs_threshold = 0.0;   // GrS: sequential tail below this fraction
};

struct DigraphBfsResult {
  std::vector<vid_t> dist;
  int levels = 0;
  int sequential_tail_levels = 0;  // GrS: levels finished by the serial tail
  std::vector<Direction> level_dirs;
};

// One BFS, five §5 strategies: static push, static pull, Generic-Switch,
// Greedy-Switch (serial worklist tail), Frontier-Exploit — all the same two
// functors over DigraphView, direction chosen per level by DirectionPolicy.
template <engine::GraphView View, class Instr = NullInstr,
          class TracerT = obs::NullTracer>
DigraphBfsResult bfs_digraph_strategy(const View& view, vid_t root,
                                      const DigraphBfsOptions& opt = {},
                                      Instr instr = {},
                                      TracerT* tracer = nullptr) {
  const vid_t n = view.n();
  PP_CHECK(root >= 0 && root < n);
  DigraphBfsResult r;
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.dist[static_cast<std::size_t>(root)] = 0;

  engine::Workspace ws(n);
  const engine::DirectionParams params =
      engine::DirectionParams{.grs_threshold = opt.grs_threshold}
          .with_thresholds(engine::per_direction_thresholds(view));
  engine::DirectionPolicy policy(opt.strategy, params, Direction::Push);
  engine::EdgeMapOptions emo;
  emo.region = 74;
  engine::VertexSet frontier = engine::VertexSet::single(n, root);
  double frontier_out_arcs = view.out_degree(root);
  vid_t level = 0;

  while (!frontier.empty()) {
    const bool trace = obs::tracing(tracer);
    const std::int64_t frontier_size = frontier.size();

    // Greedy-Switch: finish the sub-threshold remainder with a sequential
    // FIFO sweep (the engine supplies the decision, the caller the tail).
    if (policy.suggest_sequential(static_cast<double>(frontier.size()),
                                  static_cast<double>(n)) &&
        level > 0) {
      // Counted like an engine round: one read of the popped level, one per
      // scanned arc, one write per discovered vertex.
      const std::uint64_t t0 = trace ? obs::now_ns() : 0;
      const CounterBlock c0 = trace ? obs::instr_snapshot(instr) : CounterBlock{};
      engine::PlainCtx<Instr> ctx(instr);
      vid_t* dist = r.dist.data();
      std::vector<vid_t> queue(frontier.ids().begin(), frontier.ids().end());
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const vid_t v = queue[head];
        const vid_t next = ctx.load(dist[v]) + 1;
        for (vid_t u : view.out().neighbors(v)) {
          if (ctx.load(dist[u]) < 0) {
            ctx.store(dist[u], next);
            queue.push_back(u);
          }
        }
      }
      r.sequential_tail_levels = 1;
      ++r.levels;
      if (trace) {
        obs::RoundEvent ev;
        ev.kernel = "bfs-digraph";
        ev.mode = "sequential-tail";
        ev.round = static_cast<int>(level + 1);
        ev.frontier_size = frontier_size;
        ev.active_work = static_cast<std::int64_t>(frontier_out_arcs);
        ev.total_work = static_cast<std::int64_t>(view.num_arcs());
        ev.total_count = n;
        ev.alpha = policy.params().alpha;
        ev.beta = policy.params().beta;
        ev.t0_ns = t0;
        ev.dur_ns = obs::now_ns() - t0;
        ev.instr = obs::counter_delta(obs::instr_snapshot(instr), c0);
        obs::record_round(tracer, ev);
      }
      break;
    }

    ++level;
    const double active_work = frontier_out_arcs;
    const Direction dir = policy.choose(
        frontier_out_arcs, static_cast<double>(view.num_arcs()),
        static_cast<double>(frontier.size()), static_cast<double>(n));
    engine::EdgeMapStats st;
    engine::EdgeMapStats* stp = trace ? &st : nullptr;
    const std::uint64_t t0 = trace ? obs::now_ns() : 0;
    const CounterBlock c0 = trace ? obs::instr_snapshot(instr) : CounterBlock{};
    if (dir == Direction::Push) {
      frontier = engine::sparse_push(
          view, ws, frontier, detail::DirBfsClaim{r.dist.data(), level}, emo,
          instr, stp);
    } else {
      frontier = engine::dense_pull(
          view, ws, detail::DirBfsAdopt{r.dist.data(), level}, emo, instr, stp);
    }
    frontier_out_arcs = frontier.out_degree_sum(view);
    r.level_dirs.push_back(dir);
    ++r.levels;
    if (trace) {
      obs::RoundEvent ev;
      ev.kernel = "bfs-digraph";
      ev.mode = engine::to_string(st.mode);
      ev.round = static_cast<int>(level);
      ev.frontier_size = frontier_size;
      ev.active_work = static_cast<std::int64_t>(active_work);
      ev.total_work = static_cast<std::int64_t>(view.num_arcs());
      ev.total_count = n;
      ev.alpha = policy.params().alpha;
      ev.beta = policy.params().beta;
      ev.updates = st.updates;
      ev.t0_ns = t0;
      ev.dur_ns = obs::now_ns() - t0;
      ev.instr = obs::counter_delta(obs::instr_snapshot(instr), c0);
      obs::record_round(tracer, ev);
    }
  }
  return r;
}

template <class Instr = NullInstr, class TracerT = obs::NullTracer>
DigraphBfsResult bfs_digraph_strategy(const Digraph& g, vid_t root,
                                      const DigraphBfsOptions& opt = {},
                                      Instr instr = {},
                                      TracerT* tracer = nullptr) {
  return bfs_digraph_strategy(engine::DigraphView(g), root, opt, instr, tracer);
}

// --- Reachability ------------------------------------------------------------

namespace detail {

// Claim an unvisited target, optionally restricted to one FW-BW subproblem.
struct ReachClaim {
  std::uint8_t* visited;
  const vid_t* sub = nullptr;  // nullptr: unrestricted
  vid_t sid = 0;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    if (sub != nullptr && sub[d] != sid) return false;
    if (ctx.load(visited[d])) return false;
    return ctx.claim(visited[d], std::uint8_t{0}, std::uint8_t{1});
  }
};

// Pull flavor: an unvisited vertex adopts reachability from any visited
// in-neighbor (monotone — rounds repeat until a sweep claims nothing).
struct ReachAdopt {
  std::uint8_t* visited;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return visited[v] == 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    if (!ctx.load(visited[u])) return false;
    ctx.store(visited[v], std::uint8_t{1});
    return true;
  }
};

}  // namespace detail

// Vertices reachable from `root` along arc direction (1 = reachable).
//   push — frontier rounds of sparse_push over out-arcs,
//   pull — dense_pull sweeps over in-arcs until no vertex flips.
template <engine::GraphView View, class Instr = NullInstr>
std::vector<std::uint8_t> reachability_digraph(const View& view, vid_t root,
                                               Direction dir, Instr instr = {}) {
  const vid_t n = view.n();
  PP_CHECK(root >= 0 && root < n);
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(n), 0);
  visited[static_cast<std::size_t>(root)] = 1;
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 75;

  if (dir == Direction::Push) {
    engine::VertexSet frontier = engine::VertexSet::single(n, root);
    while (!frontier.empty()) {
      frontier = engine::sparse_push(
          view, ws, frontier, detail::ReachClaim{visited.data()}, emo, instr);
    }
  } else {
    for (;;) {
      const engine::VertexSet claimed = engine::dense_pull(
          view, ws, detail::ReachAdopt{visited.data()}, emo, instr);
      if (claimed.empty()) break;
    }
  }
  return visited;
}

template <class Instr = NullInstr>
std::vector<std::uint8_t> reachability_digraph(const Digraph& g, vid_t root,
                                               Direction dir, Instr instr = {}) {
  return reachability_digraph(engine::DigraphView(g), root, dir, instr);
}

// Strongly connected components via forward-backward reachability (the
// SCC-forward passes ride the same ReachClaim functor; the backward pass
// pushes over view.reversed(), i.e. along in-arcs). Returns a component id
// per vertex in [0, #scc).
std::vector<vid_t> scc_digraph(const Digraph& g);

}  // namespace pushpull
