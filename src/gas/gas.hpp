// Gather-Apply-Scatter engine (§7.4) — a thin adapter over engine/edge_map.
//
// A vertex program supplies three functions that the engine runs per vertex:
// gather data from neighbors, apply it to the vertex value, and (implicitly)
// scatter activation to neighbors when the value changed. The push-pull
// dichotomy maps onto the same substrate as the core kernels:
//
//   pull — the engine *gathers*: a dense_pull pass marks vertices with an
//          active neighbor (early-break detect), a second dense_pull folds
//          gather() over their whole neighborhood into the vertex accumulator
//          (thread-private writes), and a vertex_map applies,
//   push — the engine *scatters*: a dense_push over active vertices combines
//          each contribution into the neighbor's accumulator through
//          LockCtx::critical (the striped lock pool — accumulators are
//          arbitrary types, so no hardware atomic can guard them), and the
//          apply phase then runs on the touched vertices.
//
// Program concept:
//   struct P {
//     using accum_t = ...;                      // trivially copyable
//     accum_t identity() const;
//     // contribution of edge (u → v) given u's current state
//     accum_t gather(vid_t v, vid_t u, weight_t w) const;
//     void combine(accum_t& into, const accum_t& from) const;
//     // integrate accumulated value; return true iff v's state changed
//     bool apply(vid_t v, const accum_t& acc);
//   };
#pragma once

#include <cstdint>
#include <vector>

#include "core/direction.hpp"
#include "engine/edge_map.hpp"
#include "graph/csr.hpp"
#include "util/check.hpp"

namespace pushpull::gas {

struct GasStats {
  int iterations = 0;
  std::int64_t total_activations = 0;
};

namespace detail {

template <class Program>
struct GasDetect {
  const std::uint8_t* active;
  std::uint8_t* touched;

  static constexpr bool kBreakOnUpdate = true;

  bool cond(vid_t v) const { return touched[v] == 0; }

  template <class Ctx>
  bool update(Ctx&, vid_t u, vid_t v, eid_t) const {
    if (!active[u]) return false;
    touched[v] = 1;  // v owned by the iterating thread
    return true;
  }
};

template <class Program>
struct GasGather {
  const Csr* g;
  Program* prog;
  typename Program::accum_t* acc;
  const std::uint8_t* touched;

  bool cond(vid_t v) const { return touched[v] != 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t e) const {
    const weight_t w = g->has_weights() ? g->edge_weight(e) : weight_t{1};
    ctx.accumulate(acc[v], prog->gather(v, u, w),
                   [&](const typename Program::accum_t& a,
                       const typename Program::accum_t& b) {
                     auto into = a;
                     prog->combine(into, b);
                     return into;
                   });
    return false;
  }
};

template <class Program>
struct GasScatter {
  const Csr* g;
  Program* prog;
  typename Program::accum_t* acc;
  std::uint8_t* touched;
  const std::uint8_t* active;

  bool source(vid_t u) const { return active[u] != 0; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t d, eid_t e) const {
    const weight_t w = g->has_weights() ? g->edge_weight(e) : weight_t{1};
    const auto contrib = prog->gather(d, u, w);
    ctx.critical(static_cast<std::size_t>(d), [&] {
      prog->combine(acc[d], contrib);
      touched[d] = 1;
    });
    return false;
  }
};

}  // namespace detail

template <class Program>
GasStats run_gas(const Csr& g, Program& prog, Direction dir,
                 int max_iterations = 1 << 20) {
  using Accum = typename Program::accum_t;
  const vid_t n = g.n();
  GasStats stats;

  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 1);
  std::vector<std::uint8_t> touched(static_cast<std::size_t>(n), 0);
  std::vector<Accum> acc(static_cast<std::size_t>(n), prog.identity());
  engine::Workspace ws(n);
  engine::EdgeMapOptions scan_opt;
  scan_opt.track_output = false;
  engine::EdgeMapOptions scatter_opt = scan_opt;
  scatter_opt.sync = engine::Sync::StripedLock;

  std::int64_t active_count = n;
  while (active_count > 0 && stats.iterations < max_iterations) {
    ++stats.iterations;
    stats.total_activations += active_count;

    // Reset the per-iteration accumulators and touch marks.
    engine::vertex_map(
        n, ws,
        [&](auto&, vid_t v) {
          acc[static_cast<std::size_t>(v)] = prog.identity();
          touched[static_cast<std::size_t>(v)] = 0;
          return false;
        },
        engine::VertexMapOptions{.track = false});

    if (dir == Direction::Pull) {
      // Gather-driven: vertices with at least one active neighbor recompute
      // over their whole neighborhood (detect pass early-breaks per vertex).
      engine::dense_pull(
          g, ws, detail::GasDetect<Program>{active.data(), touched.data()},
          scan_opt);
      engine::dense_pull(
          g, ws,
          detail::GasGather<Program>{&g, &prog, acc.data(), touched.data()},
          scan_opt);
    } else {
      // Scatter-driven: active vertices push contributions into neighbors'
      // accumulators under the striped lock pool.
      engine::dense_push(
          g, ws, /*sources=*/nullptr,
          detail::GasScatter<Program>{&g, &prog, acc.data(), touched.data(),
                                      active.data()},
          scatter_opt);
    }

    // Apply on touched vertices; the changed ones form the next active set.
    active_count = 0;
    std::int64_t changed_count = 0;
#pragma omp parallel for reduction(+ : changed_count) schedule(dynamic, 128)
    for (vid_t v = 0; v < n; ++v) {
      std::uint8_t next = 0;
      if (touched[static_cast<std::size_t>(v)] &&
          prog.apply(v, acc[static_cast<std::size_t>(v)])) {
        next = 1;
        ++changed_count;
      }
      active[static_cast<std::size_t>(v)] = next;
    }
    active_count = changed_count;
  }
  return stats;
}

}  // namespace pushpull::gas
