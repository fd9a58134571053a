// The direction-aware edge_map / vertex_map substrate (DESIGN.md §2).
//
// One traversal engine under every shared-memory kernel: BFS, SSSP-Δ, BC,
// PageRank and coloring conflict-detection in src/core/, the GAS engine in
// src/gas/ and the SpMV/SpMSpV kernels in src/la/ all run through the loop
// shapes below. Kernels supply a small *functor* describing the per-edge
// state change; the engine supplies the loops, the frontier machinery (the
// k-filter via FrontierBuffers), the sync policy (through the update contexts
// of context.hpp) and uniform operation counting.
//
// Functor concept (all hooks optional except update):
//
//   struct F {
//     // pull modes: destination filter; scanning v is skipped/stopped when
//     // false. push modes: not used.
//     bool cond(vid_t v) const;
//     // push modes: source filter (dense push visits only passing sources).
//     bool source(vid_t s) const;               // or source(s, frontier_pos)
//     // per-source / per-destination payload computed once per iterated
//     // vertex and passed to update as the last argument.
//     auto source_data(Ctx&, vid_t s);          // push; or (ctx, s, pos)
//     auto dest_data(Ctx&, vid_t d);            // pull
//     // The state change for edge s→d (e indexes weights). Write through ctx
//     // only. Return true to put the written vertex (push: d, pull: d) into
//     // the output set.
//     bool update(Ctx&, vid_t s, vid_t d, eid_t e);
//     // pull modes: runs before v's in-neighbor scan (initialize the
//     // destination's accumulator in the same pass).
//     void begin_dest(Ctx&, vid_t d);
//     // pull modes: runs after v's in-neighbor scan; its return value
//     // replaces the per-edge returns for output-set membership.
//     bool finalize(Ctx&, vid_t d);
//     // pull modes: stop scanning v's in-neighbors after the first update
//     // that returns true (the §3.3 bottom-up early break).
//     static constexpr bool kBreakOnUpdate = true;
//   };
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/direction.hpp"
#include "core/frontier.hpp"
#include "engine/context.hpp"
#include "engine/graph_view.hpp"
#include "engine/policy.hpp"
#include "engine/vertex_set.hpp"
#include "graph/csr.hpp"
#include "graph/partition_aware.hpp"
#include "perf/instr.hpp"
#include "sync/atomics.hpp"
#include "sync/spinlock.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pushpull::engine {

// Per-call knobs. `sync` picks the push context; pull modes always use
// thread-owned plain writes. Counter attribution: the engine itself issues
// code_region(region) once per iterated vertex and branch_cond() once per
// scanned edge; everything else is counted by the functor's ctx calls.
struct EdgeMapOptions {
  Sync sync = Sync::Atomic;
  bool track_output = true;   // build the output VertexSet
  bool dedup_output = false;  // push modes: bitmap test-and-set on output
  int region = 0;             // code_region id for the iTLB model
};

struct EdgeMapStats {
  Mode mode = Mode::SparsePush;
  std::int64_t updates = 0;  // number of update() calls returning true
  double seconds = 0.0;
};

// Reusable engine state: per-thread k-filter buffers, the striped lock pool,
// and the output-dedup bitmap. One Workspace per kernel invocation (it sizes
// to the graph); every edge_map call borrows it.
class Workspace {
 public:
  explicit Workspace(vid_t n, std::size_t lock_stripes = 4096)
      : n_(n), buffers_(omp_get_max_threads()), locks_(lock_stripes) {}

  vid_t n() const noexcept { return n_; }
  FrontierBuffers& buffers() noexcept { return buffers_; }
  SpinlockPool& locks() noexcept { return locks_; }

  // The dedup bitmap is lazy: construction stays O(threads), so per-call
  // Workspaces in thin adapters (la::spmv*) cost no O(n) allocation unless a
  // map actually requests dedup_output. Called by the engine (single-threaded
  // context) before any parallel region uses mark_once.
  void ensure_dedup() {
    if (seen_.empty()) seen_.assign(static_cast<std::size_t>(n_), 0);
  }

  // Test-and-set on the dedup bitmap; true when this call set the bit.
  bool mark_once(vid_t v) noexcept {
    return std::atomic_ref<std::uint8_t>(seen_[static_cast<std::size_t>(v)])
               .exchange(1, std::memory_order_relaxed) == 0;
  }

  void unmark_all(std::span<const vid_t> ids) noexcept {
    for (vid_t v : ids) seen_[static_cast<std::size_t>(v)] = 0;
  }

 private:
  vid_t n_;
  FrontierBuffers buffers_;
  SpinlockPool locks_;
  std::vector<std::uint8_t> seen_;
};

namespace detail {

// The §4.8 rule, in one place: push walks the out-arcs, pull the in-arcs.
template <EdgeMapGraph G>
inline decltype(auto) push_csr(const G& g) {
  if constexpr (GraphView<G>) {
    return g.out();
  } else {
    return g;
  }
}

template <EdgeMapGraph G>
inline decltype(auto) pull_csr(const G& g) {
  if constexpr (GraphView<G>) {
    return g.in();
  } else {
    return g;
  }
}

template <class F>
inline bool pass_cond(F& f, vid_t v) {
  if constexpr (requires { f.cond(v); }) {
    return f.cond(v);
  } else {
    return true;
  }
}

template <class F>
inline bool pass_source(F& f, vid_t s, std::size_t pos) {
  if constexpr (requires { f.source(s, pos); }) {
    return f.source(s, pos);
  } else if constexpr (requires { f.source(s); }) {
    return f.source(s);
  } else {
    return true;
  }
}

template <class F>
inline constexpr bool break_on_update() {
  if constexpr (requires { F::kBreakOnUpdate; }) {
    return F::kBreakOnUpdate;
  } else {
    return false;
  }
}

// Scans s's out-edges, calling update (with the per-source payload when the
// functor defines one); pushes accepted targets into the k-filter buffers.
template <CsrLike G, class Ctx, class F, class Instr>
inline std::int64_t push_edges(const G& g, Workspace& ws, Ctx& ctx, F& f,
                               vid_t s, std::size_t pos, bool track, bool dedup,
                               Instr& instr) {
  std::int64_t hits = 0;
  const eid_t end = g.edge_end(s);
  auto visit = [&](auto&&... payload) {
    for (eid_t e = g.edge_begin(s); e < end; ++e) {
      const vid_t d = g.edge_target(e);
      instr.branch_cond();
      if (f.update(ctx, s, d, e, payload...)) {
        ++hits;
        if (track && (!dedup || ws.mark_once(d))) ws.buffers().push_local(d);
      }
    }
  };
  if constexpr (requires { f.source_data(ctx, s, pos); }) {
    visit(f.source_data(ctx, s, pos));
  } else if constexpr (requires { f.source_data(ctx, s); }) {
    visit(f.source_data(ctx, s));
  } else {
    visit();
  }
  return hits;
}

// Scans d's in-arc row, calling update (with the per-destination payload when
// defined); early-breaks on the functor's kBreakOnUpdate. begin_dest runs
// before the scan and finalize after it. Returns whether d enters the output
// set.
template <CsrLike G, class Ctx, class F, class Instr>
inline std::pair<bool, std::int64_t> pull_edges(const G& in_csr, Ctx& ctx,
                                                F& f, vid_t d, Instr& instr) {
  if constexpr (requires { f.begin_dest(ctx, d); }) {
    f.begin_dest(ctx, d);
  }
  bool out = false;
  std::int64_t hits = 0;
  const eid_t end = in_csr.edge_end(d);
  auto visit = [&](auto&&... payload) {
    for (eid_t e = in_csr.edge_begin(d); e < end; ++e) {
      const vid_t s = in_csr.edge_target(e);
      instr.branch_cond();
      if (f.update(ctx, s, d, e, payload...)) {
        ++hits;
        out = true;
        if constexpr (break_on_update<F>()) break;
      }
    }
  };
  if constexpr (requires { f.dest_data(ctx, d); }) {
    visit(f.dest_data(ctx, d));
  } else {
    visit();
  }
  if constexpr (requires { f.finalize(ctx, d); }) {
    out = f.finalize(ctx, d);
  }
  return {out, hits};
}

template <class Ctx, CsrLike G, class F, class Instr>
VertexSet sparse_push_impl(const G& g, Workspace& ws,
                           std::span<const vid_t> in, F& f,
                           const EdgeMapOptions& opt, Instr instr,
                           EdgeMapStats* stats) {
  WallTimer timer;
  std::int64_t updates = 0;
#pragma omp parallel reduction(+ : updates)
  {
    Ctx ctx(instr, ws.locks());
#pragma omp for schedule(dynamic, 64)
    for (std::size_t i = 0; i < in.size(); ++i) {
      const vid_t s = in[i];
      if (!pass_source(f, s, i)) continue;
      instr.code_region(opt.region);
      updates += push_edges(g, ws, ctx, f, s, i, opt.track_output,
                            opt.dedup_output, instr);
    }
  }
  VertexSet out(g.n());
  ws.buffers().merge_into(out.mutable_ids());
  if (opt.dedup_output) ws.unmark_all(out.ids());
  if (stats != nullptr) {
    stats->mode = Mode::SparsePush;
    stats->updates = updates;
    stats->seconds = timer.elapsed_s();
  }
  return out;
}

template <class Ctx, CsrLike G, class F, class Instr>
VertexSet dense_push_impl(const G& g, Workspace& ws, const VertexSet* sources,
                          F& f, const EdgeMapOptions& opt, Instr instr,
                          EdgeMapStats* stats) {
  WallTimer timer;
  const vid_t n = g.n();
  const DenseFrontier* member = sources != nullptr ? &sources->dense() : nullptr;
  std::int64_t updates = 0;
#pragma omp parallel reduction(+ : updates)
  {
    Ctx ctx(instr, ws.locks());
#pragma omp for schedule(dynamic, 256)
    for (vid_t s = 0; s < n; ++s) {
      if (member != nullptr && !member->test(s)) continue;
      if (!pass_source(f, s, static_cast<std::size_t>(s))) continue;
      instr.code_region(opt.region);
      updates += push_edges(g, ws, ctx, f, s, static_cast<std::size_t>(s),
                            opt.track_output, opt.dedup_output, instr);
    }
  }
  VertexSet out(n);
  ws.buffers().merge_into(out.mutable_ids());
  if (opt.dedup_output) ws.unmark_all(out.ids());
  if (stats != nullptr) {
    stats->mode = Mode::DensePush;
    stats->updates = updates;
    stats->seconds = timer.elapsed_s();
  }
  return out;
}

}  // namespace detail

// --- sparse push (frontier-driven, k-filter output) --------------------------

template <EdgeMapGraph G, class F, class Instr = NullInstr>
VertexSet sparse_push(const G& g, Workspace& ws, std::span<const vid_t> in,
                      F&& f, const EdgeMapOptions& opt = {}, Instr instr = {},
                      EdgeMapStats* stats = nullptr) {
  const auto& out_csr = detail::push_csr(g);
  if (opt.dedup_output) ws.ensure_dedup();
  switch (opt.sync) {
    case Sync::StripedLock:
      return detail::sparse_push_impl<LockCtx<Instr>>(out_csr, ws, in, f, opt,
                                                      instr, stats);
    case Sync::Plain:
      return detail::sparse_push_impl<PlainCtx<Instr>>(out_csr, ws, in, f, opt,
                                                       instr, stats);
    case Sync::Atomic:
    default:
      return detail::sparse_push_impl<AtomicCtx<Instr>>(out_csr, ws, in, f, opt,
                                                        instr, stats);
  }
}

template <EdgeMapGraph G, class F, class Instr = NullInstr>
VertexSet sparse_push(const G& g, Workspace& ws, const VertexSet& in, F&& f,
                      const EdgeMapOptions& opt = {}, Instr instr = {},
                      EdgeMapStats* stats = nullptr) {
  return sparse_push(g, ws, in.ids(), std::forward<F>(f), opt, instr, stats);
}

// --- dense push (full source sweep, optional membership filter) --------------

template <EdgeMapGraph G, class F, class Instr = NullInstr>
VertexSet dense_push(const G& g, Workspace& ws, const VertexSet* sources,
                     F&& f, const EdgeMapOptions& opt = {}, Instr instr = {},
                     EdgeMapStats* stats = nullptr) {
  const auto& out_csr = detail::push_csr(g);
  if (opt.dedup_output) ws.ensure_dedup();
  switch (opt.sync) {
    case Sync::StripedLock:
      return detail::dense_push_impl<LockCtx<Instr>>(out_csr, ws, sources, f,
                                                     opt, instr, stats);
    case Sync::Plain:
      return detail::dense_push_impl<PlainCtx<Instr>>(out_csr, ws, sources, f,
                                                      opt, instr, stats);
    case Sync::Atomic:
    default:
      return detail::dense_push_impl<AtomicCtx<Instr>>(out_csr, ws, sources, f,
                                                       opt, instr, stats);
  }
}

// --- dense pull (full destination sweep over in-edges) -----------------------

// Pull stays zero-sync on asymmetric graphs: the loop hands the functor a
// PlainCtx whichever CSR it walks.
template <EdgeMapGraph G, class F, class Instr = NullInstr>
VertexSet dense_pull(const G& g, Workspace& ws, F&& f,
                     const EdgeMapOptions& opt = {}, Instr instr = {},
                     EdgeMapStats* stats = nullptr) {
  const auto& in_csr = detail::pull_csr(g);
  WallTimer timer;
  const vid_t n = in_csr.n();
  std::int64_t updates = 0;
#pragma omp parallel reduction(+ : updates)
  {
    PlainCtx<Instr> ctx(instr, ws.locks());
#pragma omp for schedule(dynamic, 256)
    for (vid_t d = 0; d < n; ++d) {
      if (!detail::pass_cond(f, d)) continue;
      instr.code_region(opt.region);
      const auto [out, hits] = detail::pull_edges(in_csr, ctx, f, d, instr);
      updates += hits;
      if (opt.track_output && out) ws.buffers().push_local(d);
    }
  }
  VertexSet out(n);
  ws.buffers().merge_into(out.mutable_ids());
  if (stats != nullptr) {
    stats->mode = Mode::DensePull;
    stats->updates = updates;
    stats->seconds = timer.elapsed_s();
  }
  return out;
}

// --- sparse pull (frontier-aware pull over a given destination set) ----------

template <EdgeMapGraph G, class F, class Instr = NullInstr>
VertexSet sparse_pull(const G& g, Workspace& ws, std::span<const vid_t> dests,
                      F&& f, const EdgeMapOptions& opt = {}, Instr instr = {},
                      EdgeMapStats* stats = nullptr) {
  const auto& in_csr = detail::pull_csr(g);
  WallTimer timer;
  std::int64_t updates = 0;
#pragma omp parallel reduction(+ : updates)
  {
    PlainCtx<Instr> ctx(instr, ws.locks());
#pragma omp for schedule(dynamic, 64)
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const vid_t d = dests[i];
      if (!detail::pass_cond(f, d)) continue;
      instr.code_region(opt.region);
      const auto [out, hits] = detail::pull_edges(in_csr, ctx, f, d, instr);
      updates += hits;
      if (opt.track_output && out) ws.buffers().push_local(d);
    }
  }
  VertexSet out(in_csr.n());
  ws.buffers().merge_into(out.mutable_ids());
  if (stats != nullptr) {
    stats->mode = Mode::SparsePull;
    stats->updates = updates;
    stats->seconds = timer.elapsed_s();
  }
  return out;
}

template <EdgeMapGraph G, class F, class Instr = NullInstr>
VertexSet sparse_pull(const G& g, Workspace& ws, const VertexSet& dests, F&& f,
                      const EdgeMapOptions& opt = {}, Instr instr = {},
                      EdgeMapStats* stats = nullptr) {
  return sparse_pull(g, ws, dests.ids(), std::forward<F>(f), opt, instr, stats);
}

// --- partition-aware dense push (Algorithm 8) --------------------------------
//
// Each partition is iterated by exactly one thread: the local adjacency half
// gets thread-owned plain writes (PlainCtx — local targets are owned by the
// updating thread by construction), a barrier, then the remote half pays the
// sync policy. OpenMP may grant fewer threads than parts (a call from inside
// another parallel region gets a team of one, and OMP_THREAD_LIMIT caps every
// team), so thread t runs parts t, t + team, t + 2·team, ... Edge ids are not
// available in the split representation; the functor receives e = -1 and must
// carry weights itself if it needs them.
template <class F, class Instr = NullInstr>
void dense_push_pa(const PartitionAwareCsr& pa, Workspace& ws, F&& f,
                   const EdgeMapOptions& opt = {}, Instr instr = {},
                   EdgeMapStats* stats = nullptr) {
  WallTimer timer;
  const Partition1D& part = pa.partition();
  std::int64_t updates = 0;
#pragma omp parallel num_threads(part.parts()) reduction(+ : updates)
  {
    const int team = omp_get_num_threads();
    // One half of the split sweep over this thread's parts.
    auto half = [&](auto& ctx, bool local, int region) {
      for (int p = omp_get_thread_num(); p < part.parts(); p += team) {
        for (vid_t s = part.begin(p); s < part.end(p); ++s) {
          if (!detail::pass_source(f, s, static_cast<std::size_t>(s))) continue;
          instr.code_region(region);
          const std::span<const vid_t> targets =
              local ? pa.local_neighbors(s) : pa.remote_neighbors(s);
          auto run = [&](auto&&... payload) {
            for (vid_t d : targets) {
              instr.branch_cond();
              if (f.update(ctx, s, d, eid_t{-1}, payload...)) ++updates;
            }
          };
          if constexpr (requires { f.source_data(ctx, s); }) {
            run(f.source_data(ctx, s));
          } else {
            run();
          }
        }
      }
    };
    {
      PlainCtx<Instr> ctx(instr, ws.locks());
      half(ctx, /*local=*/true, opt.region);
    }
#pragma omp barrier
    if (opt.sync == Sync::StripedLock) {
      LockCtx<Instr> ctx(instr, ws.locks());
      half(ctx, /*local=*/false, opt.region + 1);
    } else {
      AtomicCtx<Instr> ctx(instr, ws.locks());
      half(ctx, /*local=*/false, opt.region + 1);
    }
  }
  if (stats != nullptr) {
    stats->mode = Mode::DensePush;
    stats->updates = updates;
    stats->seconds = timer.elapsed_s();
  }
}

// --- vertex map --------------------------------------------------------------

// f(ctx, v) -> bool; true puts v in the returned set. The default context is
// PlainCtx — a vertex map writes only the iterated (thread-owned) vertex.
// Maps whose per-vertex work writes *other* vertices' state (NodeIterator
// triangle counting credits the two far corners) opt into a synchronized
// context instead, so the sync policy and its operation accounting stay an
// engine property there too.
struct VertexMapOptions {
  bool track = true;         // build the output VertexSet
  bool synchronized = false; // false: PlainCtx; true: the `sync` context
  Sync sync = Sync::Atomic;  // context when synchronized
  int chunk = 0;             // 0: static schedule; >0: dynamic(chunk)
};

namespace detail {

template <class Ctx, class F, class Instr>
void vertex_map_impl(std::span<const vid_t> ids, Workspace& ws, F& f,
                     const VertexMapOptions& opt, Instr instr) {
#pragma omp parallel
  {
    Ctx ctx(instr, ws.locks());
    if (opt.chunk > 0) {
#pragma omp for schedule(dynamic, opt.chunk)
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (f(ctx, ids[i]) && opt.track) ws.buffers().push_local(ids[i]);
      }
    } else {
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (f(ctx, ids[i]) && opt.track) ws.buffers().push_local(ids[i]);
      }
    }
  }
}

// Dense variant: iterate [0, n) directly — no materialized id list.
template <class Ctx, class F, class Instr>
void vertex_map_dense_impl(vid_t n, Workspace& ws, F& f,
                           const VertexMapOptions& opt, Instr instr) {
#pragma omp parallel
  {
    Ctx ctx(instr, ws.locks());
    if (opt.chunk > 0) {
#pragma omp for schedule(dynamic, opt.chunk)
      for (vid_t v = 0; v < n; ++v) {
        if (f(ctx, v) && opt.track) ws.buffers().push_local(v);
      }
    } else {
#pragma omp for schedule(static)
      for (vid_t v = 0; v < n; ++v) {
        if (f(ctx, v) && opt.track) ws.buffers().push_local(v);
      }
    }
  }
}

}  // namespace detail

// Sparse vertex map: iterate an explicit id list (Borůvka's per-supervertex
// hook/shortcut rounds iterate the active list, not [0, n)).
template <class F, class Instr = NullInstr>
  requires(!std::convertible_to<F, VertexMapOptions>)
VertexSet vertex_map(vid_t n, Workspace& ws, std::span<const vid_t> ids, F&& f,
                     const VertexMapOptions& opt = {}, Instr instr = {}) {
  switch (opt.synchronized ? opt.sync : Sync::Atomic) {
    case Sync::StripedLock:
      detail::vertex_map_impl<LockCtx<Instr>>(ids, ws, f, opt, instr);
      break;
    case Sync::Atomic:
    default:
      if (opt.synchronized) {
        detail::vertex_map_impl<AtomicCtx<Instr>>(ids, ws, f, opt, instr);
      } else {
        detail::vertex_map_impl<PlainCtx<Instr>>(ids, ws, f, opt, instr);
      }
      break;
  }
  VertexSet out(n);
  ws.buffers().merge_into(out.mutable_ids());
  return out;
}

// Dense vertex map over [0, n).
template <class F, class Instr = NullInstr>
  requires(!std::convertible_to<F, VertexMapOptions>)
VertexSet vertex_map(vid_t n, Workspace& ws, F&& f,
                     const VertexMapOptions& opt = {}, Instr instr = {}) {
  switch (opt.synchronized ? opt.sync : Sync::Atomic) {
    case Sync::StripedLock:
      detail::vertex_map_dense_impl<LockCtx<Instr>>(n, ws, f, opt, instr);
      break;
    case Sync::Atomic:
    default:
      if (opt.synchronized) {
        detail::vertex_map_dense_impl<AtomicCtx<Instr>>(n, ws, f, opt, instr);
      } else {
        detail::vertex_map_dense_impl<PlainCtx<Instr>>(n, ws, f, opt, instr);
      }
      break;
  }
  VertexSet out(n);
  ws.buffers().merge_into(out.mutable_ids());
  return out;
}

}  // namespace pushpull::engine
