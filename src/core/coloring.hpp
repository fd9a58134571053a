// Graph coloring (§3.6, §4.6, Algorithm 6) and the acceleration strategies
// of §5 that the paper demonstrates on it.
//
// Boman graph coloring (BGC): each iteration (1) greedily colors the vertices
// scheduled for (re)coloring inside every partition independently, then
// (2) verifies border vertices for cross-partition conflicts. Phase (2) is a
// single engine edge_map over the border set with one strike functor; the
// direction picks the loop shape and context:
//
//   push — engine::sparse_push + AtomicCtx: the winner's thread strikes the
//          *loser's* avail word and schedule flag (remote writes → integer
//          atomics / CAS),
//   pull — engine::sparse_pull + PlainCtx: each thread strikes only its *own*
//          vertices (thread-private writes, conflicts detected symmetrically).
//
// Strategies (§5), all policy compositions over the same engine calls
// (see coloring.cpp):
//   Frontier-Exploit (FE)  — wave coloring from a stable seed set; only the
//                            frontier's neighborhood is touched per iteration
//                            instead of all n vertices (sparse engine modes).
//   Generic-Switch (GS)    — FE that starts pushing and switches to pulling
//                            when conflicts begin to dominate the wave.
//   Greedy-Switch (GrS)    — FE that abandons parallelism entirely once the
//                            uncolored remainder is small (< 10% of n) and
//                            finishes with sequential greedy.
//   Conflict-Removal (CR)  — colors the border set sequentially first, then
//                            all partitions in parallel; conflict-free by
//                            construction (Algorithm 9).
#pragma once

#include <omp.h>

#include <cstdint>
#include <vector>

#include "core/direction.hpp"
#include "engine/edge_map.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "perf/instr.hpp"
#include "sync/atomics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pushpull {

struct ColoringOptions {
  int max_iterations = 50;       // L
  int max_colors = 0;            // C; 0 = auto (d̂ + L + 2)
  bool stop_on_converged = true; // false reproduces the paper's fixed-L runs
  int num_partitions = 0;        // 0 = omp_get_max_threads()
  double grs_threshold = 0.10;   // GrS: switch when uncolored < threshold·n
  double gs_ratio = 2.0;         // GS: switch when colored/conflicts < ratio
};

struct ColoringResult {
  std::vector<int> color;
  int iterations = 0;
  int colors_used = 0;
  std::vector<double> iter_times;         // wall seconds per iteration
  std::vector<std::int64_t> iter_conflicts;  // conflicts detected per iteration
};

namespace detail {

// Availability mask: bit c set ⇒ color c may still be used for the vertex.
class AvailMask {
 public:
  AvailMask(vid_t n, int colors)
      : words_per_(static_cast<std::size_t>((colors + 63) / 64)),
        colors_(colors),
        bits_(static_cast<std::size_t>(n) * words_per_, ~std::uint64_t{0}) {}

  int colors() const noexcept { return colors_; }

  // Mask that strikes color c from its word: word &= strike_mask(c).
  static std::uint64_t strike_mask(int c) noexcept {
    return ~(std::uint64_t{1} << (c % 64));
  }

  // Mutable word holding color c's bit — the engine contexts apply the strike
  // with the sync policy of the traversal direction (and_mask).
  std::uint64_t& word_ref(vid_t v, int c) noexcept {
    return bits_[word_index(v, c)];
  }

  bool test(vid_t v, int c) const noexcept {
    return (bits_[word_index(v, c)] >> (c % 64)) & 1;
  }

  const std::uint64_t* row(vid_t v) const noexcept {
    return bits_.data() + static_cast<std::size_t>(v) * words_per_;
  }

  std::size_t words_per_vertex() const noexcept { return words_per_; }

  const void* address_of(vid_t v, int c) const noexcept {
    return &bits_[word_index(v, c)];
  }

 private:
  std::size_t word_index(vid_t v, int c) const noexcept {
    PP_DCHECK(c >= 0 && c < colors_);
    return static_cast<std::size_t>(v) * words_per_ +
           static_cast<std::size_t>(c) / 64;
  }

  std::size_t words_per_;
  int colors_;
  std::vector<std::uint64_t> bits_;
};

// Smallest color allowed by `avail` and not used by any current neighbor.
// `scratch` is a caller-provided forbidden mask of words_per_vertex words.
template <class Instr>
int pick_color(const Csr& g, const AvailMask& avail, const std::vector<int>& color,
               vid_t v, std::vector<std::uint64_t>& scratch, Instr& instr) {
  const std::size_t words = avail.words_per_vertex();
  const std::uint64_t* row = avail.row(v);
  for (std::size_t w = 0; w < words; ++w) scratch[w] = row[w];
  for (vid_t u : g.neighbors(v)) {
    instr.read(&color[static_cast<std::size_t>(u)], sizeof(int));
    const int cu = atomic_load(color[static_cast<std::size_t>(u)]);
    instr.branch_cond();
    if (cu >= 0 && cu < avail.colors()) {
      scratch[static_cast<std::size_t>(cu) / 64] &=
          ~(std::uint64_t{1} << (cu % 64));
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    if (scratch[w] != 0) {
      const int c = static_cast<int>(w * 64) + __builtin_ctzll(scratch[w]);
      if (c < avail.colors()) return c;
    }
  }
  PP_CHECK(false && "coloring ran out of colors; raise ColoringOptions::max_colors");
  return -1;
}

int resolve_max_colors(const Csr& g, const ColoringOptions& opt);
int resolve_partitions(const ColoringOptions& opt);

// Cross-partition conflict detection, direction-agnostic: on an equal-color
// cut edge the smaller id wins and the loser's color is struck from its
// availability mask. The engine decides *who executes* the strike — push
// iterates sources (remote strike through AtomicCtx), pull iterates
// destinations (self-strike through PlainCtx) — with the same functor body.
struct ConflictStrike {
  const Partition1D* part;
  int* color;
  AvailMask* avail;
  std::uint8_t* need;
  bool iterate_sources;  // true: sparse_push over the border (push direction)

  // Color of the iterated border vertex, read once per vertex.
  template <class Ctx>
  int source_data(Ctx&, vid_t s) const {
    return color[s];
  }
  template <class Ctx>
  int dest_data(Ctx&, vid_t d) const {
    return color[d];
  }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t s, vid_t d, eid_t, int cv) const {
    if (part->owner(s) == part->owner(d)) return false;
    const vid_t other = iterate_sources ? d : s;
    if (ctx.load(color[other]) != cv) return false;
    if (s >= d) return false;  // the smaller id keeps its color
    // Strike the loser d: push reaches it remotely (atomics), pull only ever
    // strikes the iterated vertex itself (d == the pulled destination).
    ctx.and_mask(avail->word_ref(d, cv), AvailMask::strike_mask(cv));
    ctx.store(need[d], std::uint8_t{1});
    return true;
  }
};

}  // namespace detail

// --- Boman graph coloring (Algorithm 6) --------------------------------------

template <class Instr = NullInstr>
ColoringResult boman_color(const Csr& g, Direction dir, const ColoringOptions& opt = {},
                           Instr instr = {}) {
  const vid_t n = g.n();
  const int nparts = detail::resolve_partitions(opt);
  const int max_colors = detail::resolve_max_colors(g, opt);
  const Partition1D part(n, nparts);

  ColoringResult r;
  r.color.assign(static_cast<std::size_t>(n), -1);
  detail::AvailMask avail(n, max_colors);
  std::vector<std::uint8_t> need(static_cast<std::size_t>(n), 1);
  const std::vector<vid_t> border = border_vertices(g, part);
  engine::Workspace ws(n);
  engine::EdgeMapOptions emo;
  emo.region = 41;
  emo.track_output = false;

  for (int l = 0; l < opt.max_iterations; ++l) {
    WallTimer iter_timer;

    // Phase 1: seq_color_partition(P) for every partition in parallel. This
    // is the greedy interior step of Algorithm 6 — partition-sequential by
    // construction, not a push/pull traversal. A team smaller than nparts
    // (nested call, OMP_THREAD_LIMIT) runs partitions t, t + team, ...
#pragma omp parallel num_threads(nparts)
    {
      const int team = omp_get_num_threads();
      std::vector<std::uint64_t> scratch(avail.words_per_vertex());
      for (int p = omp_get_thread_num(); p < nparts; p += team) {
        for (vid_t v = part.begin(p); v < part.end(p); ++v) {
          instr.code_region(40);
          if (!need[static_cast<std::size_t>(v)]) continue;
          const int c = detail::pick_color(g, avail, r.color, v, scratch, instr);
          instr.write(&r.color[static_cast<std::size_t>(v)], sizeof(int));
          atomic_store(r.color[static_cast<std::size_t>(v)], c);
          need[static_cast<std::size_t>(v)] = 0;
        }
      }
    }

    // Phase 2: fix_conflicts() over border vertices — one engine call.
    engine::EdgeMapStats stats;
    const detail::ConflictStrike strike{&part, r.color.data(), &avail,
                                        need.data(),
                                        dir == Direction::Push};
    if (dir == Direction::Push) {
      engine::sparse_push(g, ws, std::span<const vid_t>(border), strike, emo,
                          instr, &stats);
    } else {
      engine::sparse_pull(g, ws, std::span<const vid_t>(border), strike, emo,
                          instr, &stats);
    }

    r.iter_times.push_back(iter_timer.elapsed_s());
    r.iter_conflicts.push_back(stats.updates);
    ++r.iterations;
    if (opt.stop_on_converged && stats.updates == 0) break;
  }

  int max_c = -1;
  for (int c : r.color) max_c = std::max(max_c, c);
  r.colors_used = max_c + 1;
  return r;
}

template <class Instr = NullInstr>
ColoringResult boman_color_push(const Csr& g, const ColoringOptions& opt = {},
                                Instr instr = {}) {
  return boman_color(g, Direction::Push, opt, instr);
}

template <class Instr = NullInstr>
ColoringResult boman_color_pull(const Csr& g, const ColoringOptions& opt = {},
                                Instr instr = {}) {
  return boman_color(g, Direction::Pull, opt, instr);
}

// --- Strategy implementations (compiled in coloring.cpp) ----------------------

// Frontier-Exploit with a fixed direction.
ColoringResult fe_color(const Csr& g, Direction dir, const ColoringOptions& opt = {});

// Frontier-Exploit + Generic-Switch (push until conflicts dominate, then pull).
ColoringResult gs_color(const Csr& g, const ColoringOptions& opt = {});

// Frontier-Exploit + Greedy-Switch (finish sequentially once < 10% remains).
ColoringResult grs_color(const Csr& g, const ColoringOptions& opt = {});

// Conflict-Removal: border first (sequential), partitions in parallel after.
ColoringResult cr_color(const Csr& g, const ColoringOptions& opt = {});

}  // namespace pushpull
