#include "core/coloring.hpp"

#include <algorithm>

#include "core/baselines/baselines.hpp"
#include "engine/edge_map.hpp"
#include "engine/policy.hpp"

namespace pushpull {

namespace detail {

int resolve_max_colors(const Csr& g, const ColoringOptions& opt) {
  if (opt.max_colors > 0) return opt.max_colors;
  // Greedy needs at most d̂+1 colors; each conflict iteration can strike one
  // more availability bit, hence the + L headroom.
  const long long auto_c = static_cast<long long>(g.max_degree()) +
                           static_cast<long long>(opt.max_iterations) + 2;
  return static_cast<int>(std::min<long long>(auto_c, std::max<long long>(g.n(), 1)));
}

int resolve_partitions(const ColoringOptions& opt) {
  return opt.num_partitions > 0 ? opt.num_partitions : omp_get_max_threads();
}

namespace {

// Greedy maximal independent set in vertex order; members get color 0.
std::vector<vid_t> seed_stable_set(const Csr& g, std::vector<int>& color) {
  std::vector<vid_t> set;
  for (vid_t v = 0; v < g.n(); ++v) {
    bool free = true;
    for (vid_t u : g.neighbors(v)) {
      if (color[static_cast<std::size_t>(u)] == 0) {
        free = false;
        break;
      }
    }
    if (free) {
      color[static_cast<std::size_t>(v)] = 0;
      set.push_back(v);
    }
  }
  return set;
}

// First-fit color respecting the current (partial) coloring.
int first_fit(const Csr& g, const std::vector<int>& color, vid_t v,
              std::vector<int>& mark, int stamp) {
  for (vid_t u : g.neighbors(v)) {
    const int cu = color[static_cast<std::size_t>(u)];
    if (cu >= 0 && cu < static_cast<int>(mark.size())) {
      mark[static_cast<std::size_t>(cu)] = stamp;
    }
  }
  int c = 0;
  while (mark[static_cast<std::size_t>(c)] == stamp) ++c;
  return c;
}

// Push claim: a frontier vertex grabs uncolored neighbors for this wave.
struct WaveClaimPush {
  int* color;
  int wave;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t, vid_t d, eid_t) const {
    if (atomic_load(color[d]) != -1) return false;
    return ctx.claim(color[d], -1, wave);
  }
};

// Pull claim, pass 1: an uncolored vertex records whether it borders the
// previous wave and whether this wave's color is already taken nearby
// (thread-private flag writes — v owns both scratch bytes).
struct WaveScanPull {
  int* color;
  std::uint8_t* adjacent;
  std::uint8_t* taken;
  int wave;

  bool cond(vid_t v) const { return color[v] == -1; }

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    const int cu = ctx.load(color[u]);
    if (cu == wave - 1) adjacent[v] = 1;
    if (cu == wave) taken[v] = 1;
    return false;
  }

  template <class Ctx>
  bool finalize(Ctx& ctx, vid_t v) const {
    // Pull claims its own color and, unlike push, can already avoid
    // same-wave neighbors it observes — far fewer conflicts (§5, GS).
    const bool claim = adjacent[v] != 0 && taken[v] == 0;
    if (claim) ctx.store(color[v], wave);
    adjacent[v] = 0;
    taken[v] = 0;
    return claim;
  }
};

// Conflict fix among same-wave vertices: the larger id loses and is uncolored
// again (it re-enters via a later wave with a fresh color).
struct WaveConflictFix {
  int* color;
  int wave;

  static constexpr bool kBreakOnUpdate = true;

  template <class Ctx>
  bool update(Ctx& ctx, vid_t u, vid_t v, eid_t) const {
    if (u < v && ctx.load(color[u]) == wave) {
      ctx.store(color[v], -1);
      return true;
    }
    return false;
  }
};

enum class FeMode { FixedPush, FixedPull, GenericSwitch, GreedySwitch };

// Frontier-Exploit wave coloring: every phase is an engine map; the modes
// differ only in the §5 policy driving them (fixed direction, GS flip, GrS
// sequential tail).
ColoringResult fe_engine(const Csr& g, FeMode mode, const ColoringOptions& opt) {
  const vid_t n = g.n();
  ColoringResult r;
  r.color.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) return r;

  std::vector<vid_t> frontier = seed_stable_set(g, r.color);
  vid_t colored = static_cast<vid_t>(frontier.size());
  int cur = 0;
  Direction dir = mode == FeMode::FixedPull ? Direction::Pull : Direction::Push;
  engine::Workspace ws(n);
  std::vector<std::uint8_t> adjacent(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> taken(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> newly;

  while (colored < n) {
    WallTimer iter_timer;
    // Greedy-Switch: once the uncolored remainder is small, threads mostly
    // fight over the same vertices — finish sequentially (§5, GrS).
    if (mode == FeMode::GreedySwitch &&
        static_cast<double>(n - colored) < opt.grs_threshold * n) {
      std::vector<int> mark(static_cast<std::size_t>(g.max_degree()) + 2, -1);
      int stamp = 0;
      for (vid_t v = 0; v < n; ++v) {
        if (r.color[static_cast<std::size_t>(v)] >= 0) continue;
        r.color[static_cast<std::size_t>(v)] = first_fit(g, r.color, v, mark, stamp++);
        ++colored;
      }
      r.iter_times.push_back(iter_timer.elapsed_s());
      r.iter_conflicts.push_back(0);
      ++r.iterations;
      break;
    }

    const int wave_color = ++cur;
    // Claim phase: one engine map, loop shape picked by the direction.
    engine::VertexSet claimed(n);
    if (dir == Direction::Push) {
      claimed = engine::sparse_push(g, ws, std::span<const vid_t>(frontier),
                                    WaveClaimPush{r.color.data(), wave_color});
    } else {
      claimed = engine::dense_pull(
          g, ws,
          WaveScanPull{r.color.data(), adjacent.data(), taken.data(), wave_color});
    }
    newly = std::move(claimed.mutable_ids());

    // Disconnected remainder: seed the wave with the first uncolored vertex.
    if (newly.empty()) {
      for (vid_t v = 0; v < n; ++v) {
        if (r.color[static_cast<std::size_t>(v)] == -1) {
          r.color[static_cast<std::size_t>(v)] = wave_color;
          newly.push_back(v);
          break;
        }
      }
    }

    // Conflict fix over the newly claimed set (sparse pull: each loser
    // uncolors itself).
    engine::EdgeMapStats fix_stats;
    engine::EdgeMapOptions fix_opt;
    fix_opt.track_output = false;
    engine::sparse_pull(g, ws, std::span<const vid_t>(newly),
                        WaveConflictFix{r.color.data(), wave_color}, fix_opt,
                        NullInstr{}, &fix_stats);
    const std::int64_t conflicts = fix_stats.updates;

    // Winners form the next frontier.
    frontier.clear();
    for (vid_t v : newly) {
      if (r.color[static_cast<std::size_t>(v)] == wave_color) {
        frontier.push_back(v);
        ++colored;
      }
    }

    r.iter_times.push_back(iter_timer.elapsed_s());
    r.iter_conflicts.push_back(conflicts);
    ++r.iterations;

    if (mode == FeMode::GenericSwitch && dir == Direction::Push) {
      // Switch once newly-colored vertices no longer dominate conflicts.
      const double ratio = static_cast<double>(frontier.size()) /
                           static_cast<double>(conflicts + 1);
      if (ratio < opt.gs_ratio) dir = Direction::Pull;
    }
    PP_CHECK(r.iterations <= 4 * n + 16);  // progress guard
  }

  int max_c = -1;
  for (int c : r.color) max_c = std::max(max_c, c);
  r.colors_used = max_c + 1;
  return r;
}

}  // namespace
}  // namespace detail

ColoringResult fe_color(const Csr& g, Direction dir, const ColoringOptions& opt) {
  return detail::fe_engine(
      g, dir == Direction::Push ? detail::FeMode::FixedPush : detail::FeMode::FixedPull,
      opt);
}

ColoringResult gs_color(const Csr& g, const ColoringOptions& opt) {
  return detail::fe_engine(g, detail::FeMode::GenericSwitch, opt);
}

ColoringResult grs_color(const Csr& g, const ColoringOptions& opt) {
  return detail::fe_engine(g, detail::FeMode::GreedySwitch, opt);
}

ColoringResult cr_color(const Csr& g, const ColoringOptions& opt) {
  const vid_t n = g.n();
  const int nparts = detail::resolve_partitions(opt);
  const Partition1D part(n, nparts);

  ColoringResult r;
  r.color.assign(static_cast<std::size_t>(n), -1);
  WallTimer iter_timer;

  // Step 1: color the border set sequentially — no conflicts can be created
  // on cross-partition edges afterwards (both endpoints of any such edge are
  // border vertices).
  const std::vector<vid_t> border = border_vertices(g, part);
  {
    std::vector<int> mark(static_cast<std::size_t>(g.max_degree()) + 2, -1);
    int stamp = 0;
    for (vid_t v : border) {
      r.color[static_cast<std::size_t>(v)] =
          detail::first_fit(g, r.color, v, mark, stamp++);
    }
  }

  // Step 2: every partition colors its interior in parallel; interior
  // vertices have all neighbors inside the partition or in the (already
  // colored, now read-only) border. A team smaller than nparts (nested call,
  // OMP_THREAD_LIMIT) runs partitions t, t + team, ...
#pragma omp parallel num_threads(nparts)
  {
    const int team = omp_get_num_threads();
    std::vector<int> mark(static_cast<std::size_t>(g.max_degree()) + 2, -1);
    int stamp = 0;
    for (int p = omp_get_thread_num(); p < nparts; p += team) {
      for (vid_t v = part.begin(p); v < part.end(p); ++v) {
        if (r.color[static_cast<std::size_t>(v)] >= 0) continue;
        r.color[static_cast<std::size_t>(v)] =
            detail::first_fit(g, r.color, v, mark, stamp++);
      }
    }
  }

  r.iter_times.push_back(iter_timer.elapsed_s());
  r.iter_conflicts.push_back(0);
  r.iterations = 1;
  int max_c = -1;
  for (int c : r.color) max_c = std::max(max_c, c);
  r.colors_used = max_c + 1;
  return r;
}

}  // namespace pushpull
