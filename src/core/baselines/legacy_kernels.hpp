// Pre-refactor shared-memory kernels, frozen as differential baselines.
//
// These are the hand-rolled push/pull OpenMP loops that lived in core/bfs.hpp,
// sssp_delta.hpp, pagerank.hpp, bc.hpp and coloring.hpp before the engine
// refactor (PR 4) rebased the kernels onto engine/edge_map.hpp. They are kept
// verbatim in behavior (instrumentation hooks stripped) so the engine-based
// kernels can be asserted bit-identical against them across the graph zoo —
// see tests/test_engine_differential.cpp. Do not "improve" these: their value
// is that they never change.
#pragma once

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/coloring.hpp"
#include "core/direction.hpp"
#include "core/frontier.hpp"
#include "core/pagerank.hpp"
#include "core/sssp_delta.hpp"
#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "graph/partition_aware.hpp"
#include "sync/atomics.hpp"
#include "sync/spinlock.hpp"
#include "util/check.hpp"

namespace pushpull::legacy {

// --- BFS ---------------------------------------------------------------------

struct BfsRef {
  std::vector<vid_t> dist;
  std::vector<vid_t> parent;
  int levels = 0;
};

inline BfsRef bfs_push(const Csr& g, vid_t root) {
  const vid_t n = g.n();
  PP_CHECK(root >= 0 && root < n);
  BfsRef r;
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.parent.assign(static_cast<std::size_t>(n), -1);
  r.dist[static_cast<std::size_t>(root)] = 0;

  FrontierBuffers buffers(omp_get_max_threads());
  std::vector<vid_t> frontier{root};
  vid_t level = 0;
  while (!frontier.empty()) {
    ++level;
#pragma omp parallel for schedule(dynamic, 64)
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const vid_t v = frontier[i];
      for (vid_t u : g.neighbors(v)) {
        if (atomic_load(r.dist[static_cast<std::size_t>(u)]) >= 0) continue;
        vid_t expected = -1;
        if (cas(r.dist[static_cast<std::size_t>(u)], expected, level)) {
          r.parent[static_cast<std::size_t>(u)] = v;
          buffers.push_local(u);
        }
      }
    }
    buffers.merge_into(frontier);
    ++r.levels;
  }
  return r;
}

inline BfsRef bfs_pull(const Csr& g, vid_t root) {
  const vid_t n = g.n();
  PP_CHECK(root >= 0 && root < n);
  BfsRef r;
  r.dist.assign(static_cast<std::size_t>(n), -1);
  r.parent.assign(static_cast<std::size_t>(n), -1);
  r.dist[static_cast<std::size_t>(root)] = 0;

  vid_t level = 0;
  bool advanced = true;
  while (advanced) {
    advanced = false;
    ++level;
    bool any = false;
#pragma omp parallel for schedule(dynamic, 256) reduction(|| : any)
    for (vid_t v = 0; v < n; ++v) {
      if (r.dist[static_cast<std::size_t>(v)] >= 0) continue;
      for (vid_t u : g.neighbors(v)) {
        if (r.dist[static_cast<std::size_t>(u)] == level - 1) {
          r.dist[static_cast<std::size_t>(v)] = level;
          r.parent[static_cast<std::size_t>(v)] = u;
          any = true;
          break;
        }
      }
    }
    advanced = any;
    if (advanced) ++r.levels;
  }
  return r;
}

// --- Δ-stepping SSSP ---------------------------------------------------------

inline constexpr weight_t kInf = std::numeric_limits<weight_t>::infinity();

inline std::int64_t next_bucket(const std::vector<weight_t>& d, weight_t delta,
                                std::int64_t b) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::size_t v = 0; v < d.size(); ++v) {
    const std::int64_t bv = bucket_of(d[v], delta);
    if (bv > b && bv < best) best = bv;
  }
  return best;
}

inline std::vector<weight_t> sssp_delta_push(const Csr& g, vid_t src,
                                             weight_t delta) {
  PP_CHECK(g.has_weights());
  const vid_t n = g.n();
  std::vector<weight_t> dist(static_cast<std::size_t>(n), kInf);
  dist[static_cast<std::size_t>(src)] = 0;
  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> active_next(static_cast<std::size_t>(n), 0);

  std::int64_t b = 0;
  while (b != std::numeric_limits<std::int64_t>::max()) {
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      active[static_cast<std::size_t>(v)] =
          bucket_of(dist[static_cast<std::size_t>(v)], delta) == b ? 1 : 0;
    }
    bool bucket_changed = true;
    while (bucket_changed) {
      bucket_changed = false;
      bool changed = false;
#pragma omp parallel for schedule(dynamic, 128) reduction(|| : changed)
      for (vid_t v = 0; v < n; ++v) {
        if (!active[static_cast<std::size_t>(v)]) continue;
        active[static_cast<std::size_t>(v)] = 0;
        const weight_t dv = atomic_load(dist[static_cast<std::size_t>(v)]);
        const auto nb = g.neighbors(v);
        const auto wgt = g.weights(v);
        for (std::size_t i = 0; i < nb.size(); ++i) {
          const vid_t w = nb[i];
          const weight_t nd = dv + wgt[i];
          if (nd < atomic_load(dist[static_cast<std::size_t>(w)])) {
            if (atomic_min(dist[static_cast<std::size_t>(w)], nd) &&
                bucket_of(nd, delta) == b) {
              atomic_store(active_next[static_cast<std::size_t>(w)], std::uint8_t{1});
              changed = true;
            }
          }
        }
      }
      if (changed) {
        bucket_changed = true;
        active.swap(active_next);
        std::fill(active_next.begin(), active_next.end(), std::uint8_t{0});
      }
    }
    b = next_bucket(dist, delta, b);
  }
  return dist;
}

inline std::vector<weight_t> sssp_delta_pull(const Csr& g, vid_t src,
                                             weight_t delta) {
  PP_CHECK(g.has_weights());
  const vid_t n = g.n();
  std::vector<weight_t> dist(static_cast<std::size_t>(n), kInf);
  dist[static_cast<std::size_t>(src)] = 0;
  std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> active_next(static_cast<std::size_t>(n), 0);

  std::int64_t b = 0;
  while (b != std::numeric_limits<std::int64_t>::max()) {
    int itr = 0;
    bool bucket_changed = true;
    while (bucket_changed) {
      bucket_changed = false;
      bool changed = false;
#pragma omp parallel for schedule(dynamic, 128) reduction(|| : changed)
      for (vid_t v = 0; v < n; ++v) {
        const weight_t dv = dist[static_cast<std::size_t>(v)];
        if (bucket_of(dv, delta) < b) continue;
        weight_t best = dv;
        vid_t improved_from = kInvalidVertex;
        const auto nb = g.neighbors(v);
        const auto wgt = g.weights(v);
        for (std::size_t i = 0; i < nb.size(); ++i) {
          const vid_t w = nb[i];
          const weight_t dw = atomic_load(dist[static_cast<std::size_t>(w)]);
          if (bucket_of(dw, delta) != b) continue;
          if (itr != 0 && !atomic_load(active[static_cast<std::size_t>(w)]) &&
              w != v) {
            continue;
          }
          const weight_t nd = dw + wgt[i];
          if (nd < best) {
            best = nd;
            improved_from = w;
          }
        }
        if (improved_from != kInvalidVertex) {
          atomic_store(dist[static_cast<std::size_t>(v)], best);
          if (bucket_of(best, delta) == b) {
            active_next[static_cast<std::size_t>(v)] = 1;
            changed = true;
          }
        }
      }
      ++itr;
      if (changed) bucket_changed = true;
      active.swap(active_next);
      std::fill(active_next.begin(), active_next.end(), std::uint8_t{0});
    }
    b = next_bucket(dist, delta, b);
  }
  return dist;
}

// --- k-core decomposition ----------------------------------------------------
//
// The pre-BucketedVertexSet peel (frozen from core/kcore.hpp when PR 8 rebased
// the kernel onto the bucketed frontier): for each threshold k, cascade-peel
// every vertex whose residual degree fell below k, decrementing neighbors'
// residuals, until stable. Same claim/decrement order-insensitivity as the
// engine version — coreness is a unique fixed point — so the rebased kernel is
// asserted bit-identical against this across the zoo.
inline std::vector<vid_t> kcore(const Csr& g) {
  const vid_t n = g.n();
  std::vector<vid_t> core(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> residual(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(n), 1);
  for (vid_t v = 0; v < n; ++v) residual[static_cast<std::size_t>(v)] = g.degree(v);

  vid_t remaining = n;
  vid_t k = 0;
  while (remaining > 0) {
    ++k;
    for (;;) {
      std::vector<vid_t> peeled;
      for (vid_t v = 0; v < n; ++v) {
        if (!alive[static_cast<std::size_t>(v)]) continue;
        if (residual[static_cast<std::size_t>(v)] >= k) continue;
        alive[static_cast<std::size_t>(v)] = 0;
        core[static_cast<std::size_t>(v)] = k - 1;
        peeled.push_back(v);
      }
      if (peeled.empty()) break;
      remaining -= static_cast<vid_t>(peeled.size());
      for (const vid_t v : peeled) {
        for (const vid_t u : g.neighbors(v)) {
          --residual[static_cast<std::size_t>(u)];
        }
      }
    }
  }
  return core;
}

// --- PageRank ----------------------------------------------------------------
//
// Oracle and engine take the dangling mass from the same
// pushpull::detail::pr_dangling_mass, whose sum does not depend on the thread
// count, so the two stay comparable bit for bit.

inline std::vector<double> pagerank_pull(const Csr& g, const PageRankOptions& opt) {
  const vid_t n = g.n();
  PP_CHECK(n > 0);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int l = 0; l < opt.iterations; ++l) {
    const double dangling = pushpull::detail::pr_dangling_mass(g, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (vid_t u : g.neighbors(v)) {
        sum += pr[static_cast<std::size_t>(u)] / g.degree(u);
      }
      next[static_cast<std::size_t>(v)] = base + opt.damping * sum;
    }
    pr.swap(next);
  }
  return pr;
}

inline std::vector<double> pagerank_push(const Csr& g, const PageRankOptions& opt) {
  const vid_t n = g.n();
  PP_CHECK(n > 0);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int l = 0; l < opt.iterations; ++l) {
    const double dangling = pushpull::detail::pr_dangling_mass(g, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
#pragma omp parallel
    {
#pragma omp for schedule(static)
      for (vid_t v = 0; v < n; ++v) {
        const vid_t deg = g.degree(v);
        if (deg == 0) continue;
        const double share = opt.damping * pr[static_cast<std::size_t>(v)] / deg;
        for (vid_t u : g.neighbors(v)) {
          atomic_add(next[static_cast<std::size_t>(u)], share);
        }
      }
#pragma omp for schedule(static)
      for (vid_t v = 0; v < n; ++v) {
        next[static_cast<std::size_t>(v)] += base;
      }
    }
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

inline std::vector<double> pagerank_push_pa(const Csr& g, const PartitionAwareCsr& pa,
                                            const PageRankOptions& opt) {
  const vid_t n = g.n();
  PP_CHECK(n > 0 && pa.n() == n);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  const Partition1D& part = pa.partition();
  for (int l = 0; l < opt.iterations; ++l) {
    const double dangling = pushpull::detail::pr_dangling_mass(g, pr);
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
#pragma omp parallel num_threads(part.parts())
    {
      const int t = omp_get_thread_num();
      for (vid_t v = part.begin(t); v < part.end(t); ++v) {
        const vid_t deg = pa.degree(v);
        if (deg == 0) continue;
        const double share = opt.damping * pr[static_cast<std::size_t>(v)] / deg;
        for (vid_t u : pa.local_neighbors(v)) {
          next[static_cast<std::size_t>(u)] += share;
        }
      }
#pragma omp barrier
      for (vid_t v = part.begin(t); v < part.end(t); ++v) {
        const vid_t deg = pa.degree(v);
        if (deg == 0) continue;
        const double share = opt.damping * pr[static_cast<std::size_t>(v)] / deg;
        for (vid_t u : pa.remote_neighbors(v)) {
          atomic_add(next[static_cast<std::size_t>(u)], share);
        }
      }
#pragma omp barrier
      for (vid_t v = part.begin(t); v < part.end(t); ++v) {
        next[static_cast<std::size_t>(v)] += base;
      }
    }
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

// --- Betweenness centrality --------------------------------------------------

inline std::vector<double> betweenness_centrality(const Csr& g,
                                                  const std::vector<vid_t>& srcs,
                                                  Direction forward,
                                                  Direction backward) {
  const vid_t n = g.n();
  std::vector<double> bc(static_cast<std::size_t>(n), 0.0);
  if (n == 0) return bc;

  std::vector<vid_t> sources = srcs;
  if (sources.empty()) {
    sources.resize(static_cast<std::size_t>(n));
    for (vid_t v = 0; v < n; ++v) sources[static_cast<std::size_t>(v)] = v;
  }

  std::vector<vid_t> dist(static_cast<std::size_t>(n));
  std::vector<std::int64_t> sigma(static_cast<std::size_t>(n));
  std::vector<double> delta(static_cast<std::size_t>(n));
  std::vector<std::vector<vid_t>> levels;
  FrontierBuffers buffers(omp_get_max_threads());

  for (vid_t s : sources) {
    std::fill(dist.begin(), dist.end(), vid_t{-1});
    std::fill(sigma.begin(), sigma.end(), std::int64_t{0});
    dist[static_cast<std::size_t>(s)] = 0;
    sigma[static_cast<std::size_t>(s)] = 1;
    levels.clear();
    levels.push_back({s});

    vid_t level = 0;
    while (!levels.back().empty()) {
      const std::vector<vid_t>& frontier = levels.back();
      ++level;
      if (forward == Direction::Push) {
#pragma omp parallel for schedule(dynamic, 64)
        for (std::size_t i = 0; i < frontier.size(); ++i) {
          const vid_t v = frontier[i];
          for (vid_t u : g.neighbors(v)) {
            vid_t du = atomic_load(dist[static_cast<std::size_t>(u)]);
            if (du == -1) {
              vid_t expected = -1;
              if (cas(dist[static_cast<std::size_t>(u)], expected, level)) {
                buffers.push_local(u);
              }
              du = atomic_load(dist[static_cast<std::size_t>(u)]);
            }
            if (du == level) {
              faa(sigma[static_cast<std::size_t>(u)],
                  sigma[static_cast<std::size_t>(v)]);
            }
          }
        }
      } else {
#pragma omp parallel for schedule(dynamic, 256)
        for (vid_t v = 0; v < n; ++v) {
          if (dist[static_cast<std::size_t>(v)] != -1) continue;
          std::int64_t paths = 0;
          for (vid_t u : g.neighbors(v)) {
            if (atomic_load(dist[static_cast<std::size_t>(u)]) == level - 1) {
              paths += sigma[static_cast<std::size_t>(u)];
            }
          }
          if (paths > 0) {
            dist[static_cast<std::size_t>(v)] = level;
            sigma[static_cast<std::size_t>(v)] = paths;
            buffers.push_local(v);
          }
        }
      }
      levels.emplace_back();
      buffers.merge_into(levels.back());
    }
    levels.pop_back();

    std::fill(delta.begin(), delta.end(), 0.0);
    for (int l = static_cast<int>(levels.size()) - 2; l >= 0; --l) {
      if (backward == Direction::Pull) {
        const std::vector<vid_t>& lvl = levels[static_cast<std::size_t>(l)];
#pragma omp parallel for schedule(dynamic, 64)
        for (std::size_t i = 0; i < lvl.size(); ++i) {
          const vid_t v = lvl[i];
          double acc = 0.0;
          for (vid_t u : g.neighbors(v)) {
            if (dist[static_cast<std::size_t>(u)] == l + 1) {
              acc += static_cast<double>(sigma[static_cast<std::size_t>(v)]) /
                     static_cast<double>(sigma[static_cast<std::size_t>(u)]) *
                     (1.0 + delta[static_cast<std::size_t>(u)]);
            }
          }
          delta[static_cast<std::size_t>(v)] += acc;
        }
      } else {
        const std::vector<vid_t>& lvl = levels[static_cast<std::size_t>(l) + 1];
#pragma omp parallel for schedule(dynamic, 64)
        for (std::size_t i = 0; i < lvl.size(); ++i) {
          const vid_t w = lvl[i];
          const double contrib_base =
              (1.0 + delta[static_cast<std::size_t>(w)]) /
              static_cast<double>(sigma[static_cast<std::size_t>(w)]);
          for (vid_t v : g.neighbors(w)) {
            if (dist[static_cast<std::size_t>(v)] == l) {
              atomic_add(delta[static_cast<std::size_t>(v)],
                         static_cast<double>(sigma[static_cast<std::size_t>(v)]) *
                             contrib_base);
            }
          }
        }
      }
    }
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      if (v != s) bc[static_cast<std::size_t>(v)] += delta[static_cast<std::size_t>(v)];
    }
  }

  if (sources.size() == static_cast<std::size_t>(n)) {
    for (double& x : bc) x /= 2.0;
  }
  return bc;
}

// --- Boman coloring (Algorithm 6) --------------------------------------------

inline ColoringResult boman_color(const Csr& g, Direction dir,
                                  const ColoringOptions& opt = {}) {
  const vid_t n = g.n();
  const int nparts = detail::resolve_partitions(opt);
  const int max_colors = detail::resolve_max_colors(g, opt);
  const Partition1D part(n, nparts);

  ColoringResult r;
  r.color.assign(static_cast<std::size_t>(n), -1);
  detail::AvailMask avail(n, max_colors);
  std::vector<std::uint8_t> need(static_cast<std::size_t>(n), 1);
  const std::vector<vid_t> border = border_vertices(g, part);
  NullInstr ni;

  for (int l = 0; l < opt.max_iterations; ++l) {
    std::int64_t conflicts = 0;
#pragma omp parallel num_threads(nparts)
    {
      const int t = omp_get_thread_num();
      std::vector<std::uint64_t> scratch(avail.words_per_vertex());
      for (vid_t v = part.begin(t); v < part.end(t); ++v) {
        if (!need[static_cast<std::size_t>(v)]) continue;
        const int c = detail::pick_color(g, avail, r.color, v, scratch, ni);
        atomic_store(r.color[static_cast<std::size_t>(v)], c);
        need[static_cast<std::size_t>(v)] = 0;
      }
    }

#pragma omp parallel for schedule(dynamic, 64) reduction(+ : conflicts)
    for (std::size_t i = 0; i < border.size(); ++i) {
      const vid_t v = border[i];
      const int cv = r.color[static_cast<std::size_t>(v)];
      for (vid_t u : g.neighbors(v)) {
        if (part.owner(u) == part.owner(v)) continue;
        if (atomic_load(r.color[static_cast<std::size_t>(u)]) != cv) continue;
        if (dir == Direction::Push) {
          if (v < u) {
            avail.clear_bit_atomic(u, cv);
            atomic_store(need[static_cast<std::size_t>(u)], std::uint8_t{1});
            ++conflicts;
          }
        } else {
          if (v > u) {
            avail.clear_bit(v, cv);
            need[static_cast<std::size_t>(v)] = 1;
            ++conflicts;
          }
        }
      }
    }

    r.iter_conflicts.push_back(conflicts);
    ++r.iterations;
    if (opt.stop_on_converged && conflicts == 0) break;
  }

  int max_c = -1;
  for (int c : r.color) max_c = std::max(max_c, c);
  r.colors_used = max_c + 1;
  return r;
}

// --- Directed PageRank (§4.8) ------------------------------------------------
//
// The pre-view directed kernels from core/directed.hpp (PR 5 rebased them onto
// engine::edge_map over DigraphView); frozen with instrumentation stripped.

inline std::vector<double> pagerank_digraph(const Digraph& g, int iterations,
                                            double damping, Direction dir) {
  const vid_t n = g.out.n();
  PP_CHECK(n > 0);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int l = 0; l < iterations; ++l) {
    const double dangling = pushpull::detail::pr_dangling_mass(g.out, pr);
    const double base = (1.0 - damping) / n + damping * dangling / n;

    if (dir == Direction::Push) {
#pragma omp parallel
      {
#pragma omp for schedule(static)
        for (vid_t u = 0; u < n; ++u) {
          const vid_t deg = g.out.degree(u);
          if (deg == 0) continue;
          const double share = damping * pr[static_cast<std::size_t>(u)] / deg;
          for (vid_t v : g.out.neighbors(u)) {
            atomic_add(next[static_cast<std::size_t>(v)], share);
          }
        }
#pragma omp for schedule(static)
        for (vid_t v = 0; v < n; ++v) {
          next[static_cast<std::size_t>(v)] += base;
        }
      }
    } else {
#pragma omp parallel for schedule(static)
      for (vid_t v = 0; v < n; ++v) {
        double sum = 0.0;
        for (vid_t u : g.in.neighbors(v)) {
          sum += pr[static_cast<std::size_t>(u)] / g.out.degree(u);
        }
        next[static_cast<std::size_t>(v)] = base + damping * sum;
      }
    }
    pr.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
  }
  return pr;
}

// --- Directed BFS (§4.8) -----------------------------------------------------

inline std::vector<vid_t> bfs_digraph(const Digraph& g, vid_t root,
                                      Direction dir) {
  const vid_t n = g.out.n();
  PP_CHECK(root >= 0 && root < n);
  std::vector<vid_t> dist(static_cast<std::size_t>(n), -1);
  dist[static_cast<std::size_t>(root)] = 0;

  if (dir == Direction::Push) {
    FrontierBuffers buffers(omp_get_max_threads());
    std::vector<vid_t> frontier{root};
    vid_t level = 0;
    while (!frontier.empty()) {
      ++level;
#pragma omp parallel for schedule(dynamic, 64)
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        for (vid_t u : g.out.neighbors(frontier[i])) {
          if (atomic_load(dist[static_cast<std::size_t>(u)]) >= 0) continue;
          vid_t expected = -1;
          if (cas(dist[static_cast<std::size_t>(u)], expected, level)) {
            buffers.push_local(u);
          }
        }
      }
      buffers.merge_into(frontier);
    }
  } else {
    vid_t level = 0;
    bool advanced = true;
    while (advanced) {
      ++level;
      bool any = false;
#pragma omp parallel for schedule(dynamic, 256) reduction(|| : any)
      for (vid_t v = 0; v < n; ++v) {
        if (dist[static_cast<std::size_t>(v)] >= 0) continue;
        for (vid_t u : g.in.neighbors(v)) {
          if (dist[static_cast<std::size_t>(u)] == level - 1) {
            dist[static_cast<std::size_t>(v)] = level;
            any = true;
            break;
          }
        }
      }
      advanced = any;
    }
  }
  return dist;
}

// --- Generalized BFS (Algorithm 3) -------------------------------------------
//
// The two-phase push round (accumulate into every still-ready neighbor, then
// decrement) and the pull round with the counter-exhaustion break, as they
// stood before the edge_map rebase. With exact ready counts every required
// predecessor contributes exactly once, so both the two-phase original and
// the engine's fused per-edge round produce identical folds.

template <class T, class Op>
std::vector<T> generalized_bfs(const Csr& g, std::vector<int> ready,
                               std::vector<T> values,
                               std::vector<vid_t> frontier, Op op,
                               Direction dir) {
  const vid_t n = g.n();
  PP_CHECK(ready.size() == static_cast<std::size_t>(n));
  PP_CHECK(values.size() == static_cast<std::size_t>(n));
  FrontierBuffers buffers(omp_get_max_threads());
  DenseFrontier in_frontier(n);
  SpinlockPool locks(4096);

  while (!frontier.empty()) {
    if (dir == Direction::Push) {
#pragma omp parallel for schedule(dynamic, 64)
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        const vid_t v = frontier[i];
        for (vid_t w : g.neighbors(v)) {
          if (atomic_load(ready[static_cast<std::size_t>(w)]) > 0) {
            SpinGuard guard(locks.for_index(static_cast<std::size_t>(w)));
            op(values[static_cast<std::size_t>(w)], values[static_cast<std::size_t>(v)]);
          }
        }
        for (vid_t w : g.neighbors(v)) {
          if (faa(ready[static_cast<std::size_t>(w)], -1) == 1) {
            buffers.push_local(w);
          }
        }
      }
    } else {
      in_frontier.build_from(frontier);
#pragma omp parallel for schedule(dynamic, 256)
      for (vid_t v = 0; v < n; ++v) {
        if (ready[static_cast<std::size_t>(v)] <= 0) continue;
        for (vid_t w : g.neighbors(v)) {
          if (!in_frontier.test(w)) continue;
          op(values[static_cast<std::size_t>(v)], values[static_cast<std::size_t>(w)]);
          if (--ready[static_cast<std::size_t>(v)] == 0) {
            buffers.push_local(v);
            break;
          }
        }
      }
    }
    buffers.merge_into(frontier);
  }
  return values;
}

// --- Borůvka MST (§4.7, Algorithm 7) -----------------------------------------
//
// The pre-engine implementation: hand-rolled FM push (atomic minimum into the
// neighbor components' slots) / FM pull (per-supervertex private minimum),
// OpenMP hook + pointer-jumping rounds, sequential merge. Packing and
// tie-break identical to the production kernel, so tree weights and edge
// lists must match bit for bit.

struct BoruvkaRef {
  std::vector<std::pair<vid_t, vid_t>> tree_edges;
  double total_weight = 0.0;
  int iterations = 0;
};

namespace detail {

constexpr std::uint64_t kNoEdge = std::numeric_limits<std::uint64_t>::max();

inline std::uint64_t boruvka_pack(weight_t w, eid_t canonical_arc) {
  const std::uint32_t wbits = std::bit_cast<std::uint32_t>(w);
  return (static_cast<std::uint64_t>(wbits) << 32) |
         static_cast<std::uint32_t>(canonical_arc);
}

}  // namespace detail

inline BoruvkaRef mst_boruvka(const Csr& g, Direction dir) {
  PP_CHECK(g.has_weights() || g.num_arcs() == 0);
  const vid_t n = g.n();
  BoruvkaRef result;
  if (n == 0) return result;

  std::vector<vid_t> arc_src(static_cast<std::size_t>(g.num_arcs()));
  std::vector<eid_t> canonical(static_cast<std::size_t>(g.num_arcs()));
  for (vid_t v = 0; v < n; ++v) {
    for (eid_t e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      arc_src[static_cast<std::size_t>(e)] = v;
    }
  }
#pragma omp parallel for schedule(dynamic, 256)
  for (vid_t v = 0; v < n; ++v) {
    for (eid_t e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      const vid_t w = g.edge_target(e);
      const auto nb = g.neighbors(w);
      const auto it = std::lower_bound(nb.begin(), nb.end(), v);
      const eid_t rev = g.edge_begin(w) + (it - nb.begin());
      canonical[static_cast<std::size_t>(e)] = std::min(e, rev);
    }
  }

  std::vector<vid_t> comp(static_cast<std::size_t>(n));
  std::vector<std::vector<vid_t>> members(static_cast<std::size_t>(n));
  std::vector<vid_t> active;
  for (vid_t v = 0; v < n; ++v) {
    comp[static_cast<std::size_t>(v)] = v;
    members[static_cast<std::size_t>(v)] = {v};
    active.push_back(v);
  }
  std::vector<std::uint64_t> min_edge(static_cast<std::size_t>(n), detail::kNoEdge);
  std::vector<vid_t> parent(static_cast<std::size_t>(n));

  while (true) {
    for (vid_t f : active) min_edge[static_cast<std::size_t>(f)] = detail::kNoEdge;
    if (dir == Direction::Pull) {
#pragma omp parallel for schedule(dynamic, 8)
      for (std::size_t i = 0; i < active.size(); ++i) {
        const vid_t f = active[i];
        std::uint64_t best = detail::kNoEdge;
        for (vid_t v : members[static_cast<std::size_t>(f)]) {
          for (eid_t e = g.edge_begin(v); e < g.edge_end(v); ++e) {
            if (comp[static_cast<std::size_t>(g.edge_target(e))] == f) continue;
            best = std::min(best, detail::boruvka_pack(
                                      g.edge_weight(e),
                                      canonical[static_cast<std::size_t>(e)]));
          }
        }
        min_edge[static_cast<std::size_t>(f)] = best;
      }
    } else {
#pragma omp parallel for schedule(dynamic, 8)
      for (std::size_t i = 0; i < active.size(); ++i) {
        const vid_t f = active[i];
        for (vid_t v : members[static_cast<std::size_t>(f)]) {
          for (eid_t e = g.edge_begin(v); e < g.edge_end(v); ++e) {
            const vid_t fw = comp[static_cast<std::size_t>(g.edge_target(e))];
            if (fw == f) continue;
            atomic_min(min_edge[static_cast<std::size_t>(fw)],
                       detail::boruvka_pack(g.edge_weight(e),
                                            canonical[static_cast<std::size_t>(e)]));
          }
        }
      }
    }

    bool any_merge = false;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < active.size(); ++i) {
      const vid_t f = active[i];
      const std::uint64_t cand = min_edge[static_cast<std::size_t>(f)];
      if (cand == detail::kNoEdge) {
        parent[static_cast<std::size_t>(f)] = f;
        continue;
      }
      const eid_t arc = static_cast<eid_t>(cand & 0xffffffffULL);
      const vid_t ca = comp[static_cast<std::size_t>(arc_src[static_cast<std::size_t>(arc)])];
      const vid_t cb = comp[static_cast<std::size_t>(g.edge_target(arc))];
      parent[static_cast<std::size_t>(f)] = ca == f ? cb : ca;
    }
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < active.size(); ++i) {
      const vid_t f = active[i];
      const vid_t p = parent[static_cast<std::size_t>(f)];
      if (p != f && parent[static_cast<std::size_t>(p)] == f && f < p) {
        parent[static_cast<std::size_t>(f)] = f;
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
#pragma omp parallel for schedule(static) reduction(|| : changed)
      for (std::size_t i = 0; i < active.size(); ++i) {
        const vid_t f = active[i];
        const vid_t p = parent[static_cast<std::size_t>(f)];
        const vid_t gp = parent[static_cast<std::size_t>(p)];
        if (p != gp) {
          parent[static_cast<std::size_t>(f)] = gp;
          changed = true;
        }
      }
    }

    std::vector<vid_t> next_active;
    for (vid_t f : active) {
      const vid_t root = parent[static_cast<std::size_t>(f)];
      if (root == f) {
        if (min_edge[static_cast<std::size_t>(f)] != detail::kNoEdge) {
          next_active.push_back(f);
        }
        continue;
      }
      any_merge = true;
      const eid_t arc =
          static_cast<eid_t>(min_edge[static_cast<std::size_t>(f)] & 0xffffffffULL);
      result.tree_edges.emplace_back(arc_src[static_cast<std::size_t>(arc)],
                                     g.edge_target(arc));
      result.total_weight += g.edge_weight(arc);
      auto& src = members[static_cast<std::size_t>(f)];
      auto& dst = members[static_cast<std::size_t>(root)];
      dst.insert(dst.end(), src.begin(), src.end());
      src.clear();
    }
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      comp[static_cast<std::size_t>(v)] =
          parent[static_cast<std::size_t>(comp[static_cast<std::size_t>(v)])];
    }
    active.swap(next_active);
    ++result.iterations;
    if (!any_merge) break;
  }
  return result;
}

// --- Triangle counting (§4.2, Algorithm 2) -----------------------------------

inline std::vector<std::int64_t> triangle_count_pull(const Csr& g) {
  std::vector<std::int64_t> tc(static_cast<std::size_t>(g.n()), 0);
#pragma omp parallel for schedule(dynamic, 64)
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    std::int64_t local = 0;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        if (g.has_edge(nb[i], nb[j])) ++local;
      }
    }
    tc[static_cast<std::size_t>(v)] = local;
  }
  return tc;
}

inline std::vector<std::int64_t> triangle_count_push(const Csr& g) {
  std::vector<std::int64_t> tc(static_cast<std::size_t>(g.n()), 0);
#pragma omp parallel for schedule(dynamic, 64)
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        if (g.has_edge(nb[i], nb[j])) {
          faa(tc[static_cast<std::size_t>(nb[i])], std::int64_t{1});
          faa(tc[static_cast<std::size_t>(nb[j])], std::int64_t{1});
        }
      }
    }
  }
#pragma omp parallel for schedule(static)
  for (vid_t v = 0; v < g.n(); ++v) {
    tc[static_cast<std::size_t>(v)] /= 2;
  }
  return tc;
}

}  // namespace pushpull::legacy
