#include "la/algorithms.hpp"

#include <algorithm>

#include "core/pagerank.hpp"
#include "la/semiring.hpp"
#include "la/spmv.hpp"
#include "util/check.hpp"

namespace pushpull::la {

std::vector<double> pagerank_la(const Csr& g, int iterations, double damping,
                                Direction dir) {
  const vid_t n = g.n();
  PP_CHECK(n > 0);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> scaled(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int l = 0; l < iterations; ++l) {
    const double dangling = pushpull::detail::pr_dangling_mass(g, x);
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      const vid_t d = g.degree(v);
      scaled[static_cast<std::size_t>(v)] =
          d > 0 ? x[static_cast<std::size_t>(v)] / d : 0.0;
    }
    const double base = (1.0 - damping) / n + damping * dangling / n;
    if (dir == Direction::Pull) {
      spmv_pull<PlusTimes<double>>(g, scaled, y);
    } else {
      std::fill(y.begin(), y.end(), 0.0);
      spmv_push<PlusTimes<double>>(g, scaled, y);
    }
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      x[static_cast<std::size_t>(v)] = base + damping * y[static_cast<std::size_t>(v)];
    }
  }
  return x;
}

std::vector<vid_t> bfs_la(const Csr& g, vid_t root, Direction dir) {
  const vid_t n = g.n();
  PP_CHECK(root >= 0 && root < n);
  std::vector<vid_t> dist(static_cast<std::size_t>(n), -1);
  dist[static_cast<std::size_t>(root)] = 0;

  if (dir == Direction::Push) {
    // SpMSpV over the sparse frontier (CSC/push exploits frontier sparsity).
    SparseVec<bool> frontier;
    frontier.idx = {root};
    frontier.val = {true};
    std::vector<std::uint8_t> hit_storage(static_cast<std::size_t>(n), 0);
    std::vector<vid_t> touched;
    vid_t level = 0;
    while (frontier.nnz() > 0) {
      ++level;
      // bool vectors are bit-packed; use the byte array as the output.
      std::fill(hit_storage.begin(), hit_storage.end(), std::uint8_t{0});
      touched.clear();
#pragma omp parallel
      {
        std::vector<vid_t> local;
#pragma omp for schedule(dynamic, 64) nowait
        for (std::size_t k = 0; k < frontier.nnz(); ++k) {
          const vid_t j = frontier.idx[k];
          for (vid_t i : g.neighbors(j)) {
            hit_storage[static_cast<std::size_t>(i)] = 1;  // (∨) accumulate
            local.push_back(i);
          }
        }
#pragma omp critical(pushpull_la_bfs_touched)
        touched.insert(touched.end(), local.begin(), local.end());
      }
      frontier.idx.clear();
      frontier.val.clear();
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      for (vid_t i : touched) {
        if (hit_storage[static_cast<std::size_t>(i)] &&
            dist[static_cast<std::size_t>(i)] == -1) {
          dist[static_cast<std::size_t>(i)] = level;
          frontier.idx.push_back(i);
          frontier.val.push_back(true);
        }
      }
    }
  } else {
    // Dense (∨,∧) SpMV per level: pull cannot exploit frontier sparsity.
    std::vector<std::uint8_t> in_frontier(static_cast<std::size_t>(n), 0);
    in_frontier[static_cast<std::size_t>(root)] = 1;
    vid_t level = 0;
    bool any = true;
    while (any) {
      ++level;
      any = false;
#pragma omp parallel for schedule(dynamic, 256) reduction(|| : any)
      for (vid_t i = 0; i < n; ++i) {
        if (dist[static_cast<std::size_t>(i)] != -1) continue;
        bool reach = false;  // row reduction over in-neighbors
        for (vid_t j : g.neighbors(i)) {
          if (in_frontier[static_cast<std::size_t>(j)]) {
            reach = true;
            break;
          }
        }
        if (reach) {
          dist[static_cast<std::size_t>(i)] = level;
          any = true;
        }
      }
      if (!any) break;
#pragma omp parallel for schedule(static)
      for (vid_t i = 0; i < n; ++i) {
        in_frontier[static_cast<std::size_t>(i)] =
            dist[static_cast<std::size_t>(i)] == level ? 1 : 0;
      }
    }
  }
  return dist;
}

std::vector<weight_t> sssp_la(const Csr& g, vid_t root, Direction dir) {
  const vid_t n = g.n();
  PP_CHECK(g.has_weights());
  PP_CHECK(root >= 0 && root < n);
  using S = MinPlus<weight_t>;
  std::vector<weight_t> x(static_cast<std::size_t>(n), S::zero());
  std::vector<weight_t> y(static_cast<std::size_t>(n));
  x[static_cast<std::size_t>(root)] = 0;
  for (vid_t round = 0; round < n; ++round) {
    if (dir == Direction::Pull) {
      spmv_pull<S>(g, x, y, /*use_weights=*/true);
    } else {
      std::fill(y.begin(), y.end(), S::zero());
      spmv_push<S>(g, x, y, /*use_weights=*/true);
    }
    bool changed = false;
#pragma omp parallel for schedule(static) reduction(|| : changed)
    for (vid_t v = 0; v < n; ++v) {
      const weight_t relaxed =
          S::add(x[static_cast<std::size_t>(v)], y[static_cast<std::size_t>(v)]);
      if (relaxed < x[static_cast<std::size_t>(v)]) {
        x[static_cast<std::size_t>(v)] = relaxed;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return x;
}

}  // namespace pushpull::la
