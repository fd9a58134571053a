#include "core/pagerank.hpp"

namespace pushpull {

namespace {

// Power iteration over in-arcs, dividing by out-degrees.
std::vector<double> power_iteration(const Csr& out, const Csr& in,
                                    const PageRankOptions& opt) {
  const vid_t n = out.n();
  PP_CHECK(n > 0 && in.n() == n);
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  std::vector<double> next(static_cast<std::size_t>(n), 0.0);
  for (int l = 0; l < opt.iterations; ++l) {
    double dangling = 0.0;
    for (vid_t v = 0; v < n; ++v) {
      if (out.degree(v) == 0) dangling += pr[static_cast<std::size_t>(v)];
    }
    const double base = (1.0 - opt.damping) / n + opt.damping * dangling / n;
    for (vid_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (vid_t u : in.neighbors(v)) {
        sum += pr[static_cast<std::size_t>(u)] / out.degree(u);
      }
      next[static_cast<std::size_t>(v)] = base + opt.damping * sum;
    }
    pr.swap(next);
  }
  return pr;
}

}  // namespace

std::vector<double> pagerank_seq(const Csr& g, const PageRankOptions& opt) {
  return power_iteration(g, g, opt);
}

std::vector<double> pagerank_seq(const Digraph& g, const PageRankOptions& opt) {
  return power_iteration(g.out, g.in, opt);
}

}  // namespace pushpull
