#include "core/baselines/baselines.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "core/baselines/union_find.hpp"
#include "util/check.hpp"

namespace pushpull::baseline {

BfsRef bfs(const Csr& g, vid_t root) {
  BfsRef r;
  r.dist.assign(static_cast<std::size_t>(g.n()), -1);
  r.parent.assign(static_cast<std::size_t>(g.n()), -1);
  PP_CHECK(root >= 0 && root < g.n());
  std::queue<vid_t> q;
  r.dist[static_cast<std::size_t>(root)] = 0;
  q.push(root);
  while (!q.empty()) {
    const vid_t v = q.front();
    q.pop();
    for (vid_t u : g.neighbors(v)) {
      if (r.dist[static_cast<std::size_t>(u)] < 0) {
        r.dist[static_cast<std::size_t>(u)] = r.dist[static_cast<std::size_t>(v)] + 1;
        r.parent[static_cast<std::size_t>(u)] = v;
        q.push(u);
      }
    }
  }
  return r;
}

std::vector<weight_t> dijkstra(const Csr& g, vid_t src) {
  PP_CHECK(g.has_weights());
  PP_CHECK(src >= 0 && src < g.n());
  std::vector<weight_t> dist(static_cast<std::size_t>(g.n()), kInfWeight);
  using Entry = std::pair<weight_t, vid_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  pq.emplace(0.0f, src);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    const auto nb = g.neighbors(v);
    const auto w = g.weights(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const weight_t nd = d + w[i];
      if (nd < dist[static_cast<std::size_t>(nb[i])]) {
        dist[static_cast<std::size_t>(nb[i])] = nd;
        pq.emplace(nd, nb[i]);
      }
    }
  }
  return dist;
}

std::vector<weight_t> bellman_ford(const Csr& g, vid_t src) {
  PP_CHECK(g.has_weights());
  std::vector<weight_t> dist(static_cast<std::size_t>(g.n()), kInfWeight);
  dist[static_cast<std::size_t>(src)] = 0;
  for (vid_t round = 0; round + 1 < g.n(); ++round) {
    bool changed = false;
    for (vid_t v = 0; v < g.n(); ++v) {
      if (dist[static_cast<std::size_t>(v)] == kInfWeight) continue;
      const auto nb = g.neighbors(v);
      const auto w = g.weights(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const weight_t nd = dist[static_cast<std::size_t>(v)] + w[i];
        if (nd < dist[static_cast<std::size_t>(nb[i])]) {
          dist[static_cast<std::size_t>(nb[i])] = nd;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return dist;
}

namespace {

struct WeightedEdge {
  weight_t w;
  vid_t u, v;
};

// Kruskal's accepted edges in acceptance order. Edges are collected in arc
// id order, so the stable sort by weight orders ties by arc id.
std::vector<WeightedEdge> kruskal_forest(const Csr& g) {
  PP_CHECK(g.has_weights());
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_arcs() / 2));
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    const auto w = g.weights(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (v < nb[i]) edges.push_back(WeightedEdge{w[i], v, nb[i]});
    }
  }
  std::stable_sort(
      edges.begin(), edges.end(),
      [](const WeightedEdge& a, const WeightedEdge& b) { return a.w < b.w; });
  UnionFind uf(g.n());
  std::vector<WeightedEdge> forest;
  for (const WeightedEdge& e : edges) {
    if (uf.unite(e.u, e.v)) forest.push_back(e);
  }
  return forest;
}

}  // namespace

double kruskal_msf_weight(const Csr& g) {
  double total = 0.0;
  for (const WeightedEdge& e : kruskal_forest(g)) total += e.w;
  return total;
}

std::vector<std::pair<vid_t, vid_t>> kruskal_msf_edges(const Csr& g) {
  std::vector<std::pair<vid_t, vid_t>> out;
  for (const WeightedEdge& e : kruskal_forest(g)) out.emplace_back(e.u, e.v);
  return out;
}

double prim_msf_weight(const Csr& g) {
  PP_CHECK(g.has_weights());
  const vid_t n = g.n();
  std::vector<bool> in_tree(static_cast<std::size_t>(n), false);
  double total = 0.0;
  using Entry = std::pair<weight_t, vid_t>;
  for (vid_t root = 0; root < n; ++root) {
    if (in_tree[static_cast<std::size_t>(root)]) continue;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    in_tree[static_cast<std::size_t>(root)] = true;
    auto relax = [&](vid_t v) {
      const auto nb = g.neighbors(v);
      const auto w = g.weights(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        if (!in_tree[static_cast<std::size_t>(nb[i])]) pq.emplace(w[i], nb[i]);
      }
    };
    relax(root);
    while (!pq.empty()) {
      const auto [w, v] = pq.top();
      pq.pop();
      if (in_tree[static_cast<std::size_t>(v)]) continue;
      in_tree[static_cast<std::size_t>(v)] = true;
      total += w;
      relax(v);
    }
  }
  return total;
}

std::vector<int> greedy_coloring(const Csr& g) {
  std::vector<int> color(static_cast<std::size_t>(g.n()), -1);
  std::vector<int> mark(static_cast<std::size_t>(g.max_degree()) + 2, -1);
  for (vid_t v = 0; v < g.n(); ++v) {
    for (vid_t u : g.neighbors(v)) {
      const int cu = color[static_cast<std::size_t>(u)];
      if (cu >= 0 && cu < static_cast<int>(mark.size())) mark[static_cast<std::size_t>(cu)] = v;
    }
    int c = 0;
    while (mark[static_cast<std::size_t>(c)] == v) ++c;
    color[static_cast<std::size_t>(v)] = c;
  }
  return color;
}

bool is_proper_coloring(const Csr& g, const std::vector<int>& color) {
  if (color.size() != static_cast<std::size_t>(g.n())) return false;
  for (vid_t v = 0; v < g.n(); ++v) {
    if (color[static_cast<std::size_t>(v)] < 0) return false;
    for (vid_t u : g.neighbors(v)) {
      if (u != v && color[static_cast<std::size_t>(u)] == color[static_cast<std::size_t>(v)]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::int64_t> brute_force_triangles(const Csr& g) {
  std::vector<std::int64_t> tc(static_cast<std::size_t>(g.n()), 0);
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        if (g.has_edge(nb[i], nb[j])) ++tc[static_cast<std::size_t>(v)];
      }
    }
  }
  return tc;
}

std::vector<double> brandes_bc(const Csr& g, std::span<const vid_t> sources) {
  const vid_t n = g.n();
  std::vector<double> bc(static_cast<std::size_t>(n), 0.0);
  std::vector<vid_t> dist(static_cast<std::size_t>(n));
  std::vector<double> sigma(static_cast<std::size_t>(n));
  std::vector<double> delta(static_cast<std::size_t>(n));
  std::vector<vid_t> order;  // vertices in non-decreasing BFS distance
  order.reserve(static_cast<std::size_t>(n));
  for (const vid_t s : sources) {
    std::fill(dist.begin(), dist.end(), vid_t{-1});
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.clear();
    dist[static_cast<std::size_t>(s)] = 0;
    sigma[static_cast<std::size_t>(s)] = 1.0;
    std::queue<vid_t> q;
    q.push(s);
    while (!q.empty()) {
      const vid_t v = q.front();
      q.pop();
      order.push_back(v);
      for (vid_t u : g.neighbors(v)) {
        if (dist[static_cast<std::size_t>(u)] < 0) {
          dist[static_cast<std::size_t>(u)] = dist[static_cast<std::size_t>(v)] + 1;
          q.push(u);
        }
        if (dist[static_cast<std::size_t>(u)] == dist[static_cast<std::size_t>(v)] + 1) {
          sigma[static_cast<std::size_t>(u)] += sigma[static_cast<std::size_t>(v)];
        }
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const vid_t w = *it;
      for (vid_t v : g.neighbors(w)) {
        if (dist[static_cast<std::size_t>(v)] + 1 == dist[static_cast<std::size_t>(w)]) {
          delta[static_cast<std::size_t>(v)] +=
              sigma[static_cast<std::size_t>(v)] / sigma[static_cast<std::size_t>(w)] *
              (1.0 + delta[static_cast<std::size_t>(w)]);
        }
      }
      if (w != s) bc[static_cast<std::size_t>(w)] += delta[static_cast<std::size_t>(w)];
    }
  }
  return bc;
}

std::vector<double> brandes_bc(const Csr& g) {
  std::vector<vid_t> all(static_cast<std::size_t>(g.n()));
  std::iota(all.begin(), all.end(), vid_t{0});
  std::vector<double> bc = brandes_bc(g, all);
  // Undirected: each pair (s,t) was counted twice.
  for (double& x : bc) x /= 2.0;
  return bc;
}

std::vector<vid_t> kcore(const Csr& g) {
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
        for (const vid_t u : g.neighbors(v)) --residual[static_cast<std::size_t>(u)];
      }
    }
  }
  return core;
}

}  // namespace pushpull::baseline
