#include "graph/builder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pushpull {

namespace {

// Sorts edges by (u, v, w) and validates endpoint ranges.
void prepare(vid_t n, EdgeList& edges, const BuildOptions& opts) {
  for (const Edge& e : edges) {
    PP_CHECK(e.u >= 0 && e.u < n);
    PP_CHECK(e.v >= 0 && e.v < n);
  }
  if (opts.remove_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.u == e.v; });
  }
  if (opts.symmetrize) {
    const std::size_t original = edges.size();
    edges.reserve(original * 2);
    for (std::size_t i = 0; i < original; ++i) {
      edges.push_back(Edge{edges[i].v, edges[i].u, edges[i].w});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.w < b.w;  // duplicates keep the minimum weight
  });
  if (opts.dedup) {
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge& a, const Edge& b) {
                              return a.u == b.u && a.v == b.v;
                            }),
                edges.end());
  }
}

}  // namespace

Csr build_csr(vid_t n, EdgeList edges, const BuildOptions& opts) {
  PP_CHECK(n >= 0);
  prepare(n, edges, opts);

  std::vector<eid_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++offsets[static_cast<std::size_t>(e.u) + 1];
  for (vid_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<vid_t> adj(edges.size());
  std::vector<weight_t> weights;
  if (opts.keep_weights) weights.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    adj[i] = edges[i].v;
    if (opts.keep_weights) weights[i] = edges[i].w;
  }
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

Digraph build_digraph(vid_t n, EdgeList edges, bool keep_weights) {
  BuildOptions opts;
  opts.keep_weights = keep_weights;
  return build_digraph(n, std::move(edges), opts);
}

Digraph build_digraph(vid_t n, EdgeList edges, BuildOptions opts,
                      const std::string& name) {
  opts.symmetrize = false;  // a symmetrized digraph is an undirected graph
  Digraph g = Digraph::from_out(build_csr(n, std::move(edges), opts));
  validate_digraph(g, name);
  return g;
}

namespace {

[[noreturn]] void digraph_fail(const std::string& name, const char* what) {
  std::fprintf(stderr, "validate_digraph(%s): %s\n", name.c_str(), what);
  PP_CHECK(false && "corrupt Digraph: in-CSR is not the transpose of out-CSR");
  std::abort();
}

}  // namespace

void validate_digraph(const Digraph& g, const std::string& name) {
  if (g.in.n() != g.out.n()) {
    digraph_fail(name, "vertex counts differ between out-CSR and in-CSR");
  }
  if (g.in.num_arcs() != g.out.num_arcs()) {
    digraph_fail(name, "arc counts differ between out-CSR and in-CSR");
  }
  if (g.in.has_weights() != g.out.has_weights()) {
    digraph_fail(name, "weight presence differs between out-CSR and in-CSR");
  }
  // Per-vertex in-degrees implied by the out-CSR must match the in-CSR...
  const vid_t n = g.out.n();
  std::vector<eid_t> in_deg(static_cast<std::size_t>(n), 0);
  for (eid_t e = 0; e < g.out.num_arcs(); ++e) {
    const vid_t v = g.out.edge_target(e);
    if (v < 0 || v >= n) {
      digraph_fail(name, "out-CSR adjacency holds a vertex id out of range");
    }
    ++in_deg[static_cast<std::size_t>(v)];
  }
  for (vid_t v = 0; v < n; ++v) {
    if (in_deg[static_cast<std::size_t>(v)] !=
        static_cast<eid_t>(g.in.degree(v))) {
      digraph_fail(name, "per-vertex in-degrees disagree with the out-CSR");
    }
  }
  // ...and the adjacency arrays must match the real transpose *as multisets
  // per row* — a membership probe would let duplicate arcs mask a spurious
  // in-arc, so compare against transpose(out) directly (O(m), and both
  // adjacency rows are sorted by construction).
  const Csr t = transpose(g.out);
  if (t.adj() != g.in.adj()) {
    digraph_fail(name, "in-CSR adjacency differs from transpose(out) "
                       "(not a transpose)");
  }
}

EdgeList with_uniform_weights(EdgeList edges, weight_t lo, weight_t hi,
                              std::uint64_t seed) {
  PP_CHECK(lo <= hi);
  Rng rng(seed);
  for (Edge& e : edges) e.w = rng.next_float(lo, hi);
  return edges;
}

}  // namespace pushpull
