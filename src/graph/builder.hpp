// Edge-list → CSR builder.
#pragma once

#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace pushpull {

struct BuildOptions {
  // Insert the reverse of every edge so the CSR is symmetric (undirected
  // semantics, the paper's default §2.2).
  bool symmetrize = true;
  // Drop (v, v) edges.
  bool remove_self_loops = true;
  // Collapse parallel edges, keeping the minimum weight (relevant for MST).
  bool dedup = true;
  // Carry edge weights into the CSR.
  bool keep_weights = false;
};

// Builds a CSR with sorted adjacency lists from a loose edge list.
// `n` must be strictly greater than every endpoint id.
Csr build_csr(vid_t n, EdgeList edges, const BuildOptions& opts = {});

// Convenience for directed graphs: builds out-CSR from the edges as given
// (no symmetrization) and derives the in-CSR by transposition. The result is
// validated with validate_digraph before it is returned.
Digraph build_digraph(vid_t n, EdgeList edges, bool keep_weights = false);

// Full-control overload: `opts.symmetrize` is forced off (a symmetrized
// digraph is an undirected graph); self-loop/dedup/weight handling are the
// caller's. `name` labels the graph in corruption diagnostics.
Digraph build_digraph(vid_t n, EdgeList edges, BuildOptions opts,
                      const std::string& name = "digraph");

// Cross-validates a Digraph's two CSRs: same vertex count, same arc count,
// matching weight presence, every out-arc (u, v) present as in-arc (v, u) —
// i.e. `in` is exactly the transpose of `out`. Aborts with a diagnostic
// naming the graph (like the CSR-binary v2 errors) on any mismatch.
void validate_digraph(const Digraph& g, const std::string& name);

// Assigns uniformly random weights in [lo, hi) to an edge list (seeded).
EdgeList with_uniform_weights(EdgeList edges, weight_t lo, weight_t hi,
                              std::uint64_t seed);

}  // namespace pushpull
