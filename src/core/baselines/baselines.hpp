// Sequential reference algorithms used to verify the parallel push/pull
// kernels. These favour obvious correctness over speed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace pushpull::baseline {

inline constexpr weight_t kInfWeight = std::numeric_limits<weight_t>::infinity();

// Sequential BFS: hop distances (kInvalidVertex ⇒ unreachable encoded as -1
// in the distance vector) and a valid parent array.
struct BfsRef {
  std::vector<vid_t> dist;    // -1 = unreachable
  std::vector<vid_t> parent;  // -1 = none/root
};
BfsRef bfs(const Csr& g, vid_t root);

// Dijkstra with a binary heap (weights required, non-negative).
std::vector<weight_t> dijkstra(const Csr& g, vid_t src);

// Bellman–Ford (handles the same non-negative inputs; O(nm)).
std::vector<weight_t> bellman_ford(const Csr& g, vid_t src);

// Kruskal: returns the total weight of the minimum spanning forest.
double kruskal_msf_weight(const Csr& g);

// Kruskal's forest as (u, v) pairs with u < v, in acceptance order. Edges
// sort by (weight, arc id of u→v), which is Borůvka's canonical-arc
// tie-break, so the forest is unique even under tied weights.
std::vector<std::pair<vid_t, vid_t>> kruskal_msf_edges(const Csr& g);

// Prim from each unvisited root: total minimum-spanning-forest weight.
double prim_msf_weight(const Csr& g);

// Greedy first-fit coloring in vertex order; returns colors.
std::vector<int> greedy_coloring(const Csr& g);

// True iff no edge joins two equal colors and every vertex is colored.
bool is_proper_coloring(const Csr& g, const std::vector<int>& color);

// Exact per-vertex triangle counts by brute force over vertex triples
// (use only on small graphs: O(n·d̂²) with sorted adjacency).
std::vector<std::int64_t> brute_force_triangles(const Csr& g);

// Exact betweenness centrality via sequential Brandes. For undirected graphs
// each unordered pair is counted once (result halved as usual).
std::vector<double> brandes_bc(const Csr& g);

// Brandes' dependency sums from the given sources only, not halved.
std::vector<double> brandes_bc(const Csr& g, std::span<const vid_t> sources);

// k-core decomposition by repeated peeling: for each threshold k, remove
// every vertex whose residual degree is below k until none is left, then
// raise k. core[v] is the largest k whose core still holds v.
std::vector<vid_t> kcore(const Csr& g);

}  // namespace pushpull::baseline
