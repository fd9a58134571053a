// Graph views: the direction seam of the engine (§4.8, DESIGN.md §2).
//
// Every edge_map loop shape walks exactly one CSR: sparse/dense push iterate
// the *out*-edges of the active sources, dense/sparse pull iterate the
// *in*-edges of the updated destinations. On an undirected graph the two CSRs
// coincide; on a digraph they are different arrays (Digraph{out, in}), and the
// paper's cost bounds trade d̂_out against d̂_in. A GraphView tells the engine
// which CSR each loop shape must walk, so one edge_map substrate serves both:
//
//   SymmetricView — wraps a symmetric Csr; out() and in() alias the same CSR
//                   (the engine's pre-view behavior, bit for bit).
//   DigraphView   — wraps Digraph{out, in}; push walks g.out, pull walks g.in.
//                   Pull modes stay zero-atomic on digraphs too — the view
//                   changes *which* arcs are scanned, never the sync policy.
//   SnapshotView  — (graph/delta_graph.hpp) a point-in-time view of a mutable
//                   DeltaGraph; out()/in() return SnapshotCsr, a CsrLike that
//                   patches a sealed base CSR with a versioned overlay.
//
// The accessors therefore return *CsrLike* adjacency (graph/csr.hpp), not Csr
// concretely; every loop shape in edge_map.hpp has one entry point that takes
// a view or a bare CsrLike graph, so all three views run the same engine code.
//
// reversed() swaps the two CSRs, turning forward traversal functors into
// backward ones (SCC's backward reachability pass pushes along in-edges).
#pragma once

#include <concepts>

#include "graph/csr.hpp"
#include "util/check.hpp"

namespace pushpull::engine {

// What the engine requires of a graph view: the two CsrLike accessors plus
// the degree/arc counters the switching heuristics consume.
template <class V>
concept GraphView = requires(const V& v, vid_t x) {
  { v.out() } -> CsrLike;
  { v.in() } -> CsrLike;
  { v.n() } -> std::convertible_to<vid_t>;
  { v.num_arcs() } -> std::convertible_to<eid_t>;
  { v.out_degree(x) } -> std::convertible_to<vid_t>;
  { v.in_degree(x) } -> std::convertible_to<vid_t>;
  { v.is_symmetric() } -> std::convertible_to<bool>;
};

// What every edge_map loop shape accepts: a graph view, or a bare CSR that
// serves as both directions (a symmetric graph, or one side of a digraph).
template <class G>
concept EdgeMapGraph = GraphView<G> || CsrLike<G>;

// Adapter for today's symmetric Csr: both directions alias the same CSR.
class SymmetricView {
 public:
  explicit SymmetricView(const Csr& g) noexcept : g_(&g) {}

  const Csr& out() const noexcept { return *g_; }
  const Csr& in() const noexcept { return *g_; }
  vid_t n() const noexcept { return g_->n(); }
  eid_t num_arcs() const noexcept { return g_->num_arcs(); }
  vid_t out_degree(vid_t v) const noexcept { return g_->degree(v); }
  vid_t in_degree(vid_t v) const noexcept { return g_->degree(v); }
  static constexpr bool is_symmetric() noexcept { return true; }

  SymmetricView reversed() const noexcept { return *this; }

 private:
  const Csr* g_;
};

// View over Digraph{out, in}: push walks out-arcs, pull walks in-arcs.
class DigraphView {
 public:
  explicit DigraphView(const Digraph& g) noexcept
      : DigraphView(g.out, g.in) {}

  // The two CSRs may come from anywhere (e.g. a degree-ordered orientation);
  // they must describe the same arc set.
  DigraphView(const Csr& out_csr, const Csr& in_csr) noexcept
      : out_(&out_csr), in_(&in_csr) {
    PP_DCHECK(out_->n() == in_->n());
    PP_DCHECK(out_->num_arcs() == in_->num_arcs());
  }

  const Csr& out() const noexcept { return *out_; }
  const Csr& in() const noexcept { return *in_; }
  vid_t n() const noexcept { return out_->n(); }
  eid_t num_arcs() const noexcept { return out_->num_arcs(); }
  vid_t out_degree(vid_t v) const noexcept { return out_->degree(v); }
  vid_t in_degree(vid_t v) const noexcept { return in_->degree(v); }
  static constexpr bool is_symmetric() noexcept { return false; }

  // Arc-reversed view: pushing on reversed() walks the in-CSR — backward
  // traversals reuse forward functors unchanged.
  DigraphView reversed() const noexcept { return DigraphView(*in_, *out_); }

 private:
  const Csr* out_;
  const Csr* in_;
};

static_assert(GraphView<SymmetricView>);
static_assert(GraphView<DigraphView>);

inline SymmetricView view_of(const Csr& g) noexcept { return SymmetricView(g); }
inline DigraphView view_of(const Digraph& g) noexcept { return DigraphView(g); }

}  // namespace pushpull::engine
