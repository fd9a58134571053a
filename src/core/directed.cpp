#include "core/directed.hpp"

#include <numeric>
#include <utility>

namespace pushpull {

namespace {

// Reachability closure from `seed` restricted to subproblem `sid`: rounds of
// sparse_push with the subproblem-filtered claim functor. Forward passes run
// over the view as given; backward passes receive view.reversed().
void reach_in_subproblem(const engine::DigraphView& view, engine::Workspace& ws,
                         vid_t seed, std::uint8_t* visited, const vid_t* sub,
                         vid_t sid) {
  engine::EdgeMapOptions emo;
  emo.region = 76;
  engine::VertexSet frontier = engine::VertexSet::single(view.n(), seed);
  while (!frontier.empty()) {
    frontier = engine::sparse_push(
        view, ws, frontier, detail::ReachClaim{visited, sub, sid}, emo);
  }
}

}  // namespace

std::vector<vid_t> scc_digraph(const Digraph& g) {
  const vid_t n = g.out.n();
  std::vector<vid_t> scc(static_cast<std::size_t>(n), -1);
  if (n == 0) return scc;
  PP_CHECK(g.in.n() == n);

  const engine::DigraphView view(g);
  engine::Workspace ws(n);
  std::vector<vid_t> sub(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> fw(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> bw(static_cast<std::size_t>(n), 0);

  // Explicit worklist of (subproblem id, member vertices): FW-BW recursion
  // can be path-deep on trivial-SCC graphs, so no call-stack recursion.
  std::vector<std::pair<vid_t, std::vector<vid_t>>> work;
  {
    std::vector<vid_t> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), vid_t{0});
    work.emplace_back(0, std::move(all));
  }
  vid_t next_sub = 1;
  vid_t comps = 0;

  while (!work.empty()) {
    auto [sid, verts] = std::move(work.back());
    work.pop_back();
    const vid_t pivot = verts.front();
    for (vid_t v : verts) {
      fw[static_cast<std::size_t>(v)] = 0;
      bw[static_cast<std::size_t>(v)] = 0;
    }
    fw[static_cast<std::size_t>(pivot)] = 1;
    bw[static_cast<std::size_t>(pivot)] = 1;
    reach_in_subproblem(view, ws, pivot, fw.data(), sub.data(), sid);
    reach_in_subproblem(view.reversed(), ws, pivot, bw.data(), sub.data(), sid);

    // SCC(pivot) = FW ∩ BW; the three remainders are independent subproblems.
    const vid_t comp_id = comps++;
    std::vector<vid_t> fw_only, bw_only, rest;
    for (vid_t v : verts) {
      const bool f = fw[static_cast<std::size_t>(v)] != 0;
      const bool b = bw[static_cast<std::size_t>(v)] != 0;
      if (f && b) {
        scc[static_cast<std::size_t>(v)] = comp_id;
      } else if (f) {
        fw_only.push_back(v);
      } else if (b) {
        bw_only.push_back(v);
      } else {
        rest.push_back(v);
      }
    }
    for (std::vector<vid_t>* part : {&fw_only, &bw_only, &rest}) {
      if (part->empty()) continue;
      const vid_t sid2 = next_sub++;
      for (vid_t v : *part) sub[static_cast<std::size_t>(v)] = sid2;
      work.emplace_back(sid2, std::move(*part));
    }
  }
  return scc;
}

}  // namespace pushpull
