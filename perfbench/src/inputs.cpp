#include "inputs.hpp"

#include <random>
#include <unordered_map>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace perfbench {

using pushpull::Edge;
using pushpull::serve::Algo;

namespace {

// Independent, reproducible sub-seeds per stream (SplitMix64 finalizer).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// Vertices with at least one incident edge: traversal sources are drawn from
// these so no query degenerates to an isolated vertex.
std::vector<vid_t> non_isolated(vid_t n, const EdgeList& edges) {
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    seen[static_cast<std::size_t>(e.u)] = 1;
    seen[static_cast<std::size_t>(e.v)] = 1;
  }
  std::vector<vid_t> out;
  for (vid_t v = 0; v < n; ++v) {
    if (seen[static_cast<std::size_t>(v)]) out.push_back(v);
  }
  return out;
}

std::vector<Query> query_stream(std::mt19937_64& rng,
                                const std::vector<vid_t>& sources,
                                std::size_t count) {
  std::vector<Query> qs(count);
  for (Query& q : qs) {
    q.algo = rng() % 2 == 0 ? Algo::Bfs : Algo::Sssp;
    q.source = sources[rng() % sources.size()];
  }
  return qs;
}

std::uint64_t arc_key(vid_t u, vid_t v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

// The benchmark's own copy of a directed edge set: O(1) membership, O(1)
// uniform draw and removal (swap with the last live arc).
class ArcSet {
 public:
  bool contains(std::uint64_t k) const { return pos_.count(k) != 0; }
  void insert(std::uint64_t k) {
    pos_.emplace(k, live_.size());
    live_.push_back(k);
  }
  std::uint64_t erase_at(std::size_t i) {
    const std::uint64_t k = live_[i];
    live_[i] = live_.back();
    pos_[live_[i]] = i;
    live_.pop_back();
    pos_.erase(k);
    return k;
  }
  std::size_t size() const { return live_.size(); }

 private:
  std::vector<std::uint64_t> live_;
  std::unordered_map<std::uint64_t, std::size_t> pos_;
};

}  // namespace

ServeInputs make_serve_inputs(std::uint64_t seed, std::size_t writer_batches,
                              double open_rate, double open_s,
                              std::uint64_t open_offset_ns, int clients,
                              std::size_t per_client) {
  // The weighted pok* analog at scale −2, edge for edge as
  // pok_analog(-2, true) builds it (graph/analogs.cpp: builtin seed 202).
  constexpr int kScale = 12;
  ServeInputs in;
  in.n = vid_t{1} << kScale;
  in.edges = pushpull::with_uniform_weights(pushpull::rmat_edges(kScale, 9, 202), 1.0f,
                                            64.0f, 202 ^ 0xabcd);

  std::mt19937_64 wr(sub_seed(seed, 3));
  std::uniform_real_distribution<float> wdist(1.0f, 64.0f);
  const auto n = static_cast<std::uint64_t>(in.n);
  in.writer_batches.resize(writer_batches);
  for (EdgeList& b : in.writer_batches) {
    while (b.size() < 16) {
      const auto u = static_cast<vid_t>(wr() % n);
      const auto v = static_cast<vid_t>(wr() % n);
      if (u != v) b.push_back({u, v, wdist(wr)});
    }
  }

  const std::vector<vid_t> sources = non_isolated(in.n, in.edges);
  std::mt19937_64 qr(sub_seed(seed, 4));
  in.warmup = query_stream(qr, sources, 8);
  in.open = query_stream(qr, sources, static_cast<std::size_t>(open_s * open_rate));
  for (std::size_t i = 0; i < in.open.size(); ++i) {
    in.open[i].due_ns =
        open_offset_ns + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / open_rate);
  }
  for (int c = 0; c < clients; ++c) {
    in.closed.push_back(query_stream(qr, sources, per_client));
  }
  return in;
}

IngestInputs make_ingest_inputs(std::uint64_t seed, std::size_t batches) {
  constexpr int kScale = 13;
  constexpr int kInserts = 48;
  constexpr int kDeletes = 16;  // 3:1
  IngestInputs in;
  in.n = vid_t{1} << kScale;
  const auto n = static_cast<std::uint64_t>(in.n);

  ArcSet arcs;
  // One fixed directed R-MAT (update_workload's seed 606); the seed drives the
  // update stream.
  for (const Edge& e : pushpull::rmat_edges(kScale, 8, 606)) {
    const std::uint64_t k = arc_key(e.u, e.v);
    if (e.u == e.v || arcs.contains(k)) continue;
    arcs.insert(k);
    in.edges.push_back({e.u, e.v, 1.0f});
  }
  // Root: the largest out-degree vertex, so its BFS reaches most of the graph.
  std::vector<vid_t> deg(static_cast<std::size_t>(in.n), 0);
  for (const Edge& e : in.edges) ++deg[static_cast<std::size_t>(e.u)];
  in.root = static_cast<vid_t>(std::max_element(deg.begin(), deg.end()) - deg.begin());

  std::mt19937_64 rng(sub_seed(seed, 12));
  in.batches.resize(batches);
  for (std::vector<EdgeUpdate>& b : in.batches) {
    std::vector<std::uint64_t> deleted;
    for (int i = 0; i < kDeletes; ++i) {
      const std::uint64_t k = arcs.erase_at(rng() % arcs.size());
      deleted.push_back(k);
      b.push_back({static_cast<vid_t>(k >> 32),
                   static_cast<vid_t>(k & 0xffffffffULL), 1.0f, false});
    }
    for (int i = 0; i < kInserts;) {
      const auto u = static_cast<vid_t>(rng() % n);
      const auto v = static_cast<vid_t>(rng() % n);
      const std::uint64_t k = arc_key(u, v);
      if (u == v || arcs.contains(k) ||
          std::find(deleted.begin(), deleted.end(), k) != deleted.end()) {
        continue;
      }
      arcs.insert(k);
      b.push_back({u, v, 1.0f, true});
      ++i;
    }
  }
  return in;
}

AnalyticsInputs make_analytics_inputs(std::uint64_t seed) {
  // The weighted orc* analog at scale +1, edge for edge as
  // orc_analog(1, true) builds it (graph/analogs.cpp: builtin seed 101).
  constexpr int kScale = 16;
  AnalyticsInputs in;
  in.n = vid_t{1} << kScale;
  in.edges = pushpull::with_uniform_weights(pushpull::rmat_edges(kScale, 16, 101), 1.0f,
                                            64.0f, 101 ^ 0xabcd);
  const std::vector<vid_t> sources = non_isolated(in.n, in.edges);
  std::mt19937_64 rng(sub_seed(seed, 23));
  for (int i = 0; i < 8; ++i) in.bfs_sources.push_back(sources[rng() % sources.size()]);
  for (int i = 0; i < 4; ++i) in.sssp_sources.push_back(sources[rng() % sources.size()]);
  return in;
}

std::uint64_t digest(const EdgeList& edges) {
  Digest d;
  for (const Edge& e : edges) {
    d.value(e.u);
    d.value(e.v);
    d.value(e.w);
  }
  return d.get();
}

std::uint64_t digest(const std::vector<EdgeList>& batches) {
  Digest d;
  for (const EdgeList& b : batches) d.value(digest(b));
  return d.get();
}

std::uint64_t digest(const std::vector<Query>& queries) {
  Digest d;
  for (const Query& q : queries) {
    d.value(q.algo);
    d.value(q.source);
    d.value(q.due_ns);
  }
  return d.get();
}

std::uint64_t digest(const std::vector<std::vector<EdgeUpdate>>& batches) {
  Digest d;
  for (const auto& b : batches) {
    for (const EdgeUpdate& u : b) {
      d.value(u.u);
      d.value(u.v);
      d.value(u.insert);
    }
  }
  return d.get();
}

std::uint64_t digest(const std::vector<vid_t>& ids) { return digest_of(ids); }

}  // namespace perfbench
