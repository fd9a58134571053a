// Inputs for the three workloads, generated here before any timed phase
// starts; the library only ever receives these values. The graphs are fixed
// (two of the repository's analogs and one directed R-MAT), the same on every
// seed, so seeds add no graph-to-graph variance; --seed drives everything fed
// to them: writer batches, the query streams with their due times, the ingest
// stream and the analytics sources.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/delta_graph.hpp"
#include "graph/types.hpp"
#include "serve/request.hpp"

namespace perfbench {

using pushpull::EdgeList;
using pushpull::EdgeUpdate;
using pushpull::vid_t;

// Two seeds: the one a change is developed against, and the one its claim is
// confirmed on afterwards (inputs the change was not written against).
inline constexpr std::uint64_t kDevSeed = 1;
inline constexpr std::uint64_t kConfirmSeed = 2;

struct Query {
  pushpull::serve::Algo algo = pushpull::serve::Algo::Bfs;
  vid_t source = 0;
  std::uint64_t due_ns = 0;  // open loop: due time after the phase starts
};

// serve_live: the weighted pok* analog at scale −2 (R-MAT 2^12 vertices, edge
// factor 9, weights in [1, 64)), the writer's batches and the query streams.
struct ServeInputs {
  vid_t n = 0;
  EdgeList edges;
  std::vector<EdgeList> writer_batches;  // 16 edges each, one per period
  std::vector<Query> warmup;
  std::vector<Query> open;                 // fixed rate, see due_ns
  std::vector<std::vector<Query>> closed;  // one stream per closed-loop client
};

// ingest_repair: a directed R-MAT (2^13 vertices, edge factor 8), the 3:1
// insert/delete batch stream, and the BFS root whose levels the loop repairs.
struct IngestInputs {
  vid_t n = 0;
  EdgeList edges;  // self-loop free, duplicate free
  vid_t root = 0;
  std::vector<std::vector<EdgeUpdate>> batches;
};

// analytics_static: weighted orc* analog at scale +1 (R-MAT 2^16 vertices,
// edge factor 16; about 1.8 M arcs) and the seeded traversal sources.
struct AnalyticsInputs {
  vid_t n = 0;
  EdgeList edges;
  std::vector<vid_t> bfs_sources;
  std::vector<vid_t> sssp_sources;
};

// Open-loop queries are due every 1/`open_rate` s over `open_s` seconds,
// starting `open_offset_ns` in (so they need not coincide with writer commits).
ServeInputs make_serve_inputs(std::uint64_t seed, std::size_t writer_batches,
                              double open_rate, double open_s,
                              std::uint64_t open_offset_ns, int clients,
                              std::size_t per_client);
IngestInputs make_ingest_inputs(std::uint64_t seed, std::size_t batches);
AnalyticsInputs make_analytics_inputs(std::uint64_t seed);

// Stream digests, printed by every run: the same seed gives the same values.
std::uint64_t digest(const EdgeList& edges);
std::uint64_t digest(const std::vector<EdgeList>& batches);
std::uint64_t digest(const std::vector<Query>& queries);
std::uint64_t digest(const std::vector<std::vector<EdgeUpdate>>& batches);
std::uint64_t digest(const std::vector<vid_t>& ids);

}  // namespace perfbench
