// Query surface of the serving layer (DESIGN.md §7).
//
// A QueryRequest names an algorithm, a source (for the single-source
// algorithms), an optional DirectionPolicy override, an optional epoch pin,
// and optional per-query budgets. The service answers with a QueryResult
// whose `epoch` field is the contract: the payload is EXACTLY what a
// standalone engine run on `snapshot(epoch)` produces — batching, caching
// and concurrent writer commits are invisible (serve_workload --verify
// gates this bit-for-bit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/policy.hpp"
#include "graph/delta_graph.hpp"
#include "graph/types.hpp"

namespace pushpull::serve {

enum class Algo : std::uint8_t { Bfs, Sssp, PageRank, Cc };

inline const char* to_string(Algo a) {
  switch (a) {
    case Algo::Bfs: return "bfs";
    case Algo::Sssp: return "sssp";
    case Algo::PageRank: return "pagerank";
    case Algo::Cc: return "cc";
  }
  return "?";
}

// Why a request was not served. `None` on every successful result.
enum class Reject : std::uint8_t {
  None,
  BadRequest,     // malformed: source out of range, epoch outside the
                  // snapshottable window, SSSP on an unweighted graph
  QueueFull,      // admission: pending queue at max_queue
  OverCapacity,   // admission: in-flight priced ops would exceed capacity_ops
  OverOpBudget,   // admission: priced ops exceed the request's op_budget
  OverTimeBudget, // admission: estimated latency exceeds time_budget_s
  Shutdown,       // service stopped before the request ran
};

inline const char* to_string(Reject r) {
  switch (r) {
    case Reject::None: return "none";
    case Reject::BadRequest: return "bad_request";
    case Reject::QueueFull: return "queue_full";
    case Reject::OverCapacity: return "over_capacity";
    case Reject::OverOpBudget: return "over_op_budget";
    case Reject::OverTimeBudget: return "over_time_budget";
    case Reject::Shutdown: return "shutdown";
  }
  return "?";
}

struct QueryRequest {
  Algo algo = Algo::Bfs;
  vid_t source = 0;  // ignored for PageRank/CC (whole-graph algorithms)
  // Direction-strategy override for the traversal algorithms; the §5 generic
  // switch is the serving default, matching the standalone kernels.
  engine::StrategyKind policy = engine::StrategyKind::GenericSwitch;
  // Epoch to pin: -1 = the latest committed epoch at submit. Any epoch in
  // [oldest_epoch(), epoch()] at submit is servable; outside it is
  // BadRequest. submit() takes the pinned snapshot itself (the latest is a
  // pointer copy, an older epoch is materialized then), so a compact() after
  // admission cannot invalidate the query.
  epoch_t pin_epoch = -1;
  // Per-query budgets, 0 = unlimited. op_budget caps the admission price
  // (estimated engine operations); time_budget_s caps the estimated latency
  // derived from the service's observed ops/sec throughput.
  std::uint64_t op_budget = 0;
  double time_budget_s = 0.0;
};

struct QueryResult {
  bool ok = false;
  Reject reject = Reject::None;
  std::string reject_detail;  // human-readable reason, empty when ok

  Algo algo = Algo::Bfs;
  epoch_t epoch = -1;  // the pinned epoch the payload was computed on

  // Exactly one payload is filled, matching `algo`.
  std::vector<vid_t> levels;    // Bfs: bfs_levels(snapshot(epoch), source)
  std::vector<weight_t> dist;   // Sssp: sssp_delta(...).dist
  std::vector<double> ranks;    // PageRank: pagerank_converged(...).ranks
  std::vector<vid_t> comp;      // Cc: cc_labels(snapshot(epoch))

  bool from_cache = false;
  int batch_lanes = 0;          // lanes in the merged pass that served this
                                // query (1 = ran standalone, 0 = not run)
  std::uint64_t priced_ops = 0; // admission price charged
  // Commits that landed after `epoch` by completion time — how stale this
  // answer is relative to the live graph (DeltaGraph::num_batches_since).
  std::size_t behind_batches = 0;
  double latency_s = 0.0;       // submit → completion wall time
};

}  // namespace pushpull::serve
