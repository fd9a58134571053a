// GraphService: the long-lived multi-tenant analytics service (DESIGN.md §7).
//
// One resident DeltaGraph, one writer (outside the service) committing
// batches, many concurrent callers submitting QueryRequests. The lifecycle:
//
//   submit ── validate ── pin view ── admit ── enqueue
//                                                │ worker pool
//                                                ▼
//                          pop head; merge the compatible queries already
//                          queued (BFS/SSSP, same algo, epoch, policy)
//                                                │
//                                   1 lane: standalone kernel
//                                   k lanes: multi-source pass
//                                                │
//                          complete: stats, admission release, future
//
// A worker never waits for more queries to arrive: a pass carries what the
// queue already holds, and nothing is remembered between passes.
//
// Epoch-pinning contract: submit() takes the SnapshotView itself — the
// latest published view (a pointer copy), or the explicitly pinned epoch's —
// and the query carries it to execution, so workers never take a snapshot
// themselves. The result's `epoch` field names that view; the payload is
// bit-identical to a standalone run on the graph at that epoch no matter how
// many commits (or compactions) the writer landed meanwhile: they only make
// `behind_batches` grow. A pin outside [oldest_epoch(), epoch()] at submit
// time is a BadRequest; an admitted query runs unless the service stops.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "graph/delta_graph.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/request.hpp"

namespace pushpull::serve {

struct ServiceOptions {
  int workers = 2;
  weight_t sssp_delta = 2.0f;  // Δ for the standalone SSSP path
  AdmissionOptions admission;
  obs::Tracer* tracer = nullptr;  // optional; spans ride the kernel seam
};

// Monotonic totals since construction (queue_depth is instantaneous).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  // Always 0: the service keeps no result cache. perfbench/src/serve_live.cpp
  // still reads both fields.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batches = 0;          // merged passes executed (lanes ≥ 1)
  std::uint64_t batched_queries = 0;  // queries served by those passes
  std::size_t queue_depth = 0;
};

class GraphService {
 public:
  explicit GraphService(DeltaGraph& graph, ServiceOptions opt = {});
  ~GraphService();  // stop() + drain: queued promises reject with Shutdown

  GraphService(const GraphService&) = delete;
  GraphService& operator=(const GraphService&) = delete;

  // Non-blocking: validates, pins, prices; rejections resolve the future
  // immediately with ok=false and a Reject reason, admissions resolve when a
  // worker completes the query. Thread-safe.
  std::future<QueryResult> submit(QueryRequest req);

  // Stop accepting work, finish in-flight queries, fail queued ones with
  // Shutdown, join the workers. Idempotent; the destructor calls it.
  void stop();

  ServiceStats stats() const;
  AdmissionController& admission() { return admission_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    QueryRequest req;
    std::optional<SnapshotView> view;  // pinned at submit
    std::uint64_t priced = 0;
    std::uint64_t t_submit_ns = 0;
    std::promise<QueryResult> promise;

    epoch_t epoch() const { return view ? view->epoch() : -1; }
  };

  void worker_loop();
  // Run one merged pass (or a standalone query when batch.size() == 1) and
  // fulfill every promise in it.
  void execute_batch(std::vector<Pending> batch);
  void complete(Pending& p, QueryResult&& r, int lanes);
  void reject_now(Pending& p, Reject why, std::string detail);

  DeltaGraph* graph_;
  ServiceOptions opt_;
  AdmissionController admission_;
  bool weighted_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_queries_{0};
};

}  // namespace pushpull::serve
