// Admission control: price a query in engine operations, admit or
// reject-with-reason (DESIGN.md §7).
//
// The currency is the engine's operation-count attribution (perf/instr.hpp):
// every kernel's work is reads + writes + atomics/locks per arc and vertex,
// so a closed-form price in "ops" is comparable across algorithms and graph
// sizes. The controller keeps an in-flight ops ledger against a capacity,
// caps the pending queue, and converts ops to estimated seconds through an
// EWMA of observed per-query throughput for time-budget checks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>

#include "graph/types.hpp"
#include "serve/request.hpp"

namespace pushpull::serve {

struct AdmissionOptions {
  // Total in-flight priced ops the service will run concurrently. 0 =
  // unlimited (admission still prices queries for budgets and metrics).
  std::uint64_t capacity_ops = 0;
  // Maximum pending (admitted, not yet completed) queries; 0 = unlimited.
  std::size_t max_queue = 0;
  // Initial ops/sec estimate for time-budget checks, refined by observe().
  double ops_per_sec = 1e8;
};

struct AdmissionDecision {
  Reject reject = Reject::None;
  std::string detail;
  std::uint64_t priced_ops = 0;
  bool ok() const noexcept { return reject == Reject::None; }
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions opt = {})
      : opt_(opt), ops_per_sec_(opt.ops_per_sec) {}

  // Closed-form price of one query in engine ops, calibrated against the
  // CountingInstr attribution of the standalone kernels: each traversed arc
  // costs a read+write (plus sync in push mode), each vertex a constant
  // amount of frontier/value bookkeeping. PageRank pays per converged
  // iteration (~20 sweeps at the serving tolerance on the bench graphs).
  static std::uint64_t price(Algo a, vid_t n, eid_t m) {
    const std::uint64_t nn = static_cast<std::uint64_t>(n);
    const std::uint64_t mm = static_cast<std::uint64_t>(m);
    switch (a) {
      case Algo::Bfs: return mm + 2 * nn;
      case Algo::Sssp: return 3 * mm + 2 * nn;       // label-correcting revisits
      case Algo::PageRank: return 20 * (mm + nn);    // sweeps to 1e-12 L∞
      case Algo::Cc: return 4 * mm + 2 * nn;         // out+in propagation rounds
    }
    return mm + nn;
  }

  // Price `req` against a graph of n vertices / m arcs and `queued` pending
  // queries; charge the ledger when admitted. Rejections are side-effect
  // free. Checks are ordered cheapest-explanation-first: queue pressure,
  // then the caller's own budgets, then global capacity.
  AdmissionDecision admit(const QueryRequest& req, vid_t n, eid_t m,
                          std::size_t queued) {
    AdmissionDecision d;
    d.priced_ops = price(req.algo, n, m);
    std::lock_guard<std::mutex> lk(mu_);
    if (opt_.max_queue != 0 && queued >= opt_.max_queue) {
      d.reject = Reject::QueueFull;
      d.detail = "queue depth " + std::to_string(queued) + " at limit " +
                 std::to_string(opt_.max_queue);
      return d;
    }
    if (req.op_budget != 0 && d.priced_ops > req.op_budget) {
      d.reject = Reject::OverOpBudget;
      d.detail = "priced " + std::to_string(d.priced_ops) + " ops, budget " +
                 std::to_string(req.op_budget);
      return d;
    }
    if (req.time_budget_s > 0.0) {
      const double est_s = static_cast<double>(d.priced_ops) / ops_per_sec_;
      if (est_s > req.time_budget_s) {
        d.reject = Reject::OverTimeBudget;
        d.detail = "estimated " + std::to_string(est_s) + " s, budget " +
                   std::to_string(req.time_budget_s) + " s";
        return d;
      }
    }
    if (opt_.capacity_ops != 0 &&
        inflight_ops_ + d.priced_ops > opt_.capacity_ops) {
      d.reject = Reject::OverCapacity;
      d.detail = "in-flight " + std::to_string(inflight_ops_) + " + " +
                 std::to_string(d.priced_ops) + " ops over capacity " +
                 std::to_string(opt_.capacity_ops);
      return d;
    }
    inflight_ops_ += d.priced_ops;
    return d;
  }

  // Return an admitted query's ops to the ledger (completion or drain).
  void release(std::uint64_t priced_ops) {
    std::lock_guard<std::mutex> lk(mu_);
    inflight_ops_ -= std::min(inflight_ops_, priced_ops);
  }

  // Feed back a completed query's measured latency to refine the ops→seconds
  // model used by time-budget checks.
  void observe(std::uint64_t priced_ops, double seconds) {
    if (seconds <= 0.0 || priced_ops == 0) return;
    const double rate = static_cast<double>(priced_ops) / seconds;
    std::lock_guard<std::mutex> lk(mu_);
    ops_per_sec_ = 0.8 * ops_per_sec_ + 0.2 * rate;
  }

  std::uint64_t inflight_ops() const {
    std::lock_guard<std::mutex> lk(mu_);
    return inflight_ops_;
  }

  double ops_per_sec() const {
    std::lock_guard<std::mutex> lk(mu_);
    return ops_per_sec_;
  }

 private:
  AdmissionOptions opt_;
  mutable std::mutex mu_;
  std::uint64_t inflight_ops_ = 0;
  double ops_per_sec_ = 1e8;
};

}  // namespace pushpull::serve
