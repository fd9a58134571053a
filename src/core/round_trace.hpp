// One traced kernel round (DESIGN.md §6), shared by BFS, CC and PageRank.
//
// A RoundTrace opens before the round runs (clock and counter snapshot) and
// fills and records the round's obs::RoundEvent when the kernel closes it.
// The kernel supplies what its direction policy saw; the helper adds the
// engine's loop shape and update count, the duration and the counter delta.
// With tracing off it records nothing and hands the engine no stats to fill.
#pragma once

#include <cstdint>

#include "engine/edge_map.hpp"
#include "obs/trace.hpp"
#include "perf/instr.hpp"

namespace pushpull::detail {

template <class Instr, class TracerT>
class RoundTrace {
 public:
  RoundTrace(TracerT* tracer, const Instr& instr) noexcept
      : tracer_(tracer), instr_(instr), on_(obs::tracing(tracer)) {
    if (on_) {
      t0_ = obs::now_ns();
      c0_ = obs::instr_snapshot(instr);
    }
  }

  // What the round's edge_map call fills; nullptr when not tracing.
  engine::EdgeMapStats* stats() noexcept { return on_ ? &st_ : nullptr; }

  // Records round `round` of `kernel`: the frontier and its work against the
  // totals, and the α/β the policy compared them with (0 for a fixed
  // direction). `mode` names a round that ran no edge_map call; by default
  // the round is tagged with the call's loop shape.
  void record(const char* kernel, int round, double frontier_size,
              double active_work, double total_work, double total_count,
              double alpha, double beta,
              const char* mode = nullptr) noexcept {
    if (!on_) return;
    obs::RoundEvent ev;
    ev.kernel = kernel;
    ev.mode = mode != nullptr ? mode : engine::to_string(st_.mode);
    ev.round = round;
    ev.frontier_size = static_cast<std::int64_t>(frontier_size);
    ev.active_work = static_cast<std::int64_t>(active_work);
    ev.total_work = static_cast<std::int64_t>(total_work);
    ev.total_count = static_cast<std::int64_t>(total_count);
    ev.alpha = alpha;
    ev.beta = beta;
    ev.updates = st_.updates;
    ev.t0_ns = t0_;
    ev.dur_ns = obs::now_ns() - t0_;
    ev.instr = obs::counter_delta(obs::instr_snapshot(instr_), c0_);
    obs::record_round(tracer_, ev);
  }

 private:
  TracerT* tracer_;
  const Instr& instr_;
  bool on_;
  std::uint64_t t0_ = 0;
  CounterBlock c0_{};
  engine::EdgeMapStats st_;
};

}  // namespace pushpull::detail
