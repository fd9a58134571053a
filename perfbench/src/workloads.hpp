// The three workloads. Each generates its inputs from cfg.seed, sets up the
// library (timed as setup_s, several repetitions), measures for cfg.seconds,
// checks every answer outside the timed spans, and returns its metrics by
// name. With cfg.tracer set it also records the benchmark's spans around each
// call into a layer and derives the per-layer metrics from them.
#pragma once

#include "harness.hpp"

namespace perfbench {

// Before each workload's set-up the idle spinners run kWarmUpS seconds, then
// wait up to kCalmWaitS for a second of low host steal (IdleSpinners).
inline constexpr double kWarmUpS = 2.0;
inline constexpr double kCalmWaitS = 15.0;

RunResult run_serve_live(const RunConfig& cfg);
RunResult run_ingest_repair(const RunConfig& cfg);
RunResult run_analytics_static(const RunConfig& cfg);

// Harness threads the workload runs next to the library's own threads.
int serve_live_harness_threads();

}  // namespace perfbench
