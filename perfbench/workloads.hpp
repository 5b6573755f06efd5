// The four benchmark workloads (README.md has the why of each).  Every
// workload generates its inputs from --seed, sets up several times
// (reporting the median), measures for --seconds and checks every answer.
// An untraced run reports the end-to-end metrics; a traced run reports
// the per-layer metrics.
#pragma once

#include <functional>

#include "bench.hpp"

namespace pb {

/// Set-up repetitions behind setup_s in an untraced run: the solver
/// workloads set up for about a second each, serve and wire in tens of
/// milliseconds, so those repeat more to steady the median.
constexpr int kSetupReps = 3;
constexpr int kLightSetupReps = 15;

Report run_oneshot3d(const Args& args);
Report run_timestep2d(const Args& args);
Report run_serve(const Args& args);
Report run_wire(const Args& args);

/// Shared driver of a traced run: measures `loop(seconds / 2)` untraced,
/// then again under a benchmark-side tracer, and reports
/// obs.trace_overhead_frac from the two scores `loop` returns (higher is
/// better: throughput, or the reciprocal of a latency).  Writes the chrome
/// trace to <out_dir>/trace-<workload>.json and returns the span summary.
SpanSummary traced_halves(const Args& args,
                          const std::function<double(double)>& loop,
                          Report& rep);

}  // namespace pb
