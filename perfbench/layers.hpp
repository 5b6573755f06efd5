// Per-layer probes shared by the workloads' traced runs: ordering and
// symbolic analysis timed on the workload's own patterns, dense kernels
// replayed at the shapes those analyses produce, scheduler statistics,
// and the span-derived core/self-time figures.
#pragma once

#include <vector>

#include "bench.hpp"
#include "core/analysis.hpp"
#include "core/solver.hpp"

namespace pb {

/// One matrix of a workload together with the factorization it gets.
struct Problem {
  const Matrix* matrix;
  spx::Factorization kind;
};

/// Times nested_dissection + analyze_ordered on each problem's pattern
/// (spans graph.order / symbolic.structure) and reports the graph.* and
/// symbolic.* metrics; returns the analyses for the kernel replay.
std::vector<spx::Analysis> probe_analysis(const std::vector<Problem>& problems,
                                          Report& rep);

/// Replays the panel factor, TRSM, gemm_nt and scatter_sub calls of each
/// analysis at their real shapes on one thread and reports kernels.*,
/// next to a 256^3 gemm_nt peak measured in the same run.
void replay_kernels(const std::vector<spx::Analysis>& analyses,
                    const std::vector<Problem>& problems, Report& rep);

/// Accumulates the scheduler statistics of factorizations.
struct RuntimeTotals {
  Samples makespan;
  Samples busy;
  Samples idle_share;
  Samples lock_share;
  Samples steals;
  Samples tasks;
  void add(const spx::RunStats& st);
  void report(Report& rep) const;
};

/// Factorizes `p` once with the sequential runtime (the plain one-thread
/// baseline) and reports runtime.seq_factorize_s and
/// runtime.parallel_efficiency against `parallel_s` on `threads` threads.
void probe_sequential(const Problem& p, double parallel_s, int threads,
                      Report& rep);

/// Reports obs.spans and the <layer>.self_frac figures of a summary.
void report_self_time(const SpanSummary& s, Report& rep);

/// Fills every metric of `defs` not yet in the report with 0 (a layer the
/// workload does not exercise did no work).
void fill_missing(const std::vector<MetricDef>& defs, Report& rep);

}  // namespace pb
