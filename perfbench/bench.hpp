// Shared plumbing of the repository benchmark (see README.md): run
// arguments, latency statistics, the result report, benchmark-side spans,
// residual checks and seeded input drift.  Everything here sits outside
// the spx library and reaches it only through its public headers.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mat/csc.hpp"
#include "obs/span.hpp"

namespace pb {

using spx::index_t;
using spx::real_t;
using Matrix = spx::CscMatrix<real_t>;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the chrome trace of a traced run is written to.
  std::string out_dir = ".";
};

double now_s();

/// Latency (or any) samples with the statistics the report uses.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double sum() const;
  double mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// The highest quantile, at most 0.99, that leaves at least ten samples
  /// above it (never below the median).
  double tail_q() const;
  double tail() const { return quantile(tail_q()); }

 private:
  std::vector<double> v_;
};

/// One reported number.  `samples` is the count it is computed from (0 when
/// it is not a statistic over samples); `note` says how it was obtained.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
  std::string note;
};

/// What one run reports: correctness, the request accounting and metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, std::size_t samples = 0,
           std::string note = {});
  /// A wrong answer: counts as a failure and fails the run.
  void wrong(const std::string& what);
  /// A request that failed, was refused or expired.
  void fail(const std::string& what);
};

/// Names and units of every end-to-end and per-layer metric, in report
/// order.  Report::set rejects a name that is not listed here.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

// ---- tracing ----------------------------------------------------------

/// The benchmark-side tracer: null in untraced runs (spans are inert).
spx::obs::Tracer* tracer();
void set_tracer(spx::obs::Tracer* t);

/// RAII span around one call into a layer.  The name is "layer.call";
/// the parent is the innermost open span on this thread, `req` the id of
/// the request the call serves.
class Span {
 public:
  explicit Span(const char* name, std::int64_t req = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  spx::obs::SpanContext context() const { return span_.context(); }

 private:
  spx::obs::ScopedSpan span_;
  spx::obs::SpanContext saved_{};
};

/// Service-side phases of one request (seconds), as RequestStats reports
/// them.
struct ServicePhases {
  double queue = 0;
  double analyze = 0;
  double factorize = 0;
  double solve = 0;
  bool refactorize = false;  ///< the factorize phase was a refactorize
};

/// Traced runs: records the phases as consecutive child spans of `parent`
/// from `start` on, clipped at `end` (both on the now_s() clock), carrying
/// request id `req`.  Inert when untraced.
void record_service_phases(spx::obs::SpanContext parent, double start,
                           double end, const ServicePhases& ph,
                           std::int64_t req);

/// Span statistics: durations per span name and self time per layer (the
/// part of a span's interval not covered by its children).
struct SpanSummary {
  std::map<std::string, Samples> by_name;
  std::map<std::string, double> self_by_layer;
  std::size_t spans = 0;

  double median(const std::string& name) const;
  double total(const std::string& name) const;
  /// A layer's share of the self time of all layers.
  double self_frac(const std::string& layer) const;
};
SpanSummary summarize_spans(const std::vector<spx::obs::SpanRecord>& spans);

// ---- inputs and checks ------------------------------------------------

/// Seeded value drift that keeps the pattern, symmetry and definiteness:
/// A' = scale * A + shift * diag(r) with r in [0, 1] drawn per row.
Matrix drift(const Matrix& a, spx::Rng& rng, double max_shift);

/// Seeded right-hand sides (nrhs columns of length n).
std::vector<real_t> make_rhs(index_t n, index_t nrhs, spx::Rng& rng);

/// Normwise backward error of x for A x = b:
/// ||b - A x||_inf / (||A||_inf ||x||_inf + ||b||_inf).
double backward_error(const Matrix& a, std::span<const real_t> x,
                      std::span<const real_t> b);

/// Largest backward error a returned solution may have.
constexpr double kMaxBackwardError = 1e-9;

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
double peak_rss_mb(int pid = 0);

/// Restricts this process -- and so every thread and child it starts
/// later -- to the first CPU it may run on.  The serving workloads use it
/// so that a request's hand-offs between threads and processes are
/// context switches on one CPU, not cross-CPU wake-ups, whose latency on
/// a shared virtual machine swings with the neighbours' load.
void pin_to_one_cpu();

/// Median of a small vector (set-up repetitions).
double median_of(std::vector<double> v);

}  // namespace pb
