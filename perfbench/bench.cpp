#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include <sched.h>

namespace pb {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double Samples::sum() const {
  double s = 0;
  for (const double x : v_) s += x;
  return s;
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double Samples::tail_q() const {
  const double n = static_cast<double>(v_.size());
  if (n <= 20) return 0.5;
  return std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
}

// ---- report -----------------------------------------------------------

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"time_to_solution_p50_s", "s"},
      {"factor_gflops", "GFlop/s"},
      {"step_p50_s", "s"},
      {"req_p50_ms", "ms"},
      {"req_p99_ms", "ms"},
      {"max_rate_rps", "1/s"},
      {"throughput_rps", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"graph.order_s", "s"},
      {"symbolic.structure_s", "s"},
      {"symbolic.flops_g", "GFlop"},
      {"symbolic.nnz_l", "count"},
      {"symbolic.panels", "count"},
      {"kernels.gemm_s", "s"},
      {"kernels.panel_s", "s"},
      {"kernels.scatter_s", "s"},
      {"kernels.gemm_gflops", "GFlop/s"},
      {"kernels.panel_gflops", "GFlop/s"},
      {"kernels.scatter_gbps", "GB/s"},
      {"kernels.peak_gemm_gflops", "GFlop/s"},
      {"kernels.gemm_frac_of_peak", "ratio"},
      {"runtime.makespan_s", "s"},
      {"runtime.busy_frac", "ratio"},
      {"runtime.idle_share", "ratio"},
      {"runtime.lock_wait_share", "ratio"},
      {"runtime.steals", "count"},
      {"runtime.tasks", "count"},
      {"runtime.seq_factorize_s", "s"},
      {"runtime.parallel_efficiency", "ratio"},
      {"core.analyze_s", "s"},
      {"core.factorize_s", "s"},
      {"core.refactorize_s", "s"},
      {"core.solve1_s", "s"},
      {"core.solve16_s", "s"},
      {"core.solve_rhs_per_s", "1/s"},
      {"core.backward_error_max", "ratio"},
      {"core.refine_iters", "count"},
      {"core.factorize_frac", "ratio"},
      {"core.solve_frac", "ratio"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.analyze_ms", "ms"},
      {"service.factorize_ms", "ms"},
      {"service.refactorize_ms", "ms"},
      {"service.solve_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.batch_rhs_mean", "count"},
      {"service.fp32_served_frac", "ratio"},
      {"service.fp64_fallbacks", "count"},
      {"service.rejected", "count"},
      {"service.expired", "count"},
      {"service.retries", "count"},
      {"net.rpc_overhead_p50_ms", "ms"},
      {"net.encode_us", "us"},
      {"net.decode_us", "us"},
      {"net.request_bytes_mean", "B"},
      {"net.response_bytes_mean", "B"},
      {"net.front_retries", "count"},
      {"net.shard_balance", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.spans", "count"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.backlog_max", "count"},
      {"loadgen.self_frac", "ratio"},
      {"core.self_frac", "ratio"},
      {"service.self_frac", "ratio"},
      {"net.self_frac", "ratio"},
  };
  return defs;
}

void Report::set(const std::string& name, double value, std::size_t samples,
                 std::string note) {
  const auto known = [&](const std::vector<MetricDef>& defs) {
    for (const MetricDef& d : defs) {
      if (name == d.name) return d.unit;
    }
    return static_cast<const char*>(nullptr);
  };
  const char* unit = known(end_to_end_defs());
  if (unit == nullptr) unit = known(per_layer_defs());
  if (unit == nullptr) throw std::logic_error("unknown metric " + name);
  if (!std::isfinite(value)) value = 0;
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = {name, unit, value, samples, std::move(note)};
      return;
    }
  }
  metrics.push_back({name, unit, value, samples, std::move(note)});
}

void Report::wrong(const std::string& what) {
  if (correct) std::fprintf(stderr, "WRONG ANSWER: %s\n", what.c_str());
  correct = false;
  ++failed;
}

void Report::fail(const std::string& what) {
  if (failed < 5) std::fprintf(stderr, "request failed: %s\n", what.c_str());
  ++failed;
}

// ---- tracing ----------------------------------------------------------

namespace {
spx::obs::Tracer* g_tracer = nullptr;
thread_local spx::obs::SpanContext t_current{};
}  // namespace

spx::obs::Tracer* tracer() { return g_tracer; }
void set_tracer(spx::obs::Tracer* t) { g_tracer = t; }

Span::Span(const char* name, std::int64_t req)
    : span_(g_tracer, name, "bench-", t_current, 0, req) {
  if (span_.active()) {
    saved_ = t_current;
    t_current = span_.context();
  }
}

Span::~Span() {
  if (span_.active()) t_current = saved_;
}

void record_service_phases(spx::obs::SpanContext parent, double start,
                           double end, const ServicePhases& ph,
                           std::int64_t req) {
  if (g_tracer == nullptr) return;
  const double offset = g_tracer->now() - now_s();
  double t = start + offset;
  end += offset;
  const auto child = [&](const char* name, double dur) {
    if (dur <= 0) return;
    g_tracer->record_span(name, "bench-", parent, t, std::min(t + dur, end),
                          0, req);
    t += dur;
  };
  child("service.queue", ph.queue);
  child("core.analyze", ph.analyze);
  child(ph.refactorize ? "core.refactorize" : "core.factorize", ph.factorize);
  child("core.solve", ph.solve);
}

namespace {

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Length of the union of intervals clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  double cur_lo = 0;
  double cur_hi = -1;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

SpanSummary summarize_spans(const std::vector<spx::obs::SpanRecord>& spans) {
  SpanSummary s;
  s.spans = spans.size();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& r : spans) {
    if (r.parent_id != 0) children[r.parent_id].push_back({r.start, r.end});
  }
  for (const auto& r : spans) {
    const std::string name = r.name;
    const double dur = r.end - r.start;
    s.by_name[name].add(dur);
    const auto it = children.find(r.span_id);
    const double child =
        it == children.end() ? 0.0 : covered(it->second, r.start, r.end);
    s.self_by_layer[layer_of(name)] += std::max(0.0, dur - child);
  }
  return s;
}

double SpanSummary::median(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.median();
}

double SpanSummary::total(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.sum();
}

double SpanSummary::self_frac(const std::string& layer) const {
  double total = 0;
  for (const auto& [name, self] : self_by_layer) total += self;
  const auto it = self_by_layer.find(layer);
  if (it == self_by_layer.end() || total <= 0) return 0.0;
  return it->second / total;
}

// ---- inputs and checks ------------------------------------------------

Matrix drift(const Matrix& a, spx::Rng& rng, double max_shift) {
  const double scale = rng.uniform(0.5, 2.0);
  const double shift = rng.uniform(0.0, max_shift);
  std::vector<real_t> v(a.values().begin(), a.values().end());
  const auto colptr = a.colptr();
  const auto rowind = a.rowind();
  for (index_t j = 0; j < a.ncols(); ++j) {
    const double r = rng.next_double();
    for (auto p = colptr[j]; p < colptr[j + 1]; ++p) {
      v[p] *= scale;
      if (rowind[p] == j) v[p] += shift * r;
    }
  }
  return Matrix(a.nrows(), a.ncols(),
                std::vector<spx::size_type>(colptr.begin(), colptr.end()),
                std::vector<index_t>(rowind.begin(), rowind.end()),
                std::move(v));
}

std::vector<real_t> make_rhs(index_t n, index_t nrhs, spx::Rng& rng) {
  std::vector<real_t> b(static_cast<std::size_t>(n) * nrhs);
  for (real_t& x : b) x = rng.uniform(-1.0, 1.0);
  return b;
}

double backward_error(const Matrix& a, std::span<const real_t> x,
                      std::span<const real_t> b) {
  const auto n = static_cast<std::size_t>(a.nrows());
  if (x.size() != n || b.size() != n) return INFINITY;
  std::vector<real_t> r(n);
  a.multiply(x, r);
  double rmax = 0;
  double xmax = 0;
  double bmax = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rmax = std::max(rmax, std::abs(b[i] - r[i]));
    xmax = std::max(xmax, std::abs(x[i]));
    bmax = std::max(bmax, std::abs(b[i]));
  }
  std::vector<double> rowsum(n, 0.0);
  const auto colptr = a.colptr();
  const auto rowind = a.rowind();
  const auto vals = a.values();
  for (index_t j = 0; j < a.ncols(); ++j) {
    for (auto p = colptr[j]; p < colptr[j + 1]; ++p) {
      rowsum[rowind[p]] += std::abs(vals[p]);
    }
  }
  const double anorm = *std::max_element(rowsum.begin(), rowsum.end());
  const double denom = anorm * xmax + bmax;
  if (!std::isfinite(rmax) || !std::isfinite(xmax)) return INFINITY;
  return denom > 0 ? rmax / denom : rmax;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

double median_of(std::vector<double> v) {
  Samples s;
  for (const double x : v) s.add(x);
  return s.median();
}

}  // namespace pb
