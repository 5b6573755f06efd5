// serve: open-loop Poisson traffic from one generator thread into an
// in-process SolveService (3 workers, Sequential inner runtime, 4 tenants,
// tenant t3 on Fp32Refine), all on one CPU (pin_to_one_cpu).  Arrivals are
// factorizes (a Zipf draw from a pool of 12 small 2D/3D patterns whose
// analyses exceed the cache budget; each is followed by a solve against its
// new factor), refactorizes, and pairs of solves -- two right-hand sides
// against one factor, which the service may coalesce -- on factors made
// resident during set-up.  Requests come out about 25% factorize, 15%
// refactorize and 60% solve.  A collector thread takes completions, checks
// every answer and issues the chained solves.
//
// The fixed constants below are part of the benchmark's definition and
// are repeated in BENCHMARK.json; changing them redefines the metrics.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "layers.hpp"
#include "mat/generators.hpp"
#include "service/solve_service.hpp"
#include "workloads.hpp"

namespace pb {

namespace svc = spx::service;
using spx::Factorization;

namespace {

/// Nominal open-loop arrival rate of the latency metrics (arrivals/s;
/// chained solves come on top): about a quarter of the seed's capacity.
/// On one CPU every request waits for the others, so latency grows with
/// utilization: when the shared host's speed fell by about 40%, the median
/// latency rose 89% at 150 arrivals/s and 49% at 80.
constexpr double kNominalRps = 80;
/// Arrival-rate ladder behind max_rate_rps (arrivals/s), climbed until a rung
/// misses the tail-latency limit or builds a backlog.
constexpr double kLadderRps[] = {150, 200, 250, 300, 350, 400, 500, 600};
/// Tail-latency limit of a ladder rung (ms): well above the largest
/// pattern's factorize time, so a rung fails on queueing, not on compute.
constexpr double kTailLimitMs = 100;
/// Analysis-cache budget: smaller than the pool's analyses.
constexpr std::size_t kCacheBytes = 256u << 10;
constexpr int kWorkers = 3;
constexpr int kResident = 6;
constexpr double kRungSeconds = 2;
/// Arrival mix: factorize, refactorize, else a solve pair.
constexpr double kFactorizeShare = 0.435;
constexpr double kRefactorizeShare = 0.26;
const char* const kTenants[] = {"t0", "t1", "t2", "t3"};
constexpr int kFp32Tenant = 3;

struct Pattern {
  std::shared_ptr<const Matrix> matrix;
  Factorization kind;
  double flops = 0;  ///< Analysis::total_flops of the pattern
};

/// The pool in popularity order (Zipf rank).  The most popular pattern is
/// mid-sized and the second the largest, so the median factorize and the
/// tail request each fall inside one pattern's class rather than on the
/// boundary between two, which would make them jump from run to run.
std::vector<Pattern> make_pool() {
  struct Spec {
    bool grid3d;
    index_t side;
  };
  constexpr Spec specs[] = {{false, 40}, {true, 12}, {false, 24}, {true, 7},
                            {false, 28}, {true, 8},  {false, 32}, {true, 9},
                            {false, 36}, {true, 10}, {false, 44}, {true, 11}};
  std::vector<Pattern> pool;
  for (const Spec& sp : specs) {
    const index_t s = sp.side;
    pool.push_back({std::make_shared<const Matrix>(
                        sp.grid3d ? spx::gen::grid3d_laplacian(s, s, s)
                                  : spx::gen::grid2d_laplacian(s, s)),
                    sp.grid3d ? Factorization::LDLT : Factorization::LLT});
  }
  for (Pattern& p : pool) p.flops = spx::analyze(*p.matrix).total_flops(p.kind);
  return pool;
}

/// A factor made resident in set-up; solves and refactorizes target it.
/// Refactorizes of one factor are issued one at a time, so the values a
/// solve may have been served with are the versions [lo, hi].
struct Resident {
  svc::FactorHandle handle;
  int tenant = 0;
  Pattern pattern;
  std::map<int, std::shared_ptr<const Matrix>> versions;
  int committed = 0;  ///< latest version whose refactorize completed
  int issued = 0;     ///< latest version submitted
  bool refactor_inflight = false;
};

enum class Kind { Factorize, Refactorize, Solve };

struct Pending {
  Kind kind = Kind::Solve;
  int tenant = 0;
  double due = 0;
  double submitted = 0;
  double origin_due = 0;  ///< chained solve: due time of its factorize
  bool chained = false;
  bool counted = true;    ///< nominal phase (error_rate accounting)
  int resident = -1;
  int version_lo = 0;
  int version = 0;        ///< refactorize: the version it installs
  std::shared_ptr<const Matrix> matrix;  ///< factorize / chained solve
  double flops = 0;                      ///< factorize / refactorize
  spx::obs::SpanContext parent;          ///< chained solve: its factorize
  std::vector<real_t> rhs;
  svc::Ticket<svc::FactorizeResult> fticket;
  svc::Ticket<svc::SolveResult> sticket;
};

/// Per-phase results.
struct Phase {
  Samples latency;      ///< due -> completion, seconds
  Samples tts;          ///< factorize due -> chained solve done
  Samples queue_wait;
  Samples analyze;
  Samples factorize;
  Samples refactorize;
  Samples solve;
  Samples lag;
  RuntimeTotals runtime;
  double flops = 0;
  double factor_s = 0;
  double fp32 = 0;
  double done = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t backlog_max = 0;
  std::size_t backlog_end = 0;
  double elapsed = 0;
};

class ServeBench {
 public:
  ServeBench(const Args& args, Report& rep)
      : args_(args), rep_(rep), rng_(args.seed), check_rng_(args.seed + 1) {}

  ~ServeBench() {
    stop_collector();
    service_.reset();
  }

  double setup() {
    stop_collector();
    service_.reset();
    done_.clear();
    pending_.clear();
    chained_handle_.clear();
    const double t0 = now_s();
    {
      Span s("mat.generate");
      pool_ = make_pool();
    }
    svc::ServiceOptions o;
    o.num_workers = kWorkers;
    o.cache_bytes = kCacheBytes;
    svc::TenantConfig fp32;
    fp32.precision = svc::PrecisionPolicy::Fp32Refine;
    fp32.precision_set = true;
    o.tenants[kTenants[kFp32Tenant]] = fp32;
    service_ = std::make_unique<svc::SolveService>(o);
    residents_.clear();
    for (int i = 0; i < kResident; ++i) {
      Resident r;
      r.tenant = i < kResident - 2 ? i % kFp32Tenant : kFp32Tenant;
      r.pattern = pool_[static_cast<std::size_t>(i)];
      svc::RequestOptions req;
      req.tenant = kTenants[r.tenant];
      const svc::FactorizeResult res =
          service_->factorize(req, r.pattern.matrix, r.pattern.kind);
      if (!res.ok()) throw std::runtime_error("set-up factorize: " + res.error);
      r.handle = res.factor;
      r.versions[0] = r.pattern.matrix;
      residents_.push_back(std::move(r));
    }
    start_collector();
    return now_s() - t0;
  }

  /// Open-loop arrivals at `rate` for `seconds`, then waits for the
  /// stragglers.  Counted phases feed attempted/failed.
  Phase run(double rate, double seconds, bool counted) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      phase_ = Phase{};
      counted_ = counted;
    }
    const svc::ServiceStats before = service_->stats();
    const double start = now_s();
    double due = start;
    while (true) {
      due += -std::log(1.0 - rng_.next_double()) / rate;
      if (due - start >= seconds) break;
      const double now = now_s();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      submit_arrival(due);
    }
    Phase p;
    {
      std::unique_lock<std::mutex> lock(mu_);
      phase_.backlog_end = pending_.size();
      idle_cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return pending_.empty(); });
      phase_.elapsed = now_s() - start;
      // Anything still pending after the grace period is lost.
      for (auto& [id, pd] : pending_) {
        if (pd.counted) ++phase_.failed;
      }
      p = phase_;
    }
    stats_after_ = service_->stats();
    stats_before_ = before;
    return p;
  }

  const svc::ServiceStats& stats_before() const { return stats_before_; }
  const svc::ServiceStats& stats_after() const { return stats_after_; }
  const std::vector<Pattern>& pool() const { return pool_; }
  double worst_backward_error() {
    std::lock_guard<std::mutex> lock(mu_);
    return worst_be_;
  }

 private:
  void submit_arrival(double due) {
    const double lag = now_s() - due;
    const double u = rng_.next_double();
    Pending pd;
    pd.due = due;
    if (u < kFactorizeShare) {
      pd.kind = Kind::Factorize;
      pd.tenant = static_cast<int>(rng_.next_below(4));
      const Pattern& pat = pool_[zipf()];
      pd.matrix = pat.matrix;
      pd.flops = pat.flops;
      submit(std::move(pd), lag, pat.kind);
      return;
    }
    const int r = static_cast<int>(rng_.next_below(kResident));
    Resident& res = residents_[static_cast<std::size_t>(r)];
    pd.resident = r;
    pd.tenant = res.tenant;
    bool refactor = u < kFactorizeShare + kRefactorizeShare;
    std::vector<real_t> values;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // One refactorize per factor in flight; otherwise this is a solve.
      if (refactor && res.refactor_inflight) refactor = false;
      if (refactor) {
        res.refactor_inflight = true;
        pd.version = ++res.issued;
      } else {
        pd.version_lo = res.committed;
      }
    }
    if (refactor) {
      pd.kind = Kind::Refactorize;
      pd.flops = res.pattern.flops;
      auto m = std::make_shared<const Matrix>(
          drift(*res.pattern.matrix, rng_, 1.0));
      values.assign(m->values().begin(), m->values().end());
      {
        std::lock_guard<std::mutex> lock(mu_);
        res.versions[pd.version] = m;
        while (res.versions.size() > 64) {
          res.versions.erase(res.versions.begin());
        }
      }
      submit(std::move(pd), lag, res.pattern.kind, std::move(values));
      return;
    }
    pd.kind = Kind::Solve;
    for (int k = 0; k < 2; ++k) {
      Pending solve = pd;
      solve.rhs = make_rhs(res.pattern.matrix->nrows(), 1, rng_);
      submit(std::move(solve), lag, res.pattern.kind);
    }
  }

  /// Admits one request; its completion is queued for the collector.
  void submit(Pending pd, double lag, Factorization kind,
              std::vector<real_t> values = {}) {
    const std::uint64_t id = next_id_++;
    svc::RequestOptions req;
    req.tenant = kTenants[pd.tenant];
    req.on_complete = [this, id] {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back({id, now_s()});
      done_cv_.notify_one();
    };
    std::unique_lock<std::mutex> lock(mu_);
    pd.counted = counted_;
    pd.submitted = now_s();
    if (pd.counted) ++phase_.attempted;
    phase_.lag.add(lag);
    Pending& slot = pending_[id] = std::move(pd);
    phase_.backlog_max = std::max(phase_.backlog_max, pending_.size());
    lock.unlock();
    // The service may complete the request before submit_* returns, so
    // the slot exists first and the ticket is filled in under the lock.
    if (slot.kind == Kind::Factorize) {
      auto t = service_->submit_factorize(std::move(req), slot.matrix, kind);
      std::lock_guard<std::mutex> g(mu_);
      slot.fticket = std::move(t);
    } else if (slot.kind == Kind::Refactorize) {
      auto t = service_->submit_refactorize(
          std::move(req), residents_[slot.resident].handle, std::move(values));
      std::lock_guard<std::mutex> g(mu_);
      slot.fticket = std::move(t);
    } else {
      auto t = service_->submit_solve(
          std::move(req), residents_[slot.resident].handle, slot.rhs);
      std::lock_guard<std::mutex> g(mu_);
      slot.sticket = std::move(t);
    }
    ticket_cv_.notify_all();
  }

  /// Zipf draw over the pool: rank r has weight 1 / (r + 1)^2.
  std::size_t zipf() {
    static const std::vector<double> cdf = [] {
      const auto weight = [](int r) { return 1.0 / ((r + 1.0) * (r + 1.0)); };
      std::vector<double> c;
      double total = 0;
      for (int i = 0; i < 12; ++i) total += weight(i);
      double acc = 0;
      for (int i = 0; i < 12; ++i) {
        acc += weight(i) / total;
        c.push_back(acc);
      }
      return c;
    }();
    const double u = rng_.next_double();
    return static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                     cdf.begin(),
                                 11));
  }

  void start_collector() {
    stop_ = false;
    collector_ = std::thread([this] { collect(); });
  }

  void stop_collector() {
    if (!collector_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      stop_ = true;
      done_cv_.notify_all();
    }
    collector_.join();
  }

  void collect() {
    while (true) {
      std::pair<std::uint64_t, double> ev;
      {
        std::unique_lock<std::mutex> lock(done_mu_);
        done_cv_.wait(lock, [&] { return stop_ || !done_.empty(); });
        if (done_.empty()) return;
        ev = done_.front();
        done_.pop_front();
      }
      finish(ev.first, ev.second);
    }
  }

  /// Verifies one completed request and records its figures.
  void finish(std::uint64_t id, double t_done) {
    Pending pd;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = pending_.find(id);
      ticket_cv_.wait(lock, [&] {
        return it->second.fticket.valid() || it->second.sticket.valid();
      });
      pd = std::move(it->second);
    }
    const double latency = t_done - pd.due;
    const spx::obs::SpanContext span = record_spans(id, pd, t_done);
    bool ok = true;
    svc::RequestStats st;
    std::string error;
    std::shared_ptr<const Matrix> chain_matrix;
    svc::FactorHandle chain_factor;
    if (pd.kind == Kind::Solve) {
      const svc::SolveResult res = pd.sticket.get();
      st = res.stats;
      ok = res.ok();
      error = res.error;
      if (ok) verify_solve(pd, res.x);
    } else {
      const svc::FactorizeResult res = pd.fticket.get();
      st = res.stats;
      ok = res.ok();
      error = res.error;
      if (ok && pd.kind == Kind::Factorize) {
        chain_matrix = pd.matrix;
        chain_factor = res.factor;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (pd.kind == Kind::Refactorize) {
      Resident& r = residents_[static_cast<std::size_t>(pd.resident)];
      r.refactor_inflight = false;
      if (ok) r.committed = pd.version;
    }
    Phase& ph = phase_;
    if (!ok) {
      if (pd.counted) {
        ++ph.failed;
        rep_.fail(std::string(svc::to_string(st.code)) + ": " + error);
      }
    } else {
      ph.latency.add(latency);
      ph.queue_wait.add(st.queue_wait_s);
      if (st.fp32) ++ph.fp32;
      ++ph.done;
      if (pd.kind == Kind::Solve) {
        ph.solve.add(st.solve_s);
        if (pd.chained) ph.tts.add(t_done - pd.origin_due);
      } else {
        if (st.analyze_s > 0) ph.analyze.add(st.analyze_s);
        (pd.kind == Kind::Factorize ? ph.factorize : ph.refactorize)
            .add(st.factorize_s);
        if (st.run.makespan > 0) ph.runtime.add(st.run);
        ph.flops += pd.flops;
        ph.factor_s += st.factorize_s;
      }
    }
    if (chain_factor != nullptr) {
      Pending next;
      next.kind = Kind::Solve;
      next.chained = true;
      next.tenant = pd.tenant;
      next.due = t_done;
      next.origin_due = pd.due;
      next.parent = span;
      next.matrix = chain_matrix;
      next.rhs = make_rhs(chain_matrix->nrows(), 1, check_rng_);
      const std::uint64_t nid = next_id_++;
      chained_handle_[nid] = chain_factor;
      pending_.erase(id);
      submit_chained(nid, std::move(next));
      return;
    }
    chained_handle_.erase(id);
    pending_.erase(id);
    if (pending_.empty()) idle_cv_.notify_all();
  }

  /// Chained solve, submitted from the collector with mu_ held.
  void submit_chained(std::uint64_t id, Pending pd) {
    svc::RequestOptions req;
    req.tenant = kTenants[pd.tenant];
    req.on_complete = [this, id] {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back({id, now_s()});
      done_cv_.notify_one();
    };
    pd.counted = counted_;
    pd.submitted = now_s();
    if (pd.counted) ++phase_.attempted;
    Pending& slot = pending_[id] = std::move(pd);
    slot.sticket =
        service_->submit_solve(std::move(req), chained_handle_.at(id), slot.rhs);
  }

  /// Traced runs: the submit -> complete span of a request, with its
  /// service-side phases (from RequestStats) as child spans laid out in
  /// the order the service runs them.  Returns the request span.
  spx::obs::SpanContext record_spans(std::uint64_t id, const Pending& pd,
                                     double t_done) {
    spx::obs::Tracer* tr = tracer();
    if (tr == nullptr) return {};
    svc::RequestStats st;
    if (pd.sticket.valid()) {
      st = pd.sticket.get().stats;
    } else {
      st = pd.fticket.get().stats;
    }
    const double offset = tr->now() - now_s();
    const auto req = static_cast<std::int64_t>(id);
    const spx::obs::SpanContext ctx =
        tr->record_span("service.request", "bench-", pd.parent,
                        pd.submitted + offset, t_done + offset, 0, req);
    record_service_phases(ctx, pd.submitted, t_done,
                          {st.queue_wait_s, st.analyze_s, st.factorize_s,
                           st.solve_s, pd.kind == Kind::Refactorize},
                          req);
    return ctx;
  }

  void verify_solve(const Pending& pd, const std::vector<real_t>& x) {
    Span span("loadgen.check");
    if (pd.chained) {
      const double be = backward_error(*pd.matrix, x, pd.rhs);
      std::lock_guard<std::mutex> lock(mu_);
      worst_be_ = std::max(worst_be_, be);
      if (!(be <= kMaxBackwardError)) rep_.wrong("chained solve backward error");
      return;
    }
    std::vector<std::shared_ptr<const Matrix>> candidates;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const Resident& r = residents_[static_cast<std::size_t>(pd.resident)];
      for (const auto& [v, m] : r.versions) {
        if (v >= pd.version_lo && v <= r.issued) candidates.push_back(m);
      }
    }
    for (const auto& m : candidates) {
      const double be = backward_error(*m, x, pd.rhs);
      if (be <= kMaxBackwardError) {
        std::lock_guard<std::mutex> lock(mu_);
        worst_be_ = std::max(worst_be_, be);
        return;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    rep_.wrong("solve matches no live version of its factor");
  }

  const Args& args_;
  Report& rep_;
  spx::Rng rng_;        ///< generator thread: arrivals, draws, values
  spx::Rng check_rng_;  ///< collector thread: chained right-hand sides
  std::vector<Pattern> pool_;
  std::unique_ptr<svc::SolveService> service_;
  std::vector<Resident> residents_;
  double worst_be_ = 0;  ///< largest backward error of an accepted solve

  std::mutex mu_;  ///< pending_, residents_ versions, phase_, rep_
  std::condition_variable idle_cv_;
  std::condition_variable ticket_cv_;
  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, svc::FactorHandle> chained_handle_;
  Phase phase_;
  bool counted_ = true;
  std::atomic<std::uint64_t> next_id_{1};
  svc::ServiceStats stats_before_;
  svc::ServiceStats stats_after_;

  std::mutex done_mu_;  ///< done_, stop_
  std::condition_variable done_cv_;
  std::deque<std::pair<std::uint64_t, double>> done_;
  bool stop_ = false;
  std::thread collector_;
};

}  // namespace

Report run_serve(const Args& args) {
  Report rep;
  pin_to_one_cpu();
  ServeBench bench(args, rep);
  std::vector<double> setups;
  const int reps = args.trace ? 1 : kLightSetupReps;
  for (int i = 0; i < reps; ++i) setups.push_back(bench.setup());

  if (!args.trace) {
    const double nominal_s = args.seconds / 2;
    const Phase p = bench.run(kNominalRps, nominal_s, true);
    rep.attempted += p.attempted;
    rep.failed += p.failed;
    // Ladder: climb until a rung misses the limit; interpolate the rate
    // at which the tail latency crosses it.
    double max_rate = 0;
    double prev_rate = 0;
    double prev_tail = 0;
    for (const double rate : kLadderRps) {
      const Phase r = bench.run(rate, kRungSeconds, false);
      const double tail = r.latency.tail() * 1e3;
      const bool backlog = static_cast<double>(r.backlog_end) >
                           rate * kTailLimitMs * 1e-3 + kWorkers;
      const bool pass = r.failed == 0 && tail <= kTailLimitMs && !backlog;
      std::printf("  ladder %6.0f rps: tail %.2f ms (p%d of %zu), backlog %zu%s\n",
                  rate, tail, static_cast<int>(r.latency.tail_q() * 100),
                  r.latency.size(), r.backlog_end, pass ? "" : "  MISS");
      if (!pass) {
        if (prev_rate == 0) {
          max_rate = rate * std::min(1.0, kTailLimitMs / std::max(tail, 1e-9));
        } else {
          const double f = backlog || tail <= prev_tail
                               ? 0.0
                               : (kTailLimitMs - prev_tail) / (tail - prev_tail);
          max_rate = prev_rate + std::clamp(f, 0.0, 1.0) * (rate - prev_rate);
        }
        break;
      }
      max_rate = prev_rate = rate;
      prev_tail = tail;
    }
    rep.set("setup_s", median_of(setups), setups.size(),
            "generate pool + service + 6 resident factors");
    rep.set("time_to_solution_p50_s", p.tts.median(), p.tts.size(),
            "factorize due -> chained solve done");
    rep.set("step_p50_s", p.tts.median(), p.tts.size(),
            "open loop: step = factorize + its chained solve");
    rep.set("factor_gflops", p.factor_s > 0 ? p.flops / p.factor_s * 1e-9 : 0,
            p.factorize.size() + p.refactorize.size(),
            "total_flops / service factorize_s");
    rep.set("req_p50_ms", p.latency.median() * 1e3, p.latency.size(),
            "from due time at the nominal rate");
    rep.set("req_p99_ms", p.latency.tail() * 1e3, p.latency.size(),
            "p" + std::to_string(static_cast<int>(p.latency.tail_q() * 100)));
    rep.set("max_rate_rps", max_rate, 0, "interpolated on the fixed ladder");
    rep.set("throughput_rps", p.done / p.elapsed, p.latency.size(),
            "completed requests per second at the nominal rate");
    rep.set("peak_rss_mb", peak_rss_mb(), 0, "VmHWM");
    return rep;
  }

  // An open loop's throughput is its arrival rate, so tracing overhead
  // shows in latency: the score is the reciprocal of the median latency.
  Phase traced;
  const auto loop = [&](double seconds) {
    traced = bench.run(kNominalRps, seconds, true);
    rep.attempted += traced.attempted;
    rep.failed += traced.failed;
    return 1.0 / traced.latency.median();
  };
  const SpanSummary s = traced_halves(args, loop, rep);
  // Span names of the service request path come from the RequestStats
  // phases below; the benchmark only sees submit -> complete.
  const svc::ServiceStats& a = bench.stats_after();
  const svc::ServiceStats& b = bench.stats_before();
  const double hits = static_cast<double>(a.cache.hits - b.cache.hits);
  const double misses = static_cast<double>(a.cache.misses - b.cache.misses);
  rep.set("service.queue_wait_p50_ms", traced.queue_wait.median() * 1e3,
          traced.queue_wait.size());
  rep.set("service.queue_wait_p99_ms", traced.queue_wait.tail() * 1e3,
          traced.queue_wait.size(),
          "p" + std::to_string(static_cast<int>(traced.queue_wait.tail_q() * 100)));
  rep.set("service.analyze_ms", traced.analyze.median() * 1e3,
          traced.analyze.size(), "cache misses");
  rep.set("service.factorize_ms", traced.factorize.median() * 1e3,
          traced.factorize.size());
  rep.set("service.refactorize_ms", traced.refactorize.median() * 1e3,
          traced.refactorize.size());
  rep.set("service.solve_ms", traced.solve.median() * 1e3, traced.solve.size(),
          "whole coalesced batch");
  rep.set("service.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0,
          static_cast<std::size_t>(hits + misses));
  rep.set("service.cache_evictions",
          static_cast<double>(a.cache.evictions - b.cache.evictions));
  rep.set("service.batch_rhs_mean",
          a.batches > b.batches
              ? static_cast<double>(a.batched_rhs - b.batched_rhs) /
                    static_cast<double>(a.batches - b.batches)
              : 0,
          static_cast<std::size_t>(a.batches - b.batches), "RHS per solve call");
  rep.set("service.fp32_served_frac",
          traced.done > 0 ? traced.fp32 / traced.done : 0);
  double fallbacks = 0;
  for (const auto& [name, t] : a.tenants) {
    fallbacks += static_cast<double>(t.fp64_fallbacks);
    const auto it = b.tenants.find(name);
    if (it != b.tenants.end()) fallbacks -= static_cast<double>(it->second.fp64_fallbacks);
  }
  rep.set("service.fp64_fallbacks", fallbacks);
  rep.set("service.rejected", static_cast<double>(a.rejected - b.rejected));
  rep.set("service.expired", static_cast<double>(a.expired - b.expired));
  rep.set("service.retries", static_cast<double>(a.retries - b.retries));
  rep.set("loadgen.lag_p99_ms", traced.lag.tail() * 1e3, traced.lag.size(),
          "p" + std::to_string(static_cast<int>(traced.lag.tail_q() * 100)));
  rep.set("loadgen.backlog_max", static_cast<double>(traced.backlog_max));
  traced.runtime.report(rep);
  rep.set("core.analyze_s", traced.analyze.median(), traced.analyze.size());
  rep.set("core.factorize_s", traced.factorize.median(), traced.factorize.size());
  rep.set("core.refactorize_s", traced.refactorize.median(),
          traced.refactorize.size());
  rep.set("core.solve1_s", traced.solve.median(), traced.solve.size(),
          "service-reported");
  rep.set("core.backward_error_max", bench.worst_backward_error());
  report_self_time(s, rep);
  std::vector<Problem> problems;
  for (const Pattern& p : bench.pool()) problems.push_back({p.matrix.get(), p.kind});
  const auto analyses = probe_analysis(problems, rep);
  replay_kernels(analyses, problems, rep);
  return rep;
}

}  // namespace pb
