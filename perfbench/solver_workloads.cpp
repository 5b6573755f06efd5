// The two closed-loop library workloads, one caller each, driving
// spx::Solver<double> on the Native runtime with 4 threads.
//
//   oneshot3d   ladder passes over fresh systems: grid3d 32^3 LL^T,
//               grid3d 28^3 LDL^T, convection_diffusion3d 28^3 LU; each
//               system is analyze -> factorize -> solve(1 RHS).
//   timestep2d  grid2d 400^2 analyzed and factorized during set-up; each
//               step refactorizes drifted values, then solves 16 RHS in
//               one solve_multi and 8 single RHS against the same factor.
#include <fstream>

#include "layers.hpp"
#include "mat/generators.hpp"
#include "obs/export.hpp"
#include "workloads.hpp"

namespace pb {

using spx::Factorization;

namespace {

constexpr int kThreads = 4;

spx::SolverOptions solver_options() {
  spx::SolverOptions o;
  o.runtime = spx::RuntimeKind::Native;
  o.num_threads = kThreads;
  return o;
}

/// Checks every column of a (possibly multi-RHS) solve.
void check_solution(const Matrix& a, const std::vector<real_t>& x,
                    const std::vector<real_t>& b, index_t nrhs, Report& rep,
                    double& worst) {
  Span span("loadgen.check");
  const auto n = static_cast<std::size_t>(a.nrows());
  for (index_t c = 0; c < nrhs; ++c) {
    const std::span<const real_t> xc(x.data() + c * n, n);
    const std::span<const real_t> bc(b.data() + c * n, n);
    const double be = backward_error(a, xc, bc);
    worst = std::max(worst, be);
    if (!(be <= kMaxBackwardError)) {
      rep.wrong("backward error " + std::to_string(be));
    }
  }
}

}  // namespace

SpanSummary traced_halves(const Args& args,
                          const std::function<double(double)>& loop,
                          Report& rep) {
  const double untraced = loop(args.seconds / 2);
  spx::obs::Tracer tr;
  set_tracer(&tr);
  const double traced = loop(args.seconds / 2);
  set_tracer(nullptr);
  rep.set("obs.trace_overhead_frac",
          traced > 0 ? untraced / traced - 1.0 : 0, 2,
          "untraced / traced score - 1");
  const auto spans = tr.snapshot();
  const std::string path =
      args.out_dir + "/trace-" + args.workload + ".json";
  std::ofstream out(path);
  spx::obs::write_chrome_trace(spans, out);
  std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.size());
  return summarize_spans(spans);
}

// ---- oneshot3d --------------------------------------------------------

Report run_oneshot3d(const Args& args) {
  Report rep;
  spx::Rng rng(args.seed);
  struct Rung {
    Matrix base;
    Factorization kind;
  };
  std::vector<Rung> ladder;
  std::vector<double> setups;

  // One system: fresh solver, analyze -> factorize -> solve.  Returns the
  // wall time of the three calls; accumulates factorization flops/time.
  double flops = 0;
  double factor_s = 0;
  double worst_be = 0;
  RuntimeTotals runtime;
  Samples system_s;
  Samples pass_s;
  std::uint64_t req_id = 0;
  const auto solve_system = [&](const Rung& r, bool count) {
    const Matrix a = drift(r.base, rng, 1.0);
    const std::vector<real_t> b = make_rhs(a.nrows(), 1, rng);
    std::vector<real_t> x = b;
    const auto id = static_cast<std::int64_t>(++req_id);
    const double t0 = now_s();
    double tf = 0;
    {
      Span req("loadgen.system", id);
      spx::Solver<real_t> solver(solver_options());
      {
        Span s("core.analyze", id);
        solver.analyze(a);
      }
      const double f0 = now_s();
      {
        Span s("core.factorize", id);
        solver.factorize(a, r.kind);
      }
      tf = now_s() - f0;
      {
        Span s("core.solve", id);
        solver.solve(x);
      }
      if (count) {
        flops += solver.analysis().total_flops(r.kind);
        factor_s += tf;
        runtime.add(solver.last_factorization_stats());
      }
    }
    const double dt = now_s() - t0;
    if (count) {
      ++rep.attempted;
      check_solution(a, x, b, 1, rep, worst_be);
    }
    return std::pair{dt, tf};
  };

  const int reps = args.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    ladder.clear();  // tearing down the previous repetition is not set-up
    const double t0 = now_s();
    {
      Span s("mat.generate");
      ladder.push_back({spx::gen::grid3d_laplacian(32, 32, 32),
                        Factorization::LLT});
      ladder.push_back({spx::gen::grid3d_laplacian(28, 28, 28),
                        Factorization::LDLT});
      ladder.push_back({spx::gen::convection_diffusion3d(28, 28, 28),
                        Factorization::LU});
    }
    for (const Rung& r : ladder) solve_system(r, false);  // warm-up pass
    setups.push_back(now_s() - t0);
  }

  double last_factorize_32 = 0;
  // Closed loop: whole ladder passes until the time is up.
  const auto loop = [&](double seconds) {
    flops = factor_s = 0;
    runtime = {};
    system_s = {};
    pass_s = {};
    const double start = now_s();
    while (pass_s.empty() || now_s() - start < seconds) {
      Span pass("loadgen.pass");
      double total = 0;
      for (const Rung& r : ladder) {
        const auto [dt, tf] = solve_system(r, true);
        system_s.add(dt);
        total += dt;
        if (&r == &ladder.front()) last_factorize_32 = tf;
      }
      pass_s.add(total);
    }
    return static_cast<double>(system_s.size()) / (now_s() - start);
  };

  if (!args.trace) {
    loop(args.seconds);
    rep.set("setup_s", median_of(setups), setups.size(),
            "generate + one warm-up pass");
    rep.set("time_to_solution_p50_s", pass_s.median(), pass_s.size(),
            "ladder pass: 3 x (analyze + factorize + solve)");
    rep.set("step_p50_s", pass_s.median(), pass_s.size(),
            "loop iteration = ladder pass");
    rep.set("factor_gflops", factor_s > 0 ? flops / factor_s * 1e-9 : 0,
            system_s.size(), "total_flops / factorize wall time");
    rep.set("req_p50_ms", system_s.median() * 1e3, system_s.size(),
            "request = one system");
    rep.set("req_p99_ms", system_s.tail() * 1e3, system_s.size(),
            "p" + std::to_string(static_cast<int>(system_s.tail_q() * 100)));
    const double thr = static_cast<double>(system_s.size()) / pass_s.sum();
    rep.set("throughput_rps", thr, system_s.size(), "systems per second");
    rep.set("max_rate_rps", thr, system_s.size(),
            "closed loop: the rate the caller sustains");
    rep.set("peak_rss_mb", peak_rss_mb(), 0, "VmHWM");
    return rep;
  }

  const SpanSummary s = traced_halves(args, loop, rep);
  runtime.report(rep);
  rep.set("core.analyze_s", s.median("core.analyze"));
  rep.set("core.factorize_s", s.median("core.factorize"));
  rep.set("core.solve1_s", s.median("core.solve"));
  rep.set("core.backward_error_max", worst_be);
  rep.set("core.factorize_frac",
          s.total("core.factorize") / s.total("loadgen.pass"), 0,
          "factorize share of a ladder pass");
  rep.set("core.solve_frac", s.total("core.solve") / s.total("loadgen.pass"),
          0, "solve share of a ladder pass");
  report_self_time(s, rep);
  std::vector<Problem> problems;
  for (const Rung& r : ladder) problems.push_back({&r.base, r.kind});
  const auto analyses = probe_analysis(problems, rep);
  replay_kernels(analyses, problems, rep);
  probe_sequential(problems.front(), last_factorize_32, kThreads, rep);
  return rep;
}

// ---- timestep2d -------------------------------------------------------

Report run_timestep2d(const Args& args) {
  Report rep;
  spx::Rng rng(args.seed);
  constexpr index_t kGrid = 400;
  constexpr index_t kMulti = 16;
  constexpr int kSingles = 8;
  Matrix base;
  std::unique_ptr<spx::Solver<real_t>> solver;
  std::vector<double> setups;
  double first_factorize_s = 0;

  const int reps = args.trace ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    solver.reset();  // tearing down the previous repetition is not set-up
    const double t0 = now_s();
    {
      Span s("mat.generate");
      base = spx::gen::grid2d_laplacian(kGrid, kGrid);
    }
    solver = std::make_unique<spx::Solver<real_t>>(solver_options());
    solver->analyze(base);
    const double f0 = now_s();
    solver->factorize(base, Factorization::LLT);
    first_factorize_s = now_s() - f0;
    setups.push_back(now_s() - t0);
  }
  const double step_flops = solver->analysis().total_flops(Factorization::LLT);

  double flops = 0;
  double factor_s = 0;
  double worst_be = 0;
  double refine_iters = 0;
  RuntimeTotals runtime;
  Samples step_s;
  Samples tts_s;
  std::uint64_t step_id = 0;
  const auto loop = [&](double seconds) {
    flops = factor_s = 0;
    runtime = {};
    step_s = {};
    tts_s = {};
    const double start = now_s();
    while (step_s.empty() || now_s() - start < seconds) {
      const auto id = static_cast<std::int64_t>(++step_id);
      const Matrix a = drift(base, rng, 1.0);
      const std::vector<real_t> bm = make_rhs(a.nrows(), kMulti, rng);
      std::vector<std::vector<real_t>> bs;
      for (int k = 0; k < kSingles; ++k) bs.push_back(make_rhs(a.nrows(), 1, rng));
      std::vector<real_t> xm = bm;
      std::vector<std::vector<real_t>> xs = bs;
      double t_multi_done = 0;
      const double t0 = now_s();
      {
        Span step("loadgen.step", id);
        {
          Span s("core.refactorize", id);
          solver->refactorize(a);
        }
        const double tf = now_s() - t0;
        flops += step_flops;
        factor_s += tf;
        runtime.add(solver->last_factorization_stats());
        {
          Span s("core.solve_multi", id);
          refine_iters += solver->solve_multi(xm, kMulti).refine_iterations;
        }
        t_multi_done = now_s();
        for (auto& x : xs) {
          Span s("core.solve", id);
          refine_iters += solver->solve(x).refine_iterations;
        }
      }
      const double t1 = now_s();
      step_s.add(t1 - t0);
      tts_s.add(t_multi_done - t0);
      rep.attempted += 1 + kMulti + kSingles;
      check_solution(a, xm, bm, kMulti, rep, worst_be);
      for (int k = 0; k < kSingles; ++k) {
        check_solution(a, xs[k], bs[k], 1, rep, worst_be);
      }
    }
    return static_cast<double>(step_s.size()) / (now_s() - start);
  };

  if (!args.trace) {
    loop(args.seconds);
    rep.set("setup_s", median_of(setups), setups.size(),
            "generate + analyze + factorize");
    rep.set("time_to_solution_p50_s", tts_s.median(), tts_s.size(),
            "refactorize + 16-RHS solve_multi");
    rep.set("step_p50_s", step_s.median(), step_s.size(),
            "refactorize + solve_multi(16) + 8 solves");
    rep.set("factor_gflops", factor_s > 0 ? flops / factor_s * 1e-9 : 0,
            step_s.size(), "total_flops / refactorize wall time");
    rep.set("req_p50_ms", step_s.median() * 1e3, step_s.size(),
            "request = one step");
    rep.set("req_p99_ms", step_s.tail() * 1e3, step_s.size(),
            "p" + std::to_string(static_cast<int>(step_s.tail_q() * 100)));
    const double thr = static_cast<double>(step_s.size()) / step_s.sum();
    rep.set("throughput_rps", thr, step_s.size(), "steps per second");
    rep.set("max_rate_rps", thr, step_s.size(),
            "closed loop: the rate the caller sustains");
    rep.set("peak_rss_mb", peak_rss_mb(), 0, "VmHWM");
    return rep;
  }

  const SpanSummary s = traced_halves(args, loop, rep);
  runtime.report(rep);
  rep.set("core.factorize_s", first_factorize_s, 1, "set-up factorize");
  rep.set("core.refactorize_s", s.median("core.refactorize"));
  rep.set("core.solve1_s", s.median("core.solve"));
  rep.set("core.solve16_s", s.median("core.solve_multi"));
  const double solve_total = s.total("core.solve") + s.total("core.solve_multi");
  const double rhs = static_cast<double>(step_s.size()) * (kMulti + kSingles);
  rep.set("core.solve_rhs_per_s", solve_total > 0 ? rhs / solve_total : 0);
  rep.set("core.backward_error_max", worst_be);
  rep.set("core.refine_iters", refine_iters);
  rep.set("core.factorize_frac",
          s.total("core.refactorize") / s.total("loadgen.step"), 0,
          "refactorize share of a step");
  rep.set("core.solve_frac", solve_total / s.total("loadgen.step"), 0,
          "solve share of a step");
  report_self_time(s, rep);
  const std::vector<Problem> problems = {{&base, Factorization::LLT}};
  const auto analyses = probe_analysis(problems, rep);
  replay_kernels(analyses, problems, rep);
  probe_sequential(problems.front(), first_factorize_s, kThreads, rep);
  return rep;
}

}  // namespace pb
