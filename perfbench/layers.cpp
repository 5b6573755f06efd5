#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "graph/graph.hpp"
#include "graph/orderings.hpp"
#include "kernels/dense.hpp"
#include "kernels/scatter.hpp"

namespace pb {

namespace k = spx::kernels;
using spx::Factorization;

std::vector<spx::Analysis> probe_analysis(const std::vector<Problem>& problems,
                                          Report& rep) {
  const spx::AnalysisOptions opts;  // the Solver's defaults
  std::vector<spx::Analysis> out;
  Samples order_s;
  Samples structure_s;
  double flops = 0;
  double nnz_l = 0;
  double panels = 0;
  for (const Problem& p : problems) {
    const spx::Graph g = spx::Graph::from_pattern(*p.matrix);
    double t0 = now_s();
    spx::Ordering ord;
    {
      Span span("graph.order");
      ord = spx::nested_dissection(g, opts.nd);
    }
    order_s.add(now_s() - t0);
    t0 = now_s();
    {
      Span span("symbolic.structure");
      out.push_back(spx::analyze_ordered(g, std::move(ord), opts, 0));
    }
    structure_s.add(now_s() - t0);
    const spx::Analysis& an = out.back();
    flops += an.total_flops(p.kind) * 1e-9;
    nnz_l += static_cast<double>(an.structure.nnz_factor);
    panels += an.structure.num_panels();
  }
  const auto n = static_cast<double>(problems.size());
  rep.set("graph.order_s", order_s.median(), order_s.size(),
          "median nested_dissection per pattern");
  rep.set("symbolic.structure_s", structure_s.median(), structure_s.size(),
          "median analyze_ordered per pattern");
  rep.set("symbolic.flops_g", flops / n, problems.size(),
          "mean total_flops per pattern");
  rep.set("symbolic.nnz_l", nnz_l / n, problems.size(), "mean per pattern");
  rep.set("symbolic.panels", panels / n, problems.size(), "mean per pattern");
  return out;
}

namespace {

struct KernelTotals {
  double gemm_s = 0;
  double gemm_flops = 0;
  double panel_s = 0;
  double panel_flops = 0;
  double scatter_s = 0;
  double scatter_bytes = 0;
};

/// Diagonally dominant panel image: factorizable by every kind.
void fill_panel(std::vector<real_t>& buf, index_t nrows, index_t w) {
  for (index_t j = 0; j < w; ++j) {
    for (index_t i = 0; i < nrows; ++i) {
      buf[static_cast<std::size_t>(j) * nrows + i] =
          i == j ? 4.0 * nrows : 1.0 / (1.0 + i + j);
    }
  }
}

void replay_one(const spx::Analysis& an, Factorization kind, KernelTotals& t) {
  const spx::SymbolicStructure& st = an.structure;
  std::size_t max_entries = 0;
  for (const spx::Panel& p : st.panels) {
    max_entries = std::max(
        max_entries, static_cast<std::size_t>(p.nrows) * p.width());
  }
  std::vector<real_t> panel(max_entries);
  std::vector<real_t> upanel(max_entries);
  std::vector<real_t> src(max_entries, 0.5);
  std::vector<real_t> dst(max_entries, 0.0);
  std::vector<real_t> w_buf(max_entries);
  std::vector<real_t> d(1024, 2.0);

  const auto gemm = [&](index_t m, index_t n, index_t kk, const real_t* a,
                        const real_t* b, index_t ld,
                        const std::vector<k::RowSegment>& segs,
                        const spx::Panel& dp, index_t dst_col) {
    if (m <= 0 || n <= 0) return;
    double t0 = now_s();
    k::gemm_nt(m, n, kk, 1.0, a, ld, b, ld, 0.0, w_buf.data(), m);
    double t1 = now_s();
    k::scatter_sub(segs, n, w_buf.data(), m, dst.data(), dp.nrows, dst_col);
    const double t2 = now_s();
    t.gemm_s += t1 - t0;
    t.gemm_flops += 2.0 * m * n * kk;
    t.scatter_s += t2 - t1;
    double rows = 0;
    for (const k::RowSegment& s : segs) rows += s.len;
    // Read W, read and write the target: computed, not measured, traffic.
    t.scatter_bytes += 3.0 * sizeof(real_t) * rows * n;
  };

  for (index_t p = 0; p < st.num_panels(); ++p) {
    const spx::Panel& sp = st.panels[p];
    const index_t w = sp.width();
    const index_t ld = sp.nrows;
    const index_t below = sp.nrows_below();
    if (d.size() < static_cast<std::size_t>(w)) d.resize(w, 2.0);

    fill_panel(panel, ld, w);
    if (kind == Factorization::LU) fill_panel(upanel, ld, w);
    real_t* diag = panel.data();
    real_t* l21 = panel.data() + w;
    const double t0 = now_s();
    switch (kind) {
      case Factorization::LLT:
        k::potrf(w, diag, ld);
        if (below > 0) {
          k::trsm_right_lower_trans(below, w, diag, ld, l21, ld, false);
        }
        break;
      case Factorization::LDLT:
        k::ldlt(w, diag, ld);
        if (below > 0) {
          k::trsm_right_lower_trans(below, w, diag, ld, l21, ld, true);
          k::scale_cols_inv(below, w, l21, ld, d.data());
        }
        break;
      case Factorization::LU:
        k::getrf_nopiv(w, diag, ld);
        if (below > 0) {
          k::trsm_right_upper(below, w, diag, ld, l21, ld);
          k::trsm_right_lower_trans(below, w, diag, ld, upanel.data() + w, ld,
                                    true);
        }
        break;
    }
    t.panel_s += now_s() - t0;
    t.panel_flops += st.panel_task_flops(p, kind);

    for (const spx::UpdateEdge& e : st.targets[p]) {
      const spx::Panel& dp = st.panels[e.dst];
      if (kind != Factorization::LU) {
        for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
          const spx::Block& blk = sp.blocks[bi];
          const auto segs = k::build_row_segments(sp, blk.offset, dp);
          gemm(ld - blk.offset, blk.height(), w, src.data() + blk.offset,
               src.data() + blk.offset, ld, segs, dp,
               blk.row_begin - dp.col_begin);
        }
        continue;
      }
      const index_t first_off = sp.blocks[e.first_block].offset;
      const index_t last_off =
          e.last_block < static_cast<index_t>(sp.blocks.size())
              ? sp.blocks[e.last_block].offset
              : sp.nrows;
      const auto lsegs = k::build_row_segments(sp, first_off, dp);
      for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
        const spx::Block& blk = sp.blocks[bi];
        gemm(ld - first_off, blk.height(), w, src.data() + first_off,
             src.data() + blk.offset, ld, lsegs, dp,
             blk.row_begin - dp.col_begin);
      }
      if (last_off < sp.nrows) {
        const auto usegs = k::build_row_segments(sp, last_off, dp);
        for (index_t bi = e.first_block; bi < e.last_block; ++bi) {
          const spx::Block& blk = sp.blocks[bi];
          gemm(ld - last_off, blk.height(), w, src.data() + last_off,
               src.data() + blk.offset, ld, usegs, dp,
               blk.row_begin - dp.col_begin);
        }
      }
    }
  }
}

/// Best-of-N rate of a square 256^3 gemm_nt (the in-run kernel peak).
double peak_gemm_gflops() {
  constexpr index_t n = 256;
  std::vector<real_t> a(n * n, 0.5);
  std::vector<real_t> b(n * n, 0.25);
  std::vector<real_t> c(n * n, 0.0);
  double best = INFINITY;
  for (int rep = 0; rep < 12; ++rep) {
    const double t0 = now_s();
    k::gemm_nt(n, n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
    best = std::min(best, now_s() - t0);
  }
  return 2.0 * n * n * n / best * 1e-9;
}

}  // namespace

void replay_kernels(const std::vector<spx::Analysis>& analyses,
                    const std::vector<Problem>& problems, Report& rep) {
  KernelTotals t;
  {
    Span span("kernels.replay");
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      replay_one(analyses[i], problems[i].kind, t);
    }
  }
  double peak = 0;
  {
    Span span("kernels.peak");
    peak = peak_gemm_gflops();
  }
  const auto n = static_cast<double>(analyses.size());
  const double gemm_rate = t.gemm_s > 0 ? t.gemm_flops / t.gemm_s * 1e-9 : 0;
  rep.set("kernels.gemm_s", t.gemm_s / n, analyses.size(),
          "gemm_nt seconds per pattern, replayed on 1 thread");
  rep.set("kernels.panel_s", t.panel_s / n, analyses.size(),
          "panel factor + TRSM seconds per pattern");
  rep.set("kernels.scatter_s", t.scatter_s / n, analyses.size(),
          "scatter_sub seconds per pattern");
  rep.set("kernels.gemm_gflops", gemm_rate, 0, "at the update shapes");
  rep.set("kernels.panel_gflops",
          t.panel_s > 0 ? t.panel_flops / t.panel_s * 1e-9 : 0);
  rep.set("kernels.scatter_gbps",
          t.scatter_s > 0 ? t.scatter_bytes / t.scatter_s * 1e-9 : 0, 0,
          "bytes computed from shapes, not measured traffic");
  rep.set("kernels.peak_gemm_gflops", peak, 12, "best 256^3 gemm_nt");
  rep.set("kernels.gemm_frac_of_peak", peak > 0 ? gemm_rate / peak : 0);
}

void RuntimeTotals::add(const spx::RunStats& st) {
  makespan.add(st.makespan);
  busy.add(st.busy_fraction());
  idle_share.add(st.contention.idle_share(st.makespan));
  lock_share.add(st.contention.lock_wait_share(st.makespan));
  steals.add(static_cast<double>(st.contention.total_steals()));
  tasks.add(static_cast<double>(st.tasks_cpu + st.tasks_gpu));
}

void RuntimeTotals::report(Report& rep) const {
  const std::size_t n = makespan.size();
  rep.set("runtime.makespan_s", makespan.median(), n, "median per factorize");
  rep.set("runtime.busy_frac", busy.mean(), n, "mean");
  rep.set("runtime.idle_share", idle_share.mean(), n, "mean");
  rep.set("runtime.lock_wait_share", lock_share.mean(), n, "mean");
  rep.set("runtime.steals", steals.mean(), n, "mean per factorize");
  rep.set("runtime.tasks", tasks.mean(), n, "mean per factorize");
}

void probe_sequential(const Problem& p, double parallel_s, int threads,
                      Report& rep) {
  spx::SolverOptions opts;
  opts.runtime = spx::RuntimeKind::Sequential;
  spx::Solver<real_t> solver(opts);
  solver.analyze(*p.matrix);
  const double t0 = now_s();
  {
    Span span("runtime.seq_factorize");
    solver.factorize(*p.matrix, p.kind);
  }
  const double seq = now_s() - t0;
  rep.set("runtime.seq_factorize_s", seq, 1,
          "Sequential runtime, same problem");
  rep.set("runtime.parallel_efficiency",
          parallel_s > 0 ? seq / (parallel_s * threads) : 0, 0,
          "seq / (threads x factorize)");
}

void report_self_time(const SpanSummary& s, Report& rep) {
  rep.set("obs.spans", static_cast<double>(s.spans));
  for (const char* layer : {"loadgen", "core", "service", "net"}) {
    rep.set(std::string(layer) + ".self_frac", s.self_frac(layer), 0,
            "share of all span self time");
  }
}

void fill_missing(const std::vector<MetricDef>& defs, Report& rep) {
  std::set<std::string> have;
  for (const Metric& m : rep.metrics) have.insert(m.name);
  for (const MetricDef& d : defs) {
    if (have.count(d.name) == 0) rep.set(d.name, 0, 0, "layer not exercised");
  }
}

}  // namespace pb
