// Experiment F5 — paper Fig. 5: ILP runtime of Flow (5) plotted against the
// number of minority instances, with a least-squares linear fit (the paper
// reports "a strong linear correlation").
//
// Each point is solved three ways:
//   dense-cold   max_cand_rows=0, warm_basis=false — the exact formulation
//                with a cold two-phase simplex at every node (P2 baseline);
//   sparse-warm  defaults — candidate-row pruning + warm-basis dual-simplex
//                re-solves, run serially (1 thread) and with MTH_THREADS
//                workers and checked bit-identical across thread counts.
// The table reports both, the objective deviation sparse-vs-dense is checked
// against MTH_SPARSE_GAP (default 2x the ILP rel_gap; skipped when either run
// stopped on the deadline rather than proving its gap), and the process exits
// nonzero on a violation — tools/perf_smoke.sh relies on that exit code.

#include <cmath>
#include <iostream>

#include "common.hpp"
#include "mth/rap/rap.hpp"
#include "mth/report/table.hpp"
#include "mth/util/log.hpp"
#include "mth/util/str.hpp"
#include "mth/util/threadpool.hpp"

int main() {
  using namespace mth;
  set_log_level(LogLevel::Warn);
  std::cout << "=== Fig. 5: ILP runtime of Flow (5) vs # minority instances"
               " ===\n"
            << bench::scale_banner() << "\n\n";

  flows::FlowOptions opt = bench::bench_options();
  // Scaling is about time-to-solution; use a CPLEX-like practical gap and a
  // deadline high enough that most points terminate on their own.
  opt.rap.ilp.rel_gap = bench::env_double("MTH_ILP_GAP", 0.02);
  opt.rap.ilp.time_limit_s = bench::env_double("MTH_ILP_SECONDS", 30.0);
  const double sparse_gap =
      bench::env_double("MTH_SPARSE_GAP", 2.0 * opt.rap.ilp.rel_gap);
  const int threads = mth::util::default_num_threads();
  report::Table t({"Testcase", "minority insts", "clusters", "ILP status",
                   "RAP runtime (s)", "dense (s)", "LP iters d/s",
                   "basis hits", "cost 1T (s)",
                   "cost " + std::to_string(threads) + "T (s)", "speedup"});

  std::vector<double> xs, ys;
  long long total_dense_iters = 0, total_sparse_iters = 0;
  bool all_dev_ok = true;
  for (const synth::TestcaseSpec& spec : bench::bench_specs()) {
    std::cerr << "[fig5] " << spec.short_name << "...\n";
    const flows::PreparedCase pc = flows::prepare_case(spec, opt);
    rap::RapOptions ro = opt.rap;
    ro.n_min_pairs = pc.n_min_pairs;
    ro.width_library = pc.original_library.get();

    // Dense-cold baseline: exact candidate set, cold two-phase LP per node.
    rap::RapOptions dense_ro = ro;
    dense_ro.max_cand_rows = 0;
    dense_ro.ilp.warm_basis = false;
    dense_ro.ctx.exec.num_threads = threads;
    const rap::RapResult dense = rap::solve_rap(pc.initial, dense_ro);
    const double dense_s =
        dense.cluster_seconds + dense.cost_seconds + dense.ilp_seconds;

    // Sparse-warm (defaults), with the 1-vs-N-thread bit-identical check.
    bench::ParallelRecord rec;
    const rap::RapResult r = bench::measure_parallel_rap(pc, ro, threads, rec);
    const double rap_s = r.cluster_seconds + r.cost_seconds + r.ilp_seconds;

    // Objective-quality gate: when both runs prove their gap, the pruned
    // objective may exceed the dense one by at most sparse_gap (relative).
    // Deadline-limited runs carry incumbents of unknown quality — skip.
    if (dense.status == ilp::Status::Optimal &&
        r.status == ilp::Status::Optimal) {
      const double denom =
          std::abs(dense.objective) > 1e-12 ? std::abs(dense.objective) : 1.0;
      const double rel_dev = (r.objective - dense.objective) / denom;
      if (!(rel_dev <= sparse_gap)) {
        std::cerr << "[fig5] FAIL " << spec.short_name
                  << ": sparse objective deviates " << rel_dev
                  << " > allowed " << sparse_gap << " (dense " << dense.objective
                  << ", sparse " << r.objective << ")\n";
        all_dev_ok = false;
      }
    }
    total_dense_iters += dense.lp_iterations;
    total_sparse_iters += r.lp_iterations;

    xs.push_back(static_cast<double>(pc.minority_cells));
    ys.push_back(rap_s);
    t.add_row({spec.short_name, format_count(pc.minority_cells),
               format_count(r.num_clusters), ilp::to_string(r.status),
               format_fixed(rap_s, 2), format_fixed(dense_s, 2),
               format_count(dense.lp_iterations) + "/" +
                   format_count(r.lp_iterations),
               format_count(r.basis_reuse_hits),
               format_fixed(rec.serial_cost_s, 3),
               format_fixed(rec.parallel_cost_s, 3),
               format_fixed(
                   bench::speedup(rec.serial_cost_s, rec.parallel_cost_s), 2)});
  }
  t.print(std::cout);
  std::cout << "\nSparse+warm vs dense+cold: total LP iterations "
            << total_sparse_iters << " vs " << total_dense_iters << " ("
            << (total_sparse_iters > 0
                    ? format_fixed(static_cast<double>(total_dense_iters) /
                                       static_cast<double>(total_sparse_iters),
                                   2)
                    : std::string("inf"))
            << "x reduction), objective window " << sparse_gap << " "
            << (all_dev_ok ? "respected" : "VIOLATED") << "\n\n";

  // Least-squares fit y = a + b x with Pearson correlation.
  const std::size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double dn = static_cast<double>(n);
  const double cov = sxy - sx * sy / dn;
  const double varx = sxx - sx * sx / dn;
  const double vary = syy - sy * sy / dn;
  const double b = varx > 0 ? cov / varx : 0.0;
  const double a = (sy - b * sx) / dn;
  const double r2 = (varx > 0 && vary > 0) ? (cov * cov) / (varx * vary) : 0.0;

  std::cout << "\nLine of best fit: runtime(s) = " << format_fixed(a, 3)
            << " + " << format_fixed(b * 1000.0, 3)
            << "e-3 * N_minC   (R^2 = " << format_fixed(r2, 3) << ")\n";
  std::cout << "Paper claim: strong linear correlation of ILP runtime with"
               " minority instance count (their Fig. 5 line of best fit).\n";
  std::cout << "Note: runs that hit the ILP deadline (status 'feasible') sit"
               " at the configured MTH_ILP_SECONDS ceiling, flattening the"
               " upper tail.\n";
  return all_dev_ok ? 0 : 1;
}
