// Experiment A3 — paper §IV-B-3: Flow (5) runtime profile by testcase size
// class. The paper reports, for small/medium/large minority-instance sets,
// RAP share of 4.95% / 30.57% / 72.60% and legalization share of 95.04% /
// 69.41% / 27.37%.
//
// Also measures the deterministic parallel layer on the RAP hot phases
// (cost-matrix build + k-means): each testcase is solved at 1 thread and at
// MTH_THREADS (default: hardware concurrency), the speedups are tabulated
// and results are checked bit-identical.
//
// Exits nonzero when tracing costs more than its 2% budget (see
// measure_trace_overhead).

#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "mth/report/table.hpp"
#include "mth/trace/collector.hpp"
#include "mth/util/log.hpp"
#include "mth/util/str.hpp"
#include "mth/util/threadpool.hpp"
#include "mth/util/timer.hpp"

namespace {

/// Trace-overhead proof: the same RAP solve, dark vs with a Collector
/// installed, min-of-N on the deterministic hot phases (clustering +
/// cost-matrix build — dense span/counter traffic, no ILP-deadline noise).
/// Also prices a dark instrumentation site directly. Returns false when the
/// traced hot phases cost more than the 2% budget over the dark ones.
bool measure_trace_overhead(const mth::synth::TestcaseSpec& spec,
                            mth::flows::FlowOptions opt) {
  using namespace mth;
  // Span traffic is bounded by the fixed chunk geometry while useful work
  // grows with instance size, so at the reduced default bench scale the
  // fixed per-span collection cost dwarfs the sub-millisecond hot phases and
  // the ratio says nothing about real runs. Measure at paper scale (on the
  // smallest testcase) regardless of MTH_SCALE so chunks amortize the span
  // cost the way production runs do.
  opt.scale = std::max(bench::bench_scale(),
                       bench::env_double("MTH_TRACE_OVERHEAD_SCALE", 1.0));
  const flows::PreparedCase pc = flows::prepare_case(spec, opt);
  rap::RapOptions ro = opt.rap;
  ro.n_min_pairs = pc.n_min_pairs;
  ro.width_library = pc.original_library.get();
  // The gate reads only cluster_seconds + cost_seconds; a short deadline
  // keeps the (untimed) ILP tail of each repeat cheap.
  ro.ilp.time_limit_s = 0.5;
  const int repeats = bench::env_int("MTH_TRACE_OVERHEAD_REPEATS", 5);

  auto hot_phases_s = [&](trace::Sink* sink) {
    ro.ctx.sink = sink;
    double best = 1e300;
    for (int i = 0; i < repeats; ++i) {
      const rap::RapResult r = rap::solve_rap(pc.initial, ro);
      best = std::min(best, r.cluster_seconds + r.cost_seconds);
    }
    return best;
  };

  const double dark_s = hot_phases_s(nullptr);
  trace::Collector collector;
  const double traced_s = hot_phases_s(&collector);
  const double overhead_pct =
      dark_s > 0.0 ? 100.0 * (traced_s - dark_s) / dark_s : 0.0;

  // Per-site cost when no sink is installed (the "~0% when dark" claim):
  // one relaxed atomic load per MTH_SPAN / MTH_COUNT.
  const int kDarkSites = 10'000'000;
  WallTimer dark_timer;
  for (int i = 0; i < kDarkSites; ++i) {
    MTH_SPAN("bench/dark_site");
    MTH_COUNT("bench/dark_site_counter", 1);
  }
  const double dark_site_ns = dark_timer.seconds() * 1e9 / kDarkSites;

  const double budget_pct = 2.0;
  std::cout << "\n=== Trace overhead (sink installed vs dark) ===\n"
            << "hot phases: dark " << format_fixed(dark_s, 4) << "s, traced "
            << format_fixed(traced_s, 4) << "s -> "
            << format_fixed(overhead_pct, 2) << "% (budget "
            << format_fixed(budget_pct, 1) << "%); dark site "
            << format_fixed(dark_site_ns, 2) << " ns\n";
  if (!(overhead_pct <= budget_pct)) {
    std::cerr << "[profile] FAIL: trace overhead "
              << format_fixed(overhead_pct, 2) << "% > budget "
              << format_fixed(budget_pct, 1) << "%\n";
    return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace mth;
  set_log_level(LogLevel::Warn);
  std::cout << "=== §IV-B-3: Flow (5) runtime profile (RAP vs legalization)"
               " by size class ===\n"
            << bench::scale_banner() << "\n\n";

  const flows::FlowOptions opt = bench::bench_options();
  const int threads = mth::util::default_num_threads();
  double rap_share[3] = {}, legal_share[3] = {};
  int count[3] = {};

  report::Table detail({"Testcase", "class", "RAP (s)", "legalization (s)",
                        "RAP %", "legal %"});
  report::Table par_table({"Testcase", "cost 1T (s)",
                           "cost " + std::to_string(threads) + "T (s)",
                           "speedup", "kmeans speedup", "bit-identical"});
  for (const synth::TestcaseSpec& spec : bench::bench_specs()) {
    std::cerr << "[profile] " << spec.short_name << "...\n";
    const flows::PreparedCase pc = flows::prepare_case(spec, opt);
    const flows::FlowResult r = flows::run_flow(pc, flows::FlowId::F5, opt, false, false).result;
    const double rap_s = r.assign_seconds;
    const double legal_s = r.legal_seconds;
    const double total = rap_s + legal_s;
    if (total <= 0) continue;
    const int cls = static_cast<int>(synth::size_class_of(spec));
    rap_share[cls] += rap_s / total;
    legal_share[cls] += legal_s / total;
    ++count[cls];
    const char* cname[] = {"small", "medium", "large"};
    detail.add_row({spec.short_name, cname[cls], format_fixed(rap_s, 2),
                    format_fixed(legal_s, 2),
                    format_fixed(100.0 * rap_s / total, 1),
                    format_fixed(100.0 * legal_s / total, 1)});

    // Serial-vs-parallel split of the RAP hot phases. A short ILP budget
    // keeps the extra solves cheap — cost/cluster timings don't depend on it.
    rap::RapOptions ro = opt.rap;
    ro.n_min_pairs = pc.n_min_pairs;
    ro.width_library = pc.original_library.get();
    ro.ilp.time_limit_s = bench::env_double("MTH_PARALLEL_ILP_SECONDS", 3.0);
    bench::ParallelRecord rec;
    bench::measure_parallel_rap(pc, ro, threads, rec);
    par_table.add_row(
        {spec.short_name, format_fixed(rec.serial_cost_s, 3),
         format_fixed(rec.parallel_cost_s, 3),
         format_fixed(bench::speedup(rec.serial_cost_s, rec.parallel_cost_s), 2),
         format_fixed(
             bench::speedup(rec.serial_cluster_s, rec.parallel_cluster_s), 2),
         rec.identical          ? "yes"
         : rec.deadline_limited ? "n/a (ILP deadline)"
                                : "NO"});
  }
  detail.print(std::cout);

  std::cout << "\n=== Parallel layer: RAP hot phases, 1 thread vs "
            << threads << " (MTH_THREADS) ===\n";
  par_table.print(std::cout);
  const bool overhead_ok =
      measure_trace_overhead(bench::bench_specs().front(), opt);

  report::Table t({"Set", "testcases", "RAP share", "legalization share"});
  const char* cname[] = {"small (<3000 minority)", "medium (3000-5000)",
                         "large (>5000)"};
  for (int c = 0; c < 3; ++c) {
    if (count[c] == 0) continue;
    t.add_row({cname[c], std::to_string(count[c]),
               format_fixed(100.0 * rap_share[c] / count[c], 2) + "%",
               format_fixed(100.0 * legal_share[c] / count[c], 2) + "%"});
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nPaper: RAP share grows with minority count (4.95% -> 30.57%"
               " -> 72.60%), legalization share shrinks correspondingly."
               " Size classes use the paper's full-scale thresholds, so at"
               " reduced bench scale the absolute shares shift but the"
               " monotone trend must hold.\n";
  return overhead_ok ? 0 : 1;
}
