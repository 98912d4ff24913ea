#pragma once
// Shared experiment-harness plumbing for the per-table bench binaries.
//
// Scaling: benches default to reduced-scale testcases so the whole harness
// finishes on one core in minutes (DESIGN.md §4). Environment overrides:
//   MTH_SCALE=<float>   cell-count scale (default 0.04)
//   MTH_FULL_SCALE=1    paper-sized instances (scale 1.0; hours of runtime)
//   MTH_CASES=<int>     limit the number of testcases (default: all)
//   MTH_ILP_SECONDS=<float>  per-RAP ILP deadline (default 10)

#include <cstdlib>
#include <string>
#include <vector>

#include "mth/flows/flow.hpp"
#include "mth/synth/testcases.hpp"

namespace mth::bench {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atof(v) : fallback;
}

inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

inline double bench_scale() {
  if (env_int("MTH_FULL_SCALE", 0) != 0) return 1.0;
  return env_double("MTH_SCALE", 0.04);
}

inline flows::FlowOptions bench_options() {
  flows::FlowOptions opt;
  opt.scale = bench_scale();
  opt.rap.ilp.time_limit_s = env_double("MTH_ILP_SECONDS", 10.0);
  return opt;
}

/// Table II specs limited by MTH_CASES.
inline std::vector<synth::TestcaseSpec> bench_specs() {
  std::vector<synth::TestcaseSpec> specs = synth::table2_specs();
  const int limit = env_int("MTH_CASES", static_cast<int>(specs.size()));
  if (limit > 0 && limit < static_cast<int>(specs.size())) specs.resize(static_cast<std::size_t>(limit));
  return specs;
}

/// 0-1 normalization per the paper's Fig. 4 methodology: scale a series so
/// its minimum maps to 0 and maximum to 1 (constant series map to 0).
inline std::vector<double> normalize01(const std::vector<double>& v) {
  double lo = 1e300, hi = -1e300;
  for (double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::vector<double> out(v.size(), 0.0);
  if (hi > lo) {
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - lo) / (hi - lo);
  }
  return out;
}

/// Geometric-mean style normalized ratio row (paper tables normalize to one
/// flow by averaging per-testcase ratios).
inline double mean_ratio(const std::vector<double>& value,
                         const std::vector<double>& reference) {
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < value.size() && i < reference.size(); ++i) {
    if (reference[i] > 0.0) {
      s += value[i] / reference[i];
      ++n;
    }
  }
  return n > 0 ? s / static_cast<double>(n) : 0.0;
}

/// One serial-vs-parallel measurement of the RAP hot phases on a testcase.
struct ParallelRecord {
  double serial_cost_s = 0.0;    ///< cost-matrix build, num_threads = 1
  double parallel_cost_s = 0.0;  ///< cost-matrix build, num_threads = threads
  double serial_cluster_s = 0.0;
  double parallel_cluster_s = 0.0;
  bool identical = false;  ///< bit-identical RapResult across thread counts
  /// Either solve stopped on the ILP wall-clock deadline (status != Optimal).
  /// The incumbent then depends on elapsed time, not thread count, so
  /// `identical` is not a determinism statement for this record.
  bool deadline_limited = false;
};

inline double speedup(double serial_s, double parallel_s) {
  return parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
}

/// Solve the RAP twice (1 thread, then `threads`), fill a ParallelRecord and
/// return the parallel run's result. `identical` compares the full solver
/// output (assignment, clustering, objective) bit-for-bit.
inline rap::RapResult measure_parallel_rap(const flows::PreparedCase& pc,
                                           rap::RapOptions ro, int threads,
                                           ParallelRecord& rec) {
  ro.ctx.exec.num_threads = 1;
  const rap::RapResult serial = rap::solve_rap(pc.initial, ro);
  ro.ctx.exec.num_threads = threads;
  const rap::RapResult parallel = rap::solve_rap(pc.initial, ro);
  rec.serial_cost_s = serial.cost_seconds;
  rec.parallel_cost_s = parallel.cost_seconds;
  rec.serial_cluster_s = serial.cluster_seconds;
  rec.parallel_cluster_s = parallel.cluster_seconds;
  rec.identical =
      serial.assignment.pair_is_minority ==
          parallel.assignment.pair_is_minority &&
      serial.cluster_of == parallel.cluster_of &&
      serial.cluster_pair == parallel.cluster_pair &&
      serial.objective == parallel.objective;
  rec.deadline_limited = serial.status != ilp::Status::Optimal ||
                         parallel.status != ilp::Status::Optimal;
  return parallel;
}

inline std::string scale_banner() {
  return "scale=" + std::to_string(bench_scale()) +
         " (set MTH_FULL_SCALE=1 for paper-sized runs; MTH_SCALE / MTH_CASES /"
         " MTH_ILP_SECONDS to tune)";
}

}  // namespace mth::bench
