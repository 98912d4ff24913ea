// Experiment P5 — windowed/sharded RAP at 10-100x the reduced bench scale.
//
// For each testcase the RAP is solved three ways on identical prepared input:
//   whole      rap::solve_rap — one monolithic branch & bound (baseline);
//   sharded    rap::solve_rap_sharded with MTH_SHARDS bands (0 = auto-size)
//              plus boundary-window repair, solved twice (1 thread, then
//              MTH_THREADS workers) and checked bit-identical;
//   batch-B&B  whole-design solve again with ilp.node_batch = MTH_NODE_BATCH
//              so the deterministic batch-parallel node loop is exercised.
// The sharded objective must stay within MTH_SHARD_GAP (default 0.15 — the
// certifier's root integrality window) of the whole-design objective, and the
// merged result is certified through verify::certify_rap's per-band
// aggregation path. The process exits nonzero when the window, the
// bit-identity check or the certification fails, when MTH_SHARDS > 1 and a
// case ran with at most one band, when no case ran, or when the
// sharded-vs-whole wall-clock speedup falls below MTH_SHARD_MIN_SPEEDUP
// (default 0 = report only; the committed EXPERIMENTS run gates at 3).
//
// Why sharding wins wall-clock even on one core: the B&B tree grows
// exponentially with the instance and every node LP costs more as the row
// count grows, so B band subproblems of ~1/B the rows are far cheaper than
// one monolithic tree — the speedup is algorithmic, not
// thread-count-dependent.

#include <cmath>
#include <iostream>

#include "common.hpp"
#include "mth/rap/rap.hpp"
#include "mth/report/table.hpp"
#include "mth/util/log.hpp"
#include "mth/util/str.hpp"
#include "mth/util/threadpool.hpp"
#include "mth/util/timer.hpp"
#include "mth/verify/certifier.hpp"

int main() {
  using namespace mth;
  set_log_level(LogLevel::Warn);
  std::cout << "=== P5: sharded RAP vs whole-design at scaled-up instances"
               " ===\n"
            << bench::scale_banner() << "\n"
            << "MTH_SHARDS (0 = auto) / MTH_NODE_BATCH / MTH_SHARD_GAP /"
               " MTH_SHARD_MIN_SPEEDUP to tune\n\n";

  flows::FlowOptions opt = bench::bench_options();
  opt.rap.ilp.rel_gap = bench::env_double("MTH_ILP_GAP", 0.02);
  const int shards = bench::env_int("MTH_SHARDS", 0);
  const int node_batch = bench::env_int("MTH_NODE_BATCH", 8);
  const double gap_window = bench::env_double("MTH_SHARD_GAP", 0.15);
  const double min_speedup = bench::env_double("MTH_SHARD_MIN_SPEEDUP", 0.0);
  const int threads = util::default_num_threads();

  report::Table t({"Testcase", "minority insts", "clusters", "bands",
                   "whole (s)", "shard (s)", "speedup", "rel dev", "repairs",
                   "batch B&B (s)", "identical"});

  bool all_ok = true;
  double speedup_prod = 1.0;
  int speedup_n = 0;
  for (const synth::TestcaseSpec& spec : bench::bench_specs()) {
    std::cerr << "[scaling] " << spec.short_name << "...\n";
    const flows::PreparedCase pc = flows::prepare_case(spec, opt);
    rap::RapOptions ro = opt.rap;
    ro.n_min_pairs = pc.n_min_pairs;
    ro.width_library = pc.original_library.get();
    ro.ctx.exec.num_threads = 1;

    // Whole-design baseline: one monolithic branch & bound.
    WallTimer t_whole;
    const rap::RapResult whole = rap::solve_rap(pc.initial, ro);
    const double whole_s = t_whole.seconds();

    // Sharded, 1 thread (the speedup claim must hold without parallelism).
    rap::RapOptions sro = ro;
    sro.shards = shards;
    sro.export_certificate = true;
    WallTimer t_shard;
    const rap::RapResult shard = rap::solve_rap_sharded(pc.initial, sro);
    const double shard_s = t_shard.seconds();

    // Sharded again with the worker pool: must be bit-identical.
    sro.ctx.exec.num_threads = threads;
    const rap::RapResult shard_p = rap::solve_rap_sharded(pc.initial, sro);

    // Whole-design once more through the batch-parallel B&B node loop.
    rap::RapOptions bro = ro;
    bro.ilp.node_batch = node_batch;
    bro.ilp.num_threads = threads;
    WallTimer t_batch;
    (void)rap::solve_rap(pc.initial, bro);
    const double batch_s = t_batch.seconds();

    const int bands = static_cast<int>(shard.bands.size());
    if (shards > 1 && bands <= 1) {
      std::cerr << "[scaling] FAIL " << spec.short_name << ": asked for "
                << shards << " bands, banding did not engage\n";
      all_ok = false;
    }
    const double speedup = bench::speedup(whole_s, shard_s);
    const bool identical =
        shard.assignment.pair_is_minority ==
            shard_p.assignment.pair_is_minority &&
        shard.cluster_pair == shard_p.cluster_pair &&
        shard.objective == shard_p.objective &&
        shard.repair_moves == shard_p.repair_moves;
    if (!identical) {
      std::cerr << "[scaling] FAIL " << spec.short_name
                << ": sharded result differs between 1 and " << threads
                << " threads\n";
      all_ok = false;
    }

    // Objective-quality window: sharding may only cost a bounded fraction of
    // the whole-design objective (boundary repair often recovers most of it).
    const double denom =
        std::abs(whole.objective) > 1e-12 ? std::abs(whole.objective) : 1.0;
    const double rel_dev = (shard.objective - whole.objective) / denom;
    if (!(rel_dev <= gap_window)) {
      std::cerr << "[scaling] FAIL " << spec.short_name
                << ": sharded objective deviates " << rel_dev
                << " > allowed " << gap_window << " (whole " << whole.objective
                << ", sharded " << shard.objective << ")\n";
      all_ok = false;
    }

    // Independent certification through the per-band aggregation path.
    const verify::CertifyReport cr =
        verify::certify_rap(pc.initial, shard, sro);
    if (!cr.ok()) {
      std::cerr << "[scaling] FAIL " << spec.short_name
                << ": certifier rejected sharded result: " << cr.summary()
                << "\n";
      all_ok = false;
    }

    speedup_prod *= speedup > 0.0 ? speedup : 1.0;
    ++speedup_n;
    t.add_row({spec.short_name, format_count(pc.minority_cells),
               format_count(whole.num_clusters), std::to_string(bands),
               format_fixed(whole_s, 2), format_fixed(shard_s, 2),
               format_fixed(speedup, 2), format_fixed(rel_dev, 4),
               std::to_string(shard.repair_moves), format_fixed(batch_s, 2),
               identical ? "yes" : "NO"});
  }
  t.print(std::cout);

  const double geomean =
      speedup_n > 0 ? std::exp(std::log(speedup_prod) /
                               static_cast<double>(speedup_n))
                    : 0.0;
  std::cout << "\nSharded vs whole-design: geomean wall-clock speedup "
            << format_fixed(geomean, 2) << "x across " << speedup_n
            << " case(s); batch-parallel B&B measured on "
            << threads << " worker(s) (a 1-core host reports ~1.0x — the"
               " sharding speedup above is algorithmic, not thread count)\n";
  if (min_speedup > 0.0 && geomean < min_speedup) {
    std::cerr << "[scaling] FAIL: geomean speedup " << format_fixed(geomean, 2)
              << " < required " << min_speedup << "\n";
    all_ok = false;
  }
  if (speedup_n == 0) {
    std::cerr << "[scaling] FAIL: no case ran\n";
    all_ok = false;
  }
  return all_ok ? 0 : 1;
}
