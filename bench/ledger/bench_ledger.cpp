// bench_ledger — the repository's performance ledger: one benchmark that
// measures the placement flow end to end and layer by layer
// (bench/ledger/README.md).
//
//   bench_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   bench_ledger --all [--seed N] [--seconds S] [--out FILE] [--commit ID]
//   bench_ledger --smoke
//   bench_ledger --compare BASE.json NEW.json
//
// Metric names, units and bounds come from BENCHMARK.json (--spec FILE,
// default ./BENCHMARK.json); this file only computes values by name.
//
// A workload is a suite of K synthetic Table-II designs made from --seed.
// One pass runs every design once, closed loop, with one caller:
// flows::prepare_case (setup_s), flows::run_flow without routing, on
// place_legal repeated on the same prepared case with its RAP cache cleared
// (flow_s), then the routing tail on the captured design (route_s). Each
// pass prepares every design afresh. One pass always runs, and another
// starts only while one more of the same length still fits in --seconds; a
// stage time is the sum over designs of each design's median sample. Every
// sample is scaled to a reference machine speed by a fixed probe timed
// around it (SpeedProbe); the raw wall medians are kept in the ledger.
// Quality (HPWL, displacement, routed wirelength,
// power) is graded on the reference suite, the same few designs in every
// run, which also serves as the warm-up. The correctness gates run
// outside the timers. With --trace 1 one more pass runs with a
// trace::Collector as the flow's sink and yields the per-layer metrics; on
// whole_ilp it also re-solves the paper-scale root LP.
//
// Every ILP is bounded by a node count, so every output is a pure function of
// (workload, seed). The library runs on one thread (kThreads).
//
// --workload prints the run as one JSON line, last on stdout:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}} with
// the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// --all runs every workload and appends the run to the ledger file --out.
// --compare exits 1 when an end-to-end median regressed beyond its bound,
// a deterministic count changed, or a run failed.

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mth/baseline/linchang.hpp"
#include "mth/cts/htree.hpp"
#include "mth/db/mlef.hpp"
#include "mth/flows/flow.hpp"
#include "mth/lp/simplex.hpp"
#include "mth/rap/rap.hpp"
#include "mth/route/router.hpp"
#include "mth/ser/ser.hpp"
#include "mth/synth/testcases.hpp"
#include "mth/timing/sta.hpp"
#include "mth/trace/collector.hpp"
#include "mth/util/error.hpp"
#include "mth/util/log.hpp"
#include "mth/util/simd.hpp"
#include "mth/util/timer.hpp"
#include "mth/verify/certifier.hpp"
#include "mth/verify/checker.hpp"

#ifndef MTH_LEDGER_BUILD_TYPE
#define MTH_LEDGER_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mth;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload: K designs of one Table-II testcase, each synthesized and
/// placed from its own seed, run through one flow. Why each exists is in
/// BENCHMARK.json and README.md. One design's ILP time varies by a factor of
/// up to 3 from seed to seed, so a workload is a suite: summing K designs
/// keeps the totals steady across --seed values. Once scaled by the speed
/// probe, the machine adds far less to a total than the choice of designs
/// does, so a run spends its time on many designs in one pass rather than
/// on repeated passes over few (README "Why suites of small designs").
struct Workload {
  const char* name;
  const char* testcase;
  flows::FlowId flow;
  double scale;        ///< cell-count scale of each design
  double smoke_scale;  ///< --smoke scale
  int designs;         ///< K designs per pass
  int flow_reps;       ///< run_flow samples per design and pass
  int shards;          ///< RapOptions::shards (1 whole-design, 0 auto)
  int max_nodes;       ///< RapOptions::ilp.max_nodes (per band when sharded)
  bool paper_lp;       ///< traced pass re-solves the paper-scale root LP
};

constexpr Workload kWorkloads[] = {
    {"whole_ilp", "aes_360", flows::FlowId::F5, 0.17, 0.06, 64, 1, 1, 16,
     true},
    {"sharded_rap", "des3_210", flows::FlowId::F5, 0.06, 0.03, 36, 1, 0, 16,
     false},
    {"place_legal", "nova_300", flows::FlowId::F3, 0.02, 0.005, 40, 5, 1, 0,
     false},
};

/// Designs of different --seed values never share a generator seed.
constexpr std::uint64_t kSeedStride = 1000;
/// The reference suite, kReferenceDesigns designs from this seed, is the
/// same in every run. Quality is deterministic, so grading it on one fixed
/// input makes any change exact.
constexpr std::uint64_t kReferenceSeed = 0;
constexpr int kReferenceDesigns = 4;
/// The paper-scale root LP: the workload's testcase at scale 1.0 from one
/// fixed seed, so its pivot count is comparable between any two runs.
constexpr double kPaperScale = 1.0;
constexpr std::uint64_t kPaperSeed = 1;
constexpr int kSmokeDesigns = 2;
/// The library's thread count. On a shared 4-vCPU host, four workers made
/// the flow no faster at these design sizes, and their stage times spread
/// 0.10-0.15 from run to run against 0.03-0.08 on one thread, once scaled
/// by the speed probe (README "Machine speed").
constexpr int kThreads = 1;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Workloads run Flow (3) or Flow (5); both legalize with rap::rc_legalize
/// and differ only in the row assignment: k-means rows or the RAP ILP.
bool runs_rap(const Workload& w) { return w.flow == flows::FlowId::F5; }

flows::FlowOptions flow_options(const Workload& w, double scale,
                                std::uint64_t seed) {
  flows::FlowOptions o;
  o.scale = scale;
  o.ctx.exec.num_threads = kThreads;
  o.ctx.exec.seed = seed;
  o.rap.shards = w.shards;
  if (w.max_nodes > 0) o.rap.ilp.max_nodes = w.max_nodes;
  return o;
}

/// The RapOptions run_flow hands to the solver (and certify_rap must see).
rap::RapOptions solved_rap_options(const flows::FlowOptions& opt,
                                   int n_min_pairs,
                                   const Library* width_library) {
  rap::RapOptions ro = opt.rap;
  ro.n_min_pairs = n_min_pairs;
  ro.width_library = width_library;
  if (ro.ctx.exec.num_threads < 0) {
    ro.ctx.exec.num_threads = opt.ctx.exec.num_threads;
  }
  return ro;
}

// ---------------------------------------------------------------------------
// Machine speed
// ---------------------------------------------------------------------------

/// A fixed piece of work that never touches the program, timed around
/// every stage sample. On a shared host the machine's speed moves by up to a
/// third over tens of seconds as other tenants come and go, and a whole run
/// can sit in a slow or a fast spell. Dividing a stage's wall time by the
/// probe's time beside it, and multiplying by the probe's nominal time,
/// gives the stage time at a fixed reference speed.
///
/// The probe does what the flow does most: it faults in fresh pages, fills
/// a vector, inserts into a std::map, sorts, and walks the map. Its memory
/// is a private mapping made and dropped on every call, so the program's
/// heap never changes the probe's time. Probes of pure cache or memory
/// latency loops tracked the flow's slowdowns less well (README "Machine
/// speed").
class SpeedProbe {
 public:
  /// The probe's time on the reference machine (a 4-vCPU Intel Xeon VM,
  /// median over quiet minutes). A scaled time equals the wall time there.
  static constexpr double kNominalSeconds = 0.0064;

  double seconds() {
    WallTimer t;
    void* mem = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw Error("speed probe: mmap failed");
    double acc = 0.0;
    {
      std::pmr::monotonic_buffer_resource arena(
          mem, kArenaBytes, std::pmr::null_memory_resource());
      std::pmr::vector<double> values(&arena);
      values.reserve(kValues);
      std::pmr::map<std::uint32_t, double> counts(&arena);
      std::uint64_t x = 0x2545F4914F6CDD1Dull;
      for (int i = 0; i < kValues; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push_back(static_cast<double>(x % 100000) * 0.5);
        if (i % 4 == 0) counts[static_cast<std::uint32_t>(x % 50000)] += 1.0;
      }
      std::sort(values.begin(), values.end());
      acc = values[values.size() / 2];
      for (const auto& [key, count] : counts) acc += count * key;
    }
    munmap(mem, kArenaBytes);
    sink_ += acc;
    readings_.push_back(t.seconds());
    return readings_.back();
  }

  /// Every reading so far, in order.
  const std::vector<double>& readings() const { return readings_; }

 private:
  static constexpr int kValues = 40'000;
  /// The vector's 320 KB plus 10,000 map nodes, with room to spare.
  static constexpr std::size_t kArenaBytes = std::size_t{1} << 20;

  std::vector<double> readings_;
  double sink_ = 0.0;  ///< keeps the work's result live
};

SpeedProbe& speed_probe() {
  static SpeedProbe probe;
  return probe;
}

/// One stage sample: wall seconds, and the same at the reference speed given
/// the probe times just before and just after the stage.
struct Timed {
  double wall = 0.0, scaled = 0.0;
};

Timed timed(double wall, double probe_before, double probe_after) {
  return {wall, wall * SpeedProbe::kNominalSeconds /
                    (0.5 * (probe_before + probe_after))};
}

// ---------------------------------------------------------------------------
// One design
// ---------------------------------------------------------------------------

/// Outputs that must repeat exactly across passes and in the traced pass.
struct Quality {
  Dbu hpwl = 0;         ///< FlowResult::hpwl
  Dbu disp = 0;         ///< FlowResult::displacement
  int n_min_pairs = 0;  ///< N_minR
  Dbu routed_wl = 0;
  double power_mw = 0.0;
  double wns_ns = 0.0;
  double rap_gap = 0.0;
  bool operator==(const Quality&) const = default;
};

/// Per-layer facts of the traced pass that the collector's spans and
/// counters do not give: bench-side timers and public RapResult fields,
/// summed over the pass.
struct Layers {
  double rap_cluster_s = 0, rap_cost_s = 0, rap_ilp_s = 0,
         route_finalize_s = 0, verify_check_s = 0, verify_certify_s = 0,
         lp_root_s = 0, paper_root_s = 0;
  std::int64_t rap_clusters = 0, rap_x_vars = 0, rap_cand_widenings = 0,
               rap_bands = 0, rap_repair_moves = 0, ilp_nodes = 0,
               lp_root_pivots = 0, paper_root_pivots = 0,
               route_overflow_edges = 0;
};

struct DesignRun {
  Timed setup, route;
  std::vector<Timed> flow;  ///< one per run_flow repetition
  Quality quality;
  std::vector<std::string> failures;  ///< typed reasons ("gate: detail")
};

/// The routing tail of run_flow(with_route = true): finalize_mixed, global
/// routing, STA and clock-tree synthesis.
void route_tail(Design& design, const MlefTransform& mlef,
                const RowAssignment& assignment, const flows::FlowOptions& opt,
                Quality& q, Layers& layers) {
  WallTimer t;
  flows::finalize_mixed(design, mlef, assignment);
  layers.route_finalize_s += t.seconds();
  const route::RouteResult routes = route::route_design(design, opt.router);
  const timing::TimingReport report = timing::analyze(design, &routes, opt.sta);
  cts::build_clock_tree(design);
  layers.route_overflow_edges += routes.overflowed_edges;
  q.routed_wl = routes.total_wirelength;
  q.power_mw = report.total_power_mw();
  q.wns_ns = report.wns_ns;
}

void check_stage(const Design& design, const RowAssignment& assignment,
                 bool mixed, const char* stage, DesignRun& run) {
  verify::CheckOptions co;
  co.assignment = &assignment;
  co.require_track_match = mixed;
  const verify::CheckReport rep = verify::check_placement(design, co);
  if (!rep.ok()) {
    run.failures.push_back(std::string("check_placement[") + stage +
                           "]: " + rep.summary(2));
  }
}

/// The gates on a RAP result: the certifier, no ILP stopped on its wall-clock
/// deadline, and no sharded solve fell back to the whole-design solve.
void check_rap(const Design& initial, const rap::RapResult& rr,
               const rap::RapOptions& ro, DesignRun& run) {
  const verify::CertifyReport cr = verify::certify_rap(initial, rr, ro);
  if (!cr.ok()) run.failures.push_back("certify_rap: " + cr.summary(2));
  // A solve that ended before the limit cannot have stopped on it; the
  // whole-design budget stop is Feasible at exactly max_nodes.
  const bool deadline =
      rr.ilp_seconds >= ro.ilp.time_limit_s ||
      (rr.bands.empty() && rr.status == ilp::Status::Feasible &&
       rr.ilp_nodes < ro.ilp.max_nodes);
  if (deadline) {
    run.failures.push_back("deadline_stop: status " +
                           std::string(ilp::to_string(rr.status)) + " after " +
                           std::to_string(rr.ilp_nodes) + " nodes");
  }
  if (ro.shards != 1 && rr.bands.empty()) {
    run.failures.push_back("shard_fallback: sharded solve ran whole-design");
  }
}

/// The RAP result's public fields, and a cold re-solve of every root model it
/// exported: the LP kernel's cost per pivot on the exact LPs this design's
/// branch & bound started from.
void add_rap_layers(const rap::RapResult& rr, const rap::RapOptions& ro,
                    Layers& L) {
  L.rap_cluster_s += rr.cluster_seconds;
  L.rap_cost_s += rr.cost_seconds;
  L.rap_ilp_s += rr.ilp_seconds;
  L.rap_clusters += rr.num_clusters;
  L.rap_x_vars += rr.num_x_vars;
  L.rap_cand_widenings += rr.cand_widenings;
  L.rap_bands += static_cast<std::int64_t>(rr.bands.size());
  L.rap_repair_moves += rr.repair_moves;
  L.ilp_nodes += rr.ilp_nodes;
  std::vector<const lp::Model*> roots;
  if (rr.certificate) roots.push_back(&rr.certificate->model);
  for (const rap::RapBand& band : rr.bands) {
    if (band.certificate) roots.push_back(&band.certificate->model);
  }
  for (const lp::Model* model : roots) {
    WallTimer t;
    const lp::Result res = lp::solve(*model, ro.ilp.lp);
    L.lp_root_s += t.seconds();
    L.lp_root_pivots += res.iterations;
  }
}

/// One design through the public entry points, timed, with run_flow
/// repeated `flow_reps` times on the prepared case. Clearing
/// PreparedCase::rap_cache before each repetition makes every one solve the
/// RAP afresh. When `layers` is set (the traced pass, whose options carry
/// the collector as ctx.sink) the routing tail runs under the same sink and
/// the per-layer facts that no span or counter gives are added to `layers`.
DesignRun run_design(const Workload& w, const flows::FlowOptions& opt,
                     int flow_reps, Layers* layers) {
  DesignRun run;
  Layers untraced;
  Layers& L = layers != nullptr ? *layers : untraced;
  SpeedProbe& probe = speed_probe();
  try {
    const synth::TestcaseSpec& spec = synth::spec_by_name(w.testcase);
    const double p0 = probe.seconds();
    WallTimer t;
    const flows::PreparedCase pc = flows::prepare_case(spec, opt);
    const double setup_wall = t.seconds();
    const double p1 = probe.seconds();
    run.setup = timed(setup_wall, p0, p1);
    std::optional<flows::FlowOutput> out;
    std::vector<double> flow_wall;
    for (int r = 0; r < flow_reps; ++r) {
      pc.rap_cache.reset();
      t.restart();
      flows::FlowOutput rep = flows::run_flow(pc, w.flow, opt, false, true);
      flow_wall.push_back(t.seconds());
      if (out && (rep.result.hpwl != out->result.hpwl ||
                  rep.result.displacement != out->result.displacement)) {
        run.failures.push_back(
            "nondeterministic: run_flow repetitions differ");
      }
      out = std::move(rep);
    }
    const double p2 = probe.seconds();
    for (const double wall : flow_wall) run.flow.push_back(timed(wall, p1, p2));

    Design design = std::move(*out->design);
    Quality& q = run.quality;
    q.hpwl = out->result.hpwl;
    q.disp = out->result.displacement;
    q.n_min_pairs = pc.n_min_pairs;
    RowAssignment assignment;
    WallTimer tv;
    if (runs_rap(w)) {
      assignment = pc.rap_cache->assignment;
      q.rap_gap = pc.rap_cache->gap;
      const rap::RapOptions ro =
          solved_rap_options(opt, pc.n_min_pairs, pc.original_library.get());
      check_rap(pc.initial, *pc.rap_cache, ro, run);
      L.verify_certify_s += tv.seconds();
      if (layers != nullptr) add_rap_layers(*pc.rap_cache, ro, L);
    } else {
      // run_flow does not return the k-means rows; recomputing them on the
      // same prepared placement gives the same rows.
      assignment = baseline::assign_rows_kmeans(pc.initial, pc.n_min_pairs,
                                                opt.baseline)
                       .rows;
    }
    tv.restart();
    check_stage(design, assignment, false, "legalize", run);
    L.verify_check_s += tv.seconds();

    t.restart();
    {
      trace::SinkScope scope(opt.ctx.sink);
      route_tail(design, *pc.mlef, assignment, opt, q, L);
    }
    // p2 stands for the probe before routing: the gates in between take
    // milliseconds, the machine's speed moves over seconds.
    run.route = timed(t.seconds(), p2, probe.seconds());
    tv.restart();
    check_stage(design, assignment, true, "finalize", run);
    L.verify_check_s += tv.seconds();
  } catch (const std::exception& e) {
    run.failures.push_back(std::string("exception: ") + e.what());
  }
  return run;
}

/// The paper-scale root LP (traced pass of a paper_lp workload): prepare the
/// testcase at kPaperScale from kPaperSeed, run the whole-design RAP solve to
/// its first branch & bound node, and time a cold lp::solve of the exported
/// root model. No workload's suite reaches an LP of this size.
DesignRun paper_root_lp(const Workload& w, double scale, Layers& L) {
  DesignRun run;
  try {
    flows::FlowOptions opt = flow_options(w, scale, kPaperSeed);
    opt.rap.ilp.max_nodes = 1;
    const flows::PreparedCase pc =
        flows::prepare_case(synth::spec_by_name(w.testcase), opt);
    const rap::RapOptions ro =
        solved_rap_options(opt, pc.n_min_pairs, pc.original_library.get());
    const rap::RapResult rr = rap::solve_rap(pc.initial, ro);
    if (rr.ilp_seconds >= ro.ilp.time_limit_s) {
      run.failures.push_back("deadline_stop: paper-scale root cut loop");
    } else if (rr.certificate == nullptr) {
      run.failures.push_back("no_root_model: paper-scale solve exported none");
    } else {
      WallTimer t;
      const lp::Result res = lp::solve(rr.certificate->model, ro.ilp.lp);
      L.paper_root_s += t.seconds();
      L.paper_root_pivots += res.iterations;
    }
  } catch (const std::exception& e) {
    run.failures.push_back(std::string("exception: ") + e.what());
  }
  return run;
}

// ---------------------------------------------------------------------------
// Process facts
// ---------------------------------------------------------------------------

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Median and quartiles by the exclusive method, as Python's
/// statistics.quantiles(values, n=4) gives them.
struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  int n = 0;
};

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto at = [&](double p) {
    const double h = std::clamp((n + 1.0) * p, 1.0, n);
    const std::size_t lo = static_cast<std::size_t>(h) - 1;
    const double frac = h - std::floor(h);
    return lo + 1 < v.size() ? v[lo] + frac * (v[lo + 1] - v[lo]) : v[lo];
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  return s;
}

/// A metric's value, with quartiles for pass timings.
struct Metric {
  Summary summary;
  bool count = false;  ///< deterministic integer count
};

struct WorkloadRecord {
  std::string name;
  int designs = 0;
  int passes = 0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Stage times as the wall clock read them: the sum over designs of each
  /// design's median wall sample. Kept in the ledger beside the scaled ones.
  std::map<std::string, double> wall;
  double probe_s = 0.0;  ///< median speed-probe reading of the timed passes
};

void put(WorkloadRecord& rec, const char* name, double value) {
  rec.metrics[name].summary = {value, value, value, 1};
}

void put_count(WorkloadRecord& rec, const char* name, std::int64_t value) {
  const double v = static_cast<double>(value);
  rec.metrics[name] = {{v, v, v, 1}, true};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void record_failures(WorkloadRecord& rec, const DesignRun& run,
                     const std::string& where) {
  ++rec.attempted;
  if (run.failures.empty()) return;
  ++rec.failed;
  for (const std::string& f : run.failures) rec.failures.push_back(where + f);
}

// ---------------------------------------------------------------------------
// One workload
// ---------------------------------------------------------------------------

struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
};

WorkloadRecord run_workload(const Workload& w, const RunSettings& rs) {
  WorkloadRecord rec;
  rec.name = w.name;
  rec.designs = rs.smoke ? kSmokeDesigns : w.designs;
  const double scale = rs.smoke ? w.smoke_scale : w.scale;
  const auto design_options = [&](std::uint64_t seed, int d) {
    return flow_options(w, scale,
                        seed * kSeedStride + static_cast<std::uint64_t>(d));
  };
  reset_peak_rss();

  // The reference suite, the first designs of the seed-0 suite: graded,
  // untimed, and the source of the quality metrics. Running it first also
  // pages in the code.
  std::vector<Quality> reference;
  for (int d = 0; d < std::min(kReferenceDesigns, rec.designs); ++d) {
    const DesignRun run =
        run_design(w, design_options(kReferenceSeed, d), 1, nullptr);
    record_failures(rec, run, "reference design " + std::to_string(d) + ": ");
    reference.push_back(run.quality);
  }

  // Timed passes over the seed's suite. Every later pass, and the traced
  // one, must reproduce pass 0 exactly.
  std::vector<Quality> first(static_cast<std::size_t>(rec.designs));
  const auto grade = [&](DesignRun& run, int p, int d,
                         const std::string& where) {
    const std::size_t di = static_cast<std::size_t>(d);
    if (p == 0) {
      first[di] = run.quality;
    } else if (run.failures.empty() && !(run.quality == first[di])) {
      run.failures.push_back("nondeterministic: outputs differ from pass 0");
    }
    record_failures(rec, run, where + " design " + std::to_string(d) + ": ");
  };
  // times[stage][design]: every sample of the run (flow: flow_reps a pass).
  std::vector<std::vector<Timed>> times[3];
  for (auto& stage : times) stage.resize(static_cast<std::size_t>(rec.designs));
  const int flow_reps = rs.smoke ? 1 : w.flow_reps;
  const std::size_t first_reading = speed_probe().readings().size();
  // Another pass starts only if one as long as the last still ends within
  // --seconds, so a run's length stays near max(one pass, --seconds).
  WallTimer elapsed;
  double pass_s = 0.0;
  for (int p = 0; p == 0 || elapsed.seconds() + pass_s <= rs.seconds; ++p) {
    WallTimer pass;
    for (int d = 0; d < rec.designs; ++d) {
      DesignRun run =
          run_design(w, design_options(rs.seed, d), flow_reps, nullptr);
      grade(run, p, d, "pass " + std::to_string(p));
      const std::size_t di = static_cast<std::size_t>(d);
      times[0][di].push_back(run.setup);
      times[1][di].insert(times[1][di].end(), run.flow.begin(), run.flow.end());
      times[2][di].push_back(run.route);
    }
    ++rec.passes;
    pass_s = pass.seconds();
  }
  // A stage time is the sum over designs of each design's median (and
  // quartiles) sample: a burst of machine noise that hits one sample of a
  // design does not move that design's median.
  const char* stage_names[3] = {"setup_s", "flow_s", "route_s"};
  for (int k = 0; k < 3; ++k) {
    Summary total;
    double wall = 0.0;
    for (const std::vector<Timed>& samples : times[k]) {
      std::vector<double> scaled, walls;
      for (const Timed& x : samples) {
        scaled.push_back(x.scaled);
        walls.push_back(x.wall);
      }
      const Summary s = summarize(scaled);
      total.median += s.median;
      total.q1 += s.q1;
      total.q3 += s.q3;
      total.n = s.n;
      wall += summarize(walls).median;
    }
    rec.metrics[stage_names[k]].summary = total;
    rec.wall[stage_names[k]] = wall;
  }
  const std::vector<double>& readings = speed_probe().readings();
  rec.probe_s = summarize({readings.begin() + static_cast<std::ptrdiff_t>(
                                                  first_reading),
                           readings.end()})
                    .median;
  double hpwl = 0, disp = 0, routed = 0, power = 0;
  for (const Quality& q : reference) {
    hpwl += static_cast<double>(q.hpwl);
    disp += static_cast<double>(q.disp);
    routed += static_cast<double>(q.routed_wl);
    power += q.power_mw;
  }
  put(rec, "hpwl_um", hpwl / 1000.0);
  put(rec, "disp_um", disp / 1000.0);
  put(rec, "routed_wl_um", routed / 1000.0);
  put(rec, "power_mw", power);
  put(rec, "peak_rss_mb", peak_rss_mb());

  if (rs.traced) {
    trace::Collector collector;
    Layers L;
    double wns = 0, gap = 0;
    for (int d = 0; d < rec.designs; ++d) {
      flows::FlowOptions opt = design_options(rs.seed, d);
      opt.ctx.sink = &collector;
      DesignRun run = run_design(w, opt, 1, &L);
      grade(run, rec.passes, d, "traced");
      wns += run.quality.wns_ns;
      gap += run.quality.rap_gap;
    }
    if (w.paper_lp) {
      const DesignRun run =
          paper_root_lp(w, rs.smoke ? w.smoke_scale : kPaperScale, L);
      record_failures(rec, run, "paper root LP: ");
    }
    const std::map<std::string, trace::SpanStat> spans = collector.aggregate();
    const auto span_s = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? 0.0
                               : static_cast<double>(it->second.total_ns) * 1e-9;
    };
    const std::map<std::string, std::int64_t> c = collector.counters();
    const auto counter = [&](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? std::int64_t{0} : it->second;
    };
    const double k = static_cast<double>(rec.designs);
    put(rec, "synth.generate_s", span_s("synth/generate"));
    put(rec, "place.global_s", span_s("place/global"));
    put(rec, "legal.refine_s", span_s("place/refine"));
    put(rec, "legal.rc_s", span_s("legal/rc"));
    put_count(rec, "kernel.ihpwl_moves", counter("kernel/ihpwl_moves"));
    put(rec, "kernel.ihpwl_recomputes_per_move",
        ratio(static_cast<double>(counter("kernel/ihpwl_recomputes")),
              static_cast<double>(counter("kernel/ihpwl_moves"))));
    put(rec, "baseline.assign_s", span_s("baseline/assign"));
    put_count(rec, "cluster.kmeans_iterations",
              counter("cluster/kmeans_iterations"));
    put(rec, "rap.cluster_s", L.rap_cluster_s);
    put(rec, "rap.cost_s", L.rap_cost_s);
    put_count(rec, "rap.clusters", L.rap_clusters);
    put_count(rec, "rap.x_vars", L.rap_x_vars);
    put_count(rec, "rap.cand_widenings", L.rap_cand_widenings);
    put_count(rec, "rap.linking_cuts", counter("rap/linking_cuts"));
    put_count(rec, "rap.bands", L.rap_bands);
    put_count(rec, "rap.repair_moves", L.rap_repair_moves);
    put(rec, "rap.solve_s", span_s("rap/solve"));
    put(rec, "rap.ilp_s", L.rap_ilp_s);
    put(rec, "rap_gap", gap / k);
    put_count(rec, "ilp.nodes", L.ilp_nodes);
    put(rec, "ilp.s_per_node",
        ratio(L.rap_ilp_s, static_cast<double>(L.ilp_nodes)));
    put_count(rec, "lp.pivots", counter("lp/pivots"));
    put_count(rec, "lp.dual_pivots", counter("lp/dual_pivots"));
    put(rec, "lp.warm_hits_per_node",
        ratio(static_cast<double>(counter("lp/warm_hits")),
              static_cast<double>(L.ilp_nodes)));
    put(rec, "lp.root_s", L.lp_root_s);
    put_count(rec, "lp.root_pivots", L.lp_root_pivots);
    put(rec, "lp.us_per_pivot",
        ratio(L.lp_root_s * 1e6, static_cast<double>(L.lp_root_pivots)));
    put_count(rec, "lp.paper_root_pivots", L.paper_root_pivots);
    put(rec, "lp.paper_us_per_pivot",
        ratio(L.paper_root_s * 1e6, static_cast<double>(L.paper_root_pivots)));
    put(rec, "db.metrics_s", span_s("flow/metrics"));
    put(rec, "route.finalize_s", L.route_finalize_s);
    put(rec, "route.global_s", span_s("route/global"));
    put_count(rec, "route.overflow_edges", L.route_overflow_edges);
    put(rec, "timing.sta_s", span_s("sta/analyze"));
    put(rec, "wns_ns", wns / k);
    put(rec, "cts.build_s", span_s("cts/build"));
    put(rec, "verify.check_s", L.verify_check_s);
    put(rec, "verify.certify_s", L.verify_certify_s);
  }
  return rec;
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;  ///< end-to-end only
};

struct Spec {
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

std::string read_text(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw Error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

Spec read_spec(const std::string& path) {
  const ser::Value v = ser::parse(read_text(path));
  const auto list = [&](const char* key, bool bounded) {
    std::vector<MetricSpec> out;
    const ser::Value& arr = v.get(key);
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const ser::Value& m = arr.at(i);
      MetricSpec s;
      s.name = m.get("name").as_string();
      s.unit = m.get("unit").as_string();
      s.lower_is_better = m.get("better").as_string() == "lower";
      if (bounded) s.bound = m.get("bound").as_double();
      out.push_back(std::move(s));
    }
    return out;
  };
  Spec spec;
  spec.end_to_end = list("end_to_end", true);
  spec.per_layer = list("per_layer", false);
  return spec;
}

// ---------------------------------------------------------------------------
// Ledger (de)serialization
// ---------------------------------------------------------------------------

/// The metric `name` of a workload; a spec that names a metric this file
/// does not compute is an error.
const Metric& metric_of(const WorkloadRecord& rec, const std::string& name) {
  const auto it = rec.metrics.find(name);
  if (it == rec.metrics.end()) {
    throw Error("workload " + rec.name + " has no metric " + name);
  }
  return it->second;
}

ser::Value metric_value(const Metric& m, const std::string& unit) {
  ser::Value v = ser::Value::object();
  v.set("unit", ser::Value::string(unit));
  const Summary& s = m.summary;
  if (m.count) {
    v.set("count", ser::Value::integer(static_cast<std::int64_t>(s.median)));
  } else {
    v.set("median", ser::Value::number(s.median));
    v.set("q1", ser::Value::number(s.q1));
    v.set("q3", ser::Value::number(s.q3));
    v.set("n", ser::Value::integer(s.n));
  }
  return v;
}

ser::Value workload_value(const WorkloadRecord& rec, const Spec& spec,
                          bool traced) {
  ser::Value v = ser::Value::object();
  v.set("name", ser::Value::string(rec.name));
  v.set("designs", ser::Value::integer(rec.designs));
  v.set("passes", ser::Value::integer(rec.passes));
  v.set("attempted", ser::Value::integer(rec.attempted));
  v.set("failed", ser::Value::integer(rec.failed));
  ser::Value failures = ser::Value::array();
  for (const std::string& f : rec.failures) {
    failures.push(ser::Value::string(f));
  }
  v.set("failures", std::move(failures));
  ser::Value metrics = ser::Value::object();
  const auto add = [&](const std::vector<MetricSpec>& list) {
    for (const MetricSpec& ms : list) {
      metrics.set(ms.name, metric_value(metric_of(rec, ms.name), ms.unit));
    }
  };
  add(spec.end_to_end);
  if (traced) add(spec.per_layer);
  v.set("metrics", std::move(metrics));
  ser::Value wall = ser::Value::object();
  for (const auto& [name, seconds] : rec.wall) {
    wall.set(name, ser::Value::number(seconds));
  }
  v.set("wall", std::move(wall));
  v.set("probe_s", ser::Value::number(rec.probe_s));
  return v;
}

/// The --workload result line.
std::string result_line(const WorkloadRecord& rec,
                        const std::vector<MetricSpec>& list) {
  ser::Value v = ser::Value::object();
  v.set("correct", ser::Value::boolean(rec.failed == 0));
  v.set("attempted", ser::Value::integer(rec.attempted));
  v.set("failed", ser::Value::integer(rec.failed));
  ser::Value metrics = ser::Value::object();
  for (const MetricSpec& ms : list) {
    const Metric& metric = metric_of(rec, ms.name);
    const double value = metric.summary.median;
    ser::Value m = ser::Value::object();
    m.set("value", metric.count
                       ? ser::Value::integer(static_cast<std::int64_t>(value))
                       : ser::Value::number(value));
    m.set("unit", ser::Value::string(ms.unit));
    metrics.set(ms.name, std::move(m));
  }
  v.set("metrics", std::move(metrics));
  return ser::write_compact(v);
}

void print_table(const WorkloadRecord& rec, const Spec& spec) {
  std::printf("\n== %s: %d designs x %d passes, %d attempted, %d failed\n",
              rec.name.c_str(), rec.designs, rec.passes, rec.attempted,
              rec.failed);
  for (const std::string& f : rec.failures) {
    std::printf("   FAIL %s\n", f.c_str());
  }
  const auto rows = [&](const std::vector<MetricSpec>& list) {
    for (const MetricSpec& ms : list) {
      const auto it = rec.metrics.find(ms.name);
      if (it == rec.metrics.end()) continue;
      const Summary& s = it->second.summary;
      if (s.n > 1) {
        std::printf("   %-34s %-6s %14.6g  [q1 %.6g, q3 %.6g, n %d]\n",
                    ms.name.c_str(), ms.unit.c_str(), s.median, s.q1, s.q3,
                    s.n);
      } else {
        std::printf("   %-34s %-6s %14.6g\n", ms.name.c_str(),
                    ms.unit.c_str(), s.median);
      }
    }
  };
  rows(spec.end_to_end);
  for (const auto& [name, seconds] : rec.wall) {
    std::printf("   %-34s %-6s %14.6g  (wall clock)\n", name.c_str(), "s",
                seconds);
  }
  std::printf("   %-34s %-6s %14.6g  (nominal %.6g)\n", "speed probe", "s",
              rec.probe_s, SpeedProbe::kNominalSeconds);
  rows(spec.per_layer);
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

/// The last run recorded in a ledger file.
const ser::Value& last_run(const ser::Value& ledger, const std::string& path) {
  ser::expect_kind(ledger, "bench_ledger");
  const ser::Value& runs = ledger.get("runs");
  if (runs.size() == 0) throw Error(path + ": ledger holds no run");
  return runs.at(runs.size() - 1);
}

const ser::Value* find_workload_value(const ser::Value& run,
                                      const std::string& name) {
  const ser::Value& ws = run.get("workloads");
  for (std::size_t i = 0; i < ws.size(); ++i) {
    if (ws.at(i).get("name").as_string() == name) return &ws.at(i);
  }
  return nullptr;
}

int compare(const std::string& base_path, const std::string& new_path,
            const Spec& spec) {
  const ser::Value base_file = ser::parse(read_text(base_path));
  const ser::Value new_file = ser::parse(read_text(new_path));
  const ser::Value& base = last_run(base_file, base_path);
  const ser::Value& next = last_run(new_file, new_path);
  int problems = 0;
  const ser::Value& ws = next.get("workloads");
  for (std::size_t i = 0; i < ws.size(); ++i) {
    const ser::Value& nw = ws.at(i);
    const std::string name = nw.get("name").as_string();
    std::printf("\n== %s\n", name.c_str());
    const ser::Value* bw = find_workload_value(base, name);
    if (bw == nullptr) {
      std::printf("   not in %s\n", base_path.c_str());
      ++problems;
      continue;
    }
    for (const ser::Value* w : {bw, &nw}) {
      if (w->get("failed").as_int() != 0) {
        std::printf("   FAILED runs recorded (%lld)\n",
                    static_cast<long long>(w->get("failed").as_int()));
        ++problems;
      }
    }
    const ser::Value& bm = bw->get("metrics");
    const ser::Value& nm = nw.get("metrics");
    for (const MetricSpec& ms : spec.end_to_end) {
      const ser::Value* b = bm.find(ms.name);
      const ser::Value* n = nm.find(ms.name);
      if (b == nullptr || n == nullptr) continue;
      const double bmed = b->get("median").as_double();
      const double nmed = n->get("median").as_double();
      const double change = ratio(nmed - bmed, std::abs(bmed));
      const double worse = ms.lower_is_better ? change : -change;
      const char* verdict = worse > ms.bound    ? "REGRESSION"
                            : worse < -ms.bound ? "better"
                                                : "ok";
      if (worse > ms.bound) ++problems;
      std::printf(
          "   %-22s %-6s base %-12.6g [%.6g, %.6g]  new %-12.6g [%.6g, %.6g]"
          "  %+7.2f%% (bound %.1f%%) %s\n",
          ms.name.c_str(), ms.unit.c_str(), bmed,
          b->get("q1").as_double(), b->get("q3").as_double(), nmed,
          n->get("q1").as_double(), n->get("q3").as_double(), 100.0 * change,
          100.0 * ms.bound, verdict);
    }
    for (const MetricSpec& ms : spec.per_layer) {
      const ser::Value* b = bm.find(ms.name);
      const ser::Value* n = nm.find(ms.name);
      if (b == nullptr || n == nullptr) continue;
      if (const ser::Value* bc = b->find("count")) {
        const std::int64_t bv = bc->as_int();
        const std::int64_t nv = n->get("count").as_int();
        if (bv != nv) ++problems;
        std::printf("   %-34s count %lld -> %lld%s\n", ms.name.c_str(),
                    static_cast<long long>(bv), static_cast<long long>(nv),
                    bv != nv ? "  CHANGED" : "");
      } else {
        std::printf("   %-34s %-6s %.6g -> %.6g\n", ms.name.c_str(),
                    ms.unit.c_str(), b->get("median").as_double(),
                    n->get("median").as_double());
      }
    }
  }
  std::printf("\n%s\n", problems == 0 ? "no regression"
                                      : "regressions, count changes or "
                                        "failed runs above");
  return problems == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int usage(const char* msg) {
  if (msg != nullptr) std::cerr << "bench_ledger: " << msg << "\n";
  std::cerr
      << "usage: bench_ledger --workload NAME [--seed N] [--seconds S]"
         " [--trace 0|1]\n"
         "       bench_ledger --all [--seed N] [--seconds S] [--out FILE]"
         " [--commit ID]\n"
         "       bench_ledger --smoke\n"
         "       bench_ledger --compare BASE.json NEW.json\n"
         "  every mode: [--spec BENCHMARK.json]\n"
         "  workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

ser::Value env_value(const RunSettings& rs, const std::string& commit,
                     int nproc) {
  ser::Value env = ser::Value::object();
  env.set("commit", ser::Value::string(commit));
  env.set("nproc", ser::Value::integer(nproc));
  env.set("threads", ser::Value::integer(kThreads));
  env.set("simd", ser::Value::string(simd::tier_name(simd::active_tier())));
  env.set("build_type", ser::Value::string(MTH_LEDGER_BUILD_TYPE));
  env.set("seed", ser::Value::integer(static_cast<std::int64_t>(rs.seed)));
  env.set("seconds", ser::Value::number(rs.seconds));
  return env;
}

/// Append `run` to the ledger at `path` (created when absent).
void append_run(const std::string& path, ser::Value run) {
  ser::Value ledger = ser::make_envelope("bench_ledger");
  ser::Value runs = ser::Value::array();
  if (std::filesystem::exists(path)) {
    const ser::Value old = ser::parse(read_text(path));
    ser::expect_kind(old, "bench_ledger");
    const ser::Value& old_runs = old.get("runs");
    for (std::size_t i = 0; i < old_runs.size(); ++i) runs.push(old_runs.at(i));
  }
  runs.push(std::move(run));
  ledger.set("runs", std::move(runs));
  std::ofstream f(path, std::ios::binary);
  f << ser::write(ledger);
  if (!f) throw Error("cannot write " + path);
}

/// --smoke: every workload at reduced scale, with the reference suite, one
/// timed pass and the traced pass (the paper-scale LP at reduced scale too);
/// every gate must pass and the ledger must round-trip with every metric.
int smoke(const Spec& spec, RunSettings rs) {
  WallTimer total;
  rs.smoke = true;
  rs.traced = true;
  ser::Value run = ser::Value::object();
  ser::Value ws = ser::Value::array();
  int failed = 0;
  for (const Workload& w : kWorkloads) {
    const WorkloadRecord rec = run_workload(w, rs);
    for (const std::string& f : rec.failures) {
      std::cerr << "bench_ledger smoke: " << w.name << ": " << f << "\n";
    }
    failed += rec.failed;
    ws.push(workload_value(rec, spec, true));
  }
  run.set("workloads", std::move(ws));
  const ser::Value back = ser::parse(ser::write(run));
  const std::size_t per_workload =
      spec.end_to_end.size() + spec.per_layer.size();
  for (std::size_t i = 0; i < back.get("workloads").size(); ++i) {
    const ser::Value& m = back.get("workloads").at(i).get("metrics");
    MTH_ASSERT(m.members().size() == per_workload, "smoke: metric count");
    for (const auto& [name, value] : m.members()) {
      const ser::Value* x = value.find("count");
      if (x == nullptr) x = &value.get("median");
      MTH_ASSERT(std::isfinite(x->as_double()),
                 "smoke: " + name + " not finite");
    }
  }
  std::printf("bench_ledger smoke: %zu workloads x %zu metrics, %d failed, "
              "%.1f s\n",
              back.get("workloads").size(), per_workload, failed,
              total.seconds());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  std::string workload, out, commit = "unknown", spec_path = "BENCHMARK.json";
  std::vector<std::string> compare_paths;
  bool all = false, run_smoke = false;
  RunSettings rs;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (a == "--all") {
      all = true;
    } else if (a == "--smoke") {
      run_smoke = true;
    } else if (a == "--compare") {
      const auto b = value();
      const auto n = value();
      if (!b || !n) return usage("--compare needs two files");
      compare_paths = {*b, *n};
    } else if (!(v = value())) {
      return usage(("missing value or unknown option: " + a).c_str());
    } else if (a == "--workload") {
      workload = *v;
    } else if (a == "--seed") {
      rs.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      rs.seconds = std::atof(v->c_str());
    } else if (a == "--trace") {
      rs.traced = *v == "1";
    } else if (a == "--out") {
      out = *v;
    } else if (a == "--commit") {
      commit = *v;
    } else if (a == "--spec") {
      spec_path = *v;
    } else {
      return usage(("unknown option: " + a).c_str());
    }
  }

  try {
    const Spec spec = read_spec(spec_path);
    if (!compare_paths.empty()) {
      return compare(compare_paths[0], compare_paths[1], spec);
    }
    // Pin every pool user, including calls that take the process default,
    // to kThreads workers.
    const int nproc = online_cpus();
    setenv("MTH_THREADS", std::to_string(kThreads).c_str(), 1);

    if (run_smoke) return smoke(spec, rs);
    if (all) {
      rs.traced = true;
      ser::Value run = ser::Value::object();
      run.set("env", env_value(rs, commit, nproc));
      ser::Value ws = ser::Value::array();
      int failed = 0;
      for (const Workload& w : kWorkloads) {
        const WorkloadRecord rec = run_workload(w, rs);
        print_table(rec, spec);
        failed += rec.failed;
        ws.push(workload_value(rec, spec, true));
      }
      run.set("workloads", std::move(ws));
      if (!out.empty()) append_run(out, std::move(run));
      return failed == 0 ? 0 : 1;
    }
    const Workload* w = find_workload(workload);
    if (w == nullptr) return usage("unknown or missing --workload");
    const WorkloadRecord rec = run_workload(*w, rs);
    for (const std::string& f : rec.failures) {
      std::cerr << "bench_ledger: " << f << "\n";
    }
    std::cout << result_line(rec, rs.traced ? spec.per_layer : spec.end_to_end)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_ledger: " << e.what() << "\n";
    return 2;
  }
}
