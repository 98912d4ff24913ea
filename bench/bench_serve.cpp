// Serving harness — the three mth_serve gates (README "Serving").
//
//   cache     one job solved cold through serve::Server, then the identical
//             envelope again: the replay must come from the result cache,
//             byte-identical apart from id/cache_hit, and at least
//             MTH_CACHE_MIN_SPEEDUP (default 10) times faster.
//   eco       a Table II case solved cold, then <= 5% of its cells nudged
//             and re-solved twice — cold versus warm-started from the prior
//             RapResult (RapOptions::eco_base: prior pair assignment as the
//             ILP warm point, prior certificate's round-0 basis seeding the
//             root LP). The warm re-solve must engage (rap/eco_hot counter),
//             spend fewer simplex iterations than cold, and its wall clock
//             is gated by MTH_ECO_MIN_SPEEDUP (default 1 — at least
//             break-even; the committed EXPERIMENTS run reports the
//             measured speedup).
//   identity  every bundled Table II case (limit with MTH_CASES) run twice:
//             directly through the flows API with mth_flow's wiring, and as
//             a served job. The final DEF text must be byte-identical and
//             the canonical (timing-stripped) trace summaries must match.
//
// Exits nonzero when any gate fails or no identity case ran;
// tools/perf_smoke.sh runs it at reduced scale.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "mth/io/defio.hpp"
#include "mth/rap/rap.hpp"
#include "mth/ser/ser.hpp"
#include "mth/serve/serve.hpp"
#include "mth/trace/collector.hpp"
#include "mth/util/log.hpp"
#include "mth/util/str.hpp"
#include "mth/util/timer.hpp"

namespace {

using namespace mth;

std::string job_envelope(const std::string& id, const std::string& testcase,
                         const flows::FlowOptions& opt) {
  ser::Value v = ser::make_envelope("job");
  v.set("id", ser::Value::string(id));
  v.set("testcase", ser::Value::string(testcase));
  v.set("flow", ser::Value::integer(5));
  v.set("options", ser::to_value(opt));
  return ser::write_compact(v);
}

/// Response with id/cache_hit neutralized, for replay byte-identity.
std::string neutralized(const std::string& response) {
  ser::Value v = ser::parse(response);
  ser::Value out = ser::Value::object();
  for (const auto& [key, val] : v.members()) {
    if (key == "id") {
      out.set(key, ser::Value::string("X"));
    } else if (key == "cache_hit") {
      out.set(key, ser::Value::boolean(false));
    } else {
      out.set(key, val);
    }
  }
  return ser::write_compact(out);
}

/// Canonical (timing-stripped) form of a trace summary, the same reduction
/// tools/trace_schema_check.py --canonical applies.
std::string canonical_summary(const std::string& summary_text) {
  const ser::Value doc = ser::parse(summary_text);
  ser::Value out = ser::Value::object();
  out.set("version", doc.get("version"));
  ser::Value spans = ser::Value::object();
  for (const auto& [name, stat] : doc.get("spans").members()) {
    ser::Value s = ser::Value::object();
    s.set("count", stat.get("count"));
    spans.set(name, std::move(s));
  }
  out.set("spans", std::move(spans));
  out.set("counters", doc.get("counters"));
  return ser::write_compact(out);
}

/// The mth_flow CLI leg, in-process: collector on ctx.sink, prepare + flow 5,
/// captured design written through io::write_design.
void run_direct(const synth::TestcaseSpec& spec, flows::FlowOptions opt,
                std::string& def_text, std::string& summary_text) {
  trace::Collector collector;
  opt.ctx.sink = &collector;
  const flows::PreparedCase pc = flows::prepare_case(spec, opt);
  const flows::FlowOutput out =
      flows::run_flow(pc, flows::FlowId::F5, opt, false, true);
  std::ostringstream def_os;
  io::write_design(def_os, *out.design);
  def_text = def_os.str();
  std::ostringstream sum_os;
  collector.write_summary(sum_os);
  summary_text = sum_os.str();
}

}  // namespace

int main() {
  set_log_level(LogLevel::Warn);
  std::cout << "=== serving: cache replay, warm ECO re-solve, server-vs-CLI"
               " identity ===\n"
            << bench::scale_banner() << "\n\n";

  flows::FlowOptions opt = bench::bench_options();
  // Identity needs determinism: under a wall-clock deadline the incumbent
  // depends on machine load (ilp::Status::Feasible semantics), so two runs
  // of the same job can legitimately differ. All legs here run with the
  // deadline effectively off — termination is by node budget and relative
  // gap, both pure functions of the options. The node budget is lowered
  // from the RAP default so the largest cases stay in bench territory; a
  // budget-bound stop is bit-reproducible where a deadline-bound one is not.
  opt.rap.ilp.time_limit_s = bench::env_double("MTH_SERVE_ILP_SECONDS", 1e9);
  opt.rap.ilp.max_nodes = bench::env_int("MTH_SERVE_MAX_NODES", 1000);
  const double cache_min_speedup =
      bench::env_double("MTH_CACHE_MIN_SPEEDUP", 10.0);
  const double eco_min_speedup = bench::env_double("MTH_ECO_MIN_SPEEDUP", 1.0);
  const std::vector<synth::TestcaseSpec> specs = bench::bench_specs();
  bool all_ok = true;

  // --- gate (a): cache-hit replay --------------------------------------
  const std::string cache_case = specs.front().short_name;
  serve::Server server({});
  double cold_s = 0.0, replay_s = 0.0;
  bool hit_identical = false;
  {
    if (server.submit(job_envelope("cold", cache_case, opt))) {
      std::cerr << "[serve] FAIL: cold job not admitted\n";
      return 1;
    }
    WallTimer t_cold;
    const std::vector<std::string> cold = server.drain();
    cold_s = t_cold.seconds();
    if (server.submit(job_envelope("replay", cache_case, opt))) {
      std::cerr << "[serve] FAIL: replay job not admitted\n";
      return 1;
    }
    WallTimer t_replay;
    const std::vector<std::string> replay = server.drain();
    replay_s = t_replay.seconds();
    hit_identical = server.cache_hits() == 1 &&
                    neutralized(cold.at(0)) == neutralized(replay.at(0));
  }
  const double cache_speedup = bench::speedup(cold_s, replay_s);
  std::cout << "cache: " << cache_case << " cold " << format_fixed(cold_s, 3)
            << "s, replay " << format_fixed(replay_s, 6) << "s ("
            << format_fixed(cache_speedup, 1) << "x, identical "
            << (hit_identical ? "yes" : "NO") << ")\n";
  if (!hit_identical) {
    std::cerr << "[serve] FAIL: cache replay not byte-identical\n";
    all_ok = false;
  }
  if (cache_speedup < cache_min_speedup) {
    std::cerr << "[serve] FAIL: cache replay speedup " << cache_speedup
              << " < required " << cache_min_speedup << "\n";
    all_ok = false;
  }

  // --- gate (b): warm ECO re-solve -------------------------------------
  const flows::PreparedCase eco_pc = flows::prepare_case(specs.front(), opt);
  rap::RapOptions ro = opt.rap;
  ro.n_min_pairs = eco_pc.n_min_pairs;
  ro.width_library = eco_pc.original_library.get();
  // Terminate on the gap, not the node budget: a budget-bound search does
  // the same capped work warm or cold, which would hide the ECO effect
  // being measured (the warm incumbent closing the gap early).
  ro.ilp.rel_gap = bench::env_double("MTH_ECO_GAP", 0.02);
  ro.ilp.max_nodes = bench::env_int("MTH_ECO_MAX_NODES", 200000);
  const rap::RapResult base = rap::solve_rap(eco_pc.initial, ro);

  // Nudge <= 5% of the cells by one site: positions move, the minority
  // enumeration (height-class based) does not.
  Design perturbed = eco_pc.initial;
  const int n = perturbed.netlist.num_instances();
  const Dbu site = perturbed.floorplan.site_width();
  int moved = 0;
  for (InstId i = 0; i < n; i += 20) {
    Instance& inst = perturbed.netlist.instance(i);
    inst.pos.x += (i % 40 == 0) ? site : -site;
    ++moved;
  }

  WallTimer t_eco_cold;
  const rap::RapResult eco_cold = rap::solve_rap(perturbed, ro);
  const double eco_cold_s = t_eco_cold.seconds();

  rap::RapOptions warm_ro = ro;
  warm_ro.eco_base = std::make_shared<rap::RapResult>(base);
  trace::Collector eco_collector;
  warm_ro.ctx.sink = &eco_collector;
  WallTimer t_eco_warm;
  const rap::RapResult eco_warm = rap::solve_rap(perturbed, warm_ro);
  const double eco_warm_s = t_eco_warm.seconds();
  long long eco_hot = 0;
  for (const auto& [name, value] : eco_collector.counters()) {
    if (name == "rap/eco_hot") eco_hot = value;
  }
  const double eco_speedup = bench::speedup(eco_cold_s, eco_warm_s);
  const bool fewer_iterations = eco_warm.lp_iterations < eco_cold.lp_iterations;
  std::cout << "eco: " << specs.front().short_name << " (" << moved << "/" << n
            << " cells nudged) cold " << format_fixed(eco_cold_s, 3)
            << "s / " << eco_cold.lp_iterations << " lp iters, warm "
            << format_fixed(eco_warm_s, 3) << "s / " << eco_warm.lp_iterations
            << " lp iters (" << format_fixed(eco_speedup, 2)
            << "x, reuse hits " << eco_cold.basis_reuse_hits << " -> "
            << eco_warm.basis_reuse_hits << ", nodes " << eco_cold.ilp_nodes
            << " -> " << eco_warm.ilp_nodes << ", widenings "
            << eco_cold.cand_widenings << " -> " << eco_warm.cand_widenings
            << ", hot=" << eco_hot << ")\n";
  if (eco_hot != 1) {
    std::cerr << "[serve] FAIL: eco hot start did not engage\n";
    all_ok = false;
  }
  if (!fewer_iterations) {
    std::cerr << "[serve] FAIL: warm re-solve spent " << eco_warm.lp_iterations
              << " lp iterations, cold " << eco_cold.lp_iterations << "\n";
    all_ok = false;
  }
  if (eco_min_speedup > 0.0 && eco_speedup < eco_min_speedup) {
    std::cerr << "[serve] FAIL: warm eco speedup " << eco_speedup
              << " < required " << eco_min_speedup << "\n";
    all_ok = false;
  }

  // --- gate (c): server-vs-CLI bit-identity ----------------------------
  int identity_cases = 0;
  for (const synth::TestcaseSpec& spec : specs) {
    std::cerr << "[serve] identity " << spec.short_name << "...\n";
    ++identity_cases;
    std::string direct_def, direct_summary;
    run_direct(spec, opt, direct_def, direct_summary);

    serve::Server fresh({});
    if (fresh.submit(job_envelope(spec.short_name, spec.short_name, opt))) {
      std::cerr << "[serve] FAIL: " << spec.short_name << " not admitted\n";
      all_ok = false;
      continue;
    }
    const ser::Value resp = ser::parse(fresh.drain().at(0));
    const bool def_identical = resp.get("def").as_string() == direct_def;
    const bool trace_identical =
        canonical_summary(resp.get("trace_summary").as_string()) ==
        canonical_summary(direct_summary);
    if (!def_identical || !trace_identical) {
      std::cerr << "[serve] FAIL: " << spec.short_name
                << " server vs CLI mismatch (def "
                << (def_identical ? "ok" : "DIFFERS") << ", trace "
                << (trace_identical ? "ok" : "DIFFERS") << ")\n";
      all_ok = false;
    }
  }
  std::cout << "identity: " << identity_cases
            << " case(s) server vs CLI, def+canonical-trace byte-compare\n";
  if (identity_cases == 0) {
    std::cerr << "[serve] FAIL: no identity case ran\n";
    all_ok = false;
  }

  return all_ok ? 0 : 1;
}
