// mth_flow — command-line driver for the mixed track-height placement flows.
//
//   mth_flow --testcase aes_360 --flow 5 --scale 0.1 --route --out-def x.def
//
// Runs one Table II testcase through the selected Table III flow and emits
// metrics plus optional artifacts. Also exposes the extension passes:
//   --height-swap        run track-height swapping before the flow
//   --pattern <name>     replace the row assignment with a pre-determined
//                        pattern (evenly|alternating|bottom|center)
//
// Exit code 0 on success; prints usage and exits 2 on bad arguments.

#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/io/defio.hpp"
#include "mth/io/lefio.hpp"
#include "mth/legal/improve.hpp"
#include "mth/liberty/asap7.hpp"
#include "mth/opt/heightswap.hpp"
#include "mth/rap/fence.hpp"
#include "mth/rap/patterns.hpp"
#include "mth/rap/rclegal.hpp"
#include "mth/report/svg.hpp"
#include "mth/report/table.hpp"
#include "mth/trace/collector.hpp"
#include "mth/verify/checker.hpp"
#include "mth/util/log.hpp"
#include "mth/util/str.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: mth_flow [options]\n"
        "  --testcase <name>   Table II short name (default aes_360)\n"
        "  --lef <path>        external standard-cell library (LEF); with\n"
        "                      --def, replaces --testcase/--scale synthesis\n"
        "  --def <path>        external design (defio format) resolved\n"
        "                      against the --lef library\n"
        "  --improve           run the linked-list detailed-placement\n"
        "                      improver on the flow's output (oracle-graded;\n"
        "                      not with --route)\n"
        "  --list              list available testcases and exit\n"
        "  --flow <1..5>       Table III flow (default 5)\n"
        "  --scale <f>         cell-count scale (default 0.1)\n"
        "  --seed <n>          generator/placer seed (default 1)\n"
        "  --util <f>          target utilization (default 0.60)\n"
        "  --s <f>             clustering resolution (default 0.2)\n"
        "  --alpha <f>         RAP cost weight (default 0.75)\n"
        "  --ilp-seconds <f>   ILP deadline (default 20)\n"
        "  --shards <n>        sharded RAP band count: 1 whole-design\n"
        "                      (default), 0 auto-size, N>1 bands\n"
        "  --route             run routing + STA (Table V metrics)\n"
        "  --height-swap       netlist-stage track-height optimization\n"
        "  --pattern <p>       evenly|alternating|bottom|center instead of\n"
        "                      the flow's row assignment (uses the proposed\n"
        "                      legalization)\n"
        "  --out-def <path>    write the final placement (defio format)\n"
        "  --out-svg <path>    write a Fig. 3-style placement plot\n"
        "  --out-csv <path>    append a metrics row (creates header)\n"
        "  --trace <path>      write a Chrome trace_events JSON of the run\n"
        "  --trace-summary <p> write the aggregated per-span JSON summary\n"
        "  -v / -q             verbose / quiet logging\n";
}

std::optional<mth::rap::RowPattern> parse_pattern(const std::string& p) {
  using mth::rap::RowPattern;
  if (p == "evenly") return RowPattern::EvenlySpread;
  if (p == "alternating") return RowPattern::Alternating;
  if (p == "bottom") return RowPattern::BottomBlock;
  if (p == "center") return RowPattern::CenterBlock;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mth;
  set_log_level(LogLevel::Warn);

  std::string testcase = "aes_360";
  int flow = 5;
  flows::FlowOptions opt;
  opt.scale = 0.1;
  opt.rap.ilp.time_limit_s = 20.0;
  bool route = false, height_swap = false, improve = false;
  std::optional<rap::RowPattern> pattern;
  std::string lef_path, def_path;
  std::string out_def, out_svg, out_csv, out_trace, out_trace_summary;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        usage(std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--testcase") {
      testcase = next();
    } else if (a == "--lef") {
      lef_path = next();
    } else if (a == "--def") {
      def_path = next();
    } else if (a == "--improve") {
      improve = true;
    } else if (a == "--list") {
      for (const auto& s : synth::table2_specs()) {
        std::cout << s.short_name << "  (" << s.circuit << ", clock "
                  << s.clock_ps << " ps, " << s.num_cells << " cells, "
                  << s.pct_75t << "% 7.5T)\n";
      }
      return 0;
    } else if (a == "--flow") {
      flow = std::atoi(next());
    } else if (a == "--scale") {
      opt.scale = std::atof(next());
    } else if (a == "--seed") {
      opt.ctx.exec.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--util") {
      opt.utilization = std::atof(next());
    } else if (a == "--s") {
      opt.rap.s = std::atof(next());
    } else if (a == "--alpha") {
      opt.rap.alpha = std::atof(next());
    } else if (a == "--ilp-seconds") {
      opt.rap.ilp.time_limit_s = std::atof(next());
    } else if (a == "--shards") {
      opt.rap.shards = std::atoi(next());
    } else if (a == "--route") {
      route = true;
    } else if (a == "--height-swap") {
      height_swap = true;
    } else if (a == "--pattern") {
      pattern = parse_pattern(next());
      if (!pattern) {
        std::cerr << "unknown pattern\n";
        usage(std::cerr);
        return 2;
      }
    } else if (a == "--out-def") {
      out_def = next();
    } else if (a == "--out-svg") {
      out_svg = next();
    } else if (a == "--out-csv") {
      out_csv = next();
    } else if (a == "--trace") {
      out_trace = next();
    } else if (a == "--trace-summary") {
      out_trace_summary = next();
    } else if (a == "-v") {
      set_log_level(LogLevel::Debug);
    } else if (a == "-q") {
      set_log_level(LogLevel::Error);
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown option " << a << "\n";
      usage(std::cerr);
      return 2;
    }
  }
  if (flow < 1 || flow > 5) {
    std::cerr << "flow must be 1..5\n";
    return 2;
  }
  const bool external = !lef_path.empty() || !def_path.empty();
  if (external && (lef_path.empty() || def_path.empty())) {
    std::cerr << "--lef and --def must be given together\n";
    return 2;
  }
  if (external && height_swap) {
    std::cerr << "--height-swap re-synthesizes and cannot apply to --lef/--def\n";
    return 2;
  }
  if (improve && route) {
    // Routing runs inside the flow, before the improver, so the routed
    // metrics would describe a placement other than the one written out.
    std::cerr << "--improve cannot be combined with --route: routing runs "
                 "before the improver\n";
    usage(std::cerr);
    return 2;
  }

  try {
    // Tracing: one collector across prepare + flow; run_flow/prepare_case
    // install it via FlowOptions::ctx.
    trace::Collector collector;
    const bool tracing = !out_trace.empty() || !out_trace_summary.empty();
    if (tracing) opt.ctx.sink = &collector;

    // Optional netlist-stage height swapping: regenerate, optimize, and note
    // that prepare_case re-synthesizes — so we report the optimizer's effect
    // separately (it demonstrates the pass; wiring it into prepare_case is a
    // one-line change for downstream users).
    if (height_swap) {
      const synth::TestcaseSpec& spec = synth::spec_by_name(testcase);
      synth::GeneratorOptions gen = opt.gen;
      gen.scale = opt.scale;
      gen.seed = opt.ctx.exec.seed;
      Design netlist =
          synth::generate_testcase(spec, liberty::library_ref(), gen).design;
      const opt::HeightSwapResult hs = opt::optimize_track_heights(netlist);
      std::cout << "height-swap: +" << hs.promoted_to_tall << " tall, -"
                << hs.demoted_to_short << " tall; WNS "
                << format_fixed(hs.before.wns_ns, 3) << " -> "
                << format_fixed(hs.after.wns_ns, 3) << " ns; power "
                << format_fixed(hs.before.total_power_mw(), 2) << " -> "
                << format_fixed(hs.after.total_power_mw(), 2) << " mW\n";
    }

    flows::PreparedCase pc;
    if (external) {
      // External-design mode: LEF library + defio design in, same flow
      // comparison out (SNIPPETS.md Snippet 1 readLef/readDef UX).
      const io::LefResult lr = io::read_lef_file(lef_path);
      std::cout << "read " << lef_path << ": " << lr.num_macros
                << " macros, " << lr.num_sites << " core sites\n";
      Design ext = io::read_design_file(def_path, lr.library);
      testcase = ext.name;
      pc = flows::prepare_external_case(std::move(ext), opt);
    } else {
      pc = flows::prepare_case(synth::spec_by_name(testcase), opt);
    }

    flows::FlowResult res;
    Design final_design = pc.initial;
    if (pattern) {
      trace::SinkScope sink_scope(opt.ctx.sink);
      // Pattern mode: pre-determined rows + the proposed legalization.
      const RowAssignment ra = rap::pattern_assignment(
          final_design.floorplan.num_pairs(), pc.n_min_pairs, *pattern);
      const auto lr = rap::rc_legalize(final_design, ra, opt.rclegal);
      MTH_ASSERT(lr.success, "pattern legalization failed");
      res.flow = flows::FlowId::F5;
      res.testcase = pc.spec.short_name;
      res.hpwl = total_hpwl(final_design);
      res.displacement = total_displacement(final_design, pc.initial_positions);
      if (route) {
        flows::finalize_mixed(final_design, *pc.mlef, ra);
        const auto routes = route::route_design(final_design, opt.router);
        res.post.routed_wl = routes.total_wirelength;
        res.post.timing = timing::analyze(final_design, &routes, opt.sta);
        res.routed = true;
      }
      std::cout << "pattern: " << to_string(*pattern) << "\n";
    } else {
      flows::FlowOutput out = flows::run_flow(
          pc, static_cast<flows::FlowId>(flow), opt, route,
          /*capture_design=*/true);
      res = std::move(out.result);
      final_design = std::move(*out.design);
    }

    // Linked-list detailed-placement improver on the flow's output (mLEF
    // space: --route is rejected above), graded by the independent oracle
    // on the final placement. The reported displacement and HPWL are the
    // improved placement's.
    legal::ImproveStats imp;
    if (improve) {
      trace::SinkScope sink_scope(opt.ctx.sink);
      legal::ImproveOptions iopt;
      iopt.oracle = [](const Design& d) {
        return verify::check_placement(d, {}).ok();
      };
      imp = legal::improve_placement(final_design, iopt);
      res.hpwl = total_hpwl(final_design);
      res.displacement = total_displacement(final_design, pc.initial_positions);
    }

    report::Table t({"metric", "value"});
    t.add_row({"testcase", res.testcase.empty() ? testcase : res.testcase});
    t.add_row({"flow", std::to_string(flow)});
    t.add_row({"cells", format_count(pc.initial.netlist.num_instances())});
    t.add_row({"minority cells", format_count(pc.minority_cells)});
    t.add_row({"N_minR", std::to_string(pc.n_min_pairs)});
    t.add_row({"displacement (um)",
               format_count(static_cast<long long>(res.displacement / 1000))});
    t.add_row({"HPWL (um)", format_count(static_cast<long long>(res.hpwl / 1000))});
    // Stage timings let the trace summary's rap/* and legal/* totals be
    // reconciled against the flow's own clocks (see README "Observability").
    t.add_row({"assign (s)", format_fixed(res.assign_seconds, 4)});
    t.add_row({"legalize (s)", format_fixed(res.legal_seconds, 4)});
    if (improve) {
      t.add_row({"improve passes", std::to_string(imp.passes)});
      t.add_row({"improve swaps", format_count(imp.accepted_swaps)});
      t.add_row({"improve shifts", format_count(imp.accepted_shifts)});
      t.add_row({"improve dHPWL (um)",
                 format_count(static_cast<long long>(imp.delta() / 1000))});
    }
    if (res.routed) {
      t.add_row({"routed WL (um)",
                 format_count(static_cast<long long>(res.post.routed_wl / 1000))});
      t.add_row({"power (mW)", format_fixed(res.post.timing.total_power_mw(), 3)});
      t.add_row({"WNS (ns)", format_fixed(res.post.timing.wns_ns, 3)});
      t.add_row({"TNS (ns)", format_fixed(res.post.timing.tns_ns, 1)});
    }
    t.print(std::cout);

    if (!out_def.empty()) {
      io::write_design_file(out_def, final_design);
      std::cout << "wrote " << out_def << "\n";
    }
    if (!out_svg.empty()) {
      std::vector<Rect> fences;
      report::write_file(out_svg, report::placement_svg(final_design, fences));
      std::cout << "wrote " << out_svg << "\n";
    }
    if (!out_csv.empty()) {
      const bool fresh = !std::ifstream(out_csv).good();
      std::ofstream f(out_csv, std::ios::app);
      if (fresh) {
        f << "testcase,flow,cells,minority,displacement_dbu,hpwl_dbu,"
             "routed_wl_dbu,power_mw,wns_ns,tns_ns\n";
      }
      f << testcase << ',' << flow << ',' << pc.initial.netlist.num_instances()
        << ',' << pc.minority_cells << ',' << res.displacement << ','
        << res.hpwl << ',' << res.post.routed_wl << ','
        << res.post.timing.total_power_mw() << ',' << res.post.timing.wns_ns
        << ',' << res.post.timing.tns_ns << '\n';
      std::cout << "appended " << out_csv << "\n";
    }
    if (!out_trace.empty()) {
      collector.write_chrome_trace_file(out_trace);
      std::cout << "wrote " << out_trace << "\n";
    }
    if (!out_trace_summary.empty()) {
      collector.write_summary_file(out_trace_summary);
      std::cout << "wrote " << out_trace_summary << "\n";
    }
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
