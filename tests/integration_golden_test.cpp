// Golden-DEF integration harness: external LEF+DEF pairs run end-to-end
// through the real ingestion path (io::read_lef + io::read_design →
// flows::prepare_external_case → run_flow) and through the linked-list
// detailed-placement improver, and the resulting DEFs are compared
// byte-for-byte against checked-in goldens. Where golden_test pins flow
// *metrics*, this suite pins the *placements themselves* — any
// nondeterminism, thread sensitivity, or silent quality drift in the
// external-design pipeline shows up as a DEF diff.
//
// Regenerate after an intentional quality change with
//   MTH_GOLDEN_UPDATE=1 ./integration_golden_test
// and commit the rewritten tests/golden/ext/ files. Regeneration first
// synthesizes each case's mixed-space placement (routed flow 5) to produce
// the <case>.lef / <case>.in.def inputs, then re-ingests those files — so
// the goldens are products of the same reader path the test exercises.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "mth/db/metrics.hpp"
#include "mth/flows/flow.hpp"
#include "mth/io/defio.hpp"
#include "mth/io/lefio.hpp"
#include "mth/legal/improve.hpp"
#include "mth/verify/checker.hpp"

namespace mth {
namespace {

const char* kGoldenDir = MTH_GOLDEN_DIR "/ext";
const char* kCases[] = {"aes_400", "aes_360"};  // two smallest by num_cells

bool regen_requested() {
  const char* u = std::getenv("MTH_GOLDEN_UPDATE");
  return u && *u == '1';
}

std::string path_of(const std::string& name, const char* suffix) {
  return std::string(kGoldenDir) + "/" + name + suffix;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with MTH_GOLDEN_UPDATE=1)";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void spill(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << text;
}

flows::FlowOptions flow_options(int num_threads) {
  flows::FlowOptions opt;
  opt.scale = 0.04;  // regen-time synthesis scale; ingestion ignores it
  opt.rap.ilp.time_limit_s = 1e9;  // terminate by gap, not wall clock
  opt.verify = true;
  // Ingested placements yield RAP instances with a looser (still correct)
  // LP-dual bound than the synthetic preparation the default window is
  // tuned for; keep feasibility/objective certification strict but widen
  // the gap window accordingly.
  opt.certify.gap_window = 0.5;
  opt.ctx.exec.num_threads = num_threads;
  return opt;
}

/// The external inputs for one case, loaded through the real reader path.
struct ExternalCase {
  std::shared_ptr<const Library> library;
  Design design;
};

ExternalCase load_case(const std::string& name) {
  const io::LefResult lef = io::read_lef_file(path_of(name, ".lef"));
  Design design =
      io::read_design_file(path_of(name, ".in.def"), lef.library);
  return {lef.library, std::move(design)};
}

/// Run the improver on a copy of the ingested (mixed-space) placement and
/// serialize the result. Grades with the independent oracle, including the
/// mixed-space track-match requirement, and demands a non-increasing HPWL.
std::string improve_def(const ExternalCase& ext) {
  Design d = ext.design;
  const Dbu before = total_hpwl(d);
  legal::ImproveOptions opt;
  opt.oracle = [](const Design& g) {
    verify::CheckOptions co;
    co.require_track_match = true;
    return verify::check_placement(g, co).ok();
  };
  opt.oracle_every = 1;  // grade after every accepted move, not just at the end
  const legal::ImproveStats stats = legal::improve_placement(d, opt);
  EXPECT_EQ(stats.hpwl_before, before);
  EXPECT_LE(stats.hpwl_after, stats.hpwl_before)
      << "improver increased HPWL on " << d.name;
  EXPECT_EQ(stats.hpwl_after, total_hpwl(d));
  verify::CheckOptions co;
  co.require_track_match = true;
  const verify::CheckReport report = verify::check_placement(d, co);
  EXPECT_TRUE(report.ok()) << report.summary();
  std::ostringstream os;
  io::write_design(os, d);
  return os.str();
}

/// Run the ingested design through prepare_external_case + flow 5 and
/// serialize the flow's output placement (mLEF space, as captured).
std::string flow_def(const ExternalCase& ext, int num_threads) {
  const flows::FlowOptions opt = flow_options(num_threads);
  const flows::PreparedCase pc =
      flows::prepare_external_case(ext.design, opt);
  const flows::FlowOutput out =
      flows::run_flow(pc, flows::FlowId::F5, opt, false, true);
  EXPECT_TRUE(out.design.has_value());
  std::ostringstream os;
  io::write_design(os, *out.design);
  return os.str();
}

/// Regeneration: synthesize the mixed-space placement (routed flow 5, so
/// the captured design is back on the original masters), persist it as the
/// LEF + input-DEF pair, then derive the output goldens by re-ingesting.
void regenerate(const std::string& name) {
  const flows::FlowOptions opt = flow_options(1);
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name(name), opt);
  const flows::FlowOutput out =
      flows::run_flow(pc, flows::FlowId::F5, opt, true, true);
  ASSERT_TRUE(out.design.has_value());
  {
    std::ostringstream os;
    io::write_lef(os, *out.design->library);
    spill(path_of(name, ".lef"), os.str());
  }
  {
    std::ostringstream os;
    io::write_design(os, *out.design);
    spill(path_of(name, ".in.def"), os.str());
  }
  const ExternalCase ext = load_case(name);
  spill(path_of(name, ".improve.defok"), improve_def(ext));
  spill(path_of(name, ".flow.defok"), flow_def(ext, 1));
}

TEST(IntegrationGolden, ExternalCasesByteStable) {
  if (regen_requested()) {
    for (const char* name : kCases) regenerate(name);
    GTEST_SKIP() << "golden DEFs regenerated under " << kGoldenDir;
  }
  for (const char* name : kCases) {
    SCOPED_TRACE(name);
    const ExternalCase ext = load_case(name);
    EXPECT_EQ(improve_def(ext), slurp(path_of(name, ".improve.defok")))
        << "improver DEF drifted for " << name;
    EXPECT_EQ(flow_def(ext, 1), slurp(path_of(name, ".flow.defok")))
        << "flow-5 DEF drifted for " << name;
  }
}

// The golden comparison above runs single-threaded; this pins the other half
// of the contract — the flow's DEF is bit-identical at any thread count.
TEST(IntegrationGolden, FlowDefThreadInvariant) {
  if (regen_requested()) GTEST_SKIP() << "regeneration run";
  const ExternalCase ext = load_case("aes_400");
  EXPECT_EQ(flow_def(ext, 1), flow_def(ext, 8))
      << "flow-5 DEF differs between 1 and 8 threads";
}

// The ingested DEF must itself round-trip exactly: write(read(golden)) ==
// golden, byte for byte. Catches formatting drift in either direction.
TEST(IntegrationGolden, InputDefRoundTripsExactly) {
  if (regen_requested()) GTEST_SKIP() << "regeneration run";
  for (const char* name : kCases) {
    SCOPED_TRACE(name);
    const ExternalCase ext = load_case(name);
    std::ostringstream os;
    io::write_design(os, ext.design);
    EXPECT_EQ(os.str(), slurp(path_of(name, ".in.def")));
  }
}

}  // namespace
}  // namespace mth
