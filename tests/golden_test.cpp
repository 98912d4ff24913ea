// Golden regression test: full flow on the two smallest bundled testcases
// against checked-in golden metrics. Any change to synthesis, placement,
// clustering, the ILP, legalization or finalize that moves a metric shows up
// here as an exact diff — the determinism contract makes exact integer
// comparison the right tolerance for Dbu metrics.
//
// Regenerate after an intentional quality change with
//   MTH_GOLDEN_UPDATE=1 ./golden_test
// and commit the rewritten tests/golden/flow_metrics.json.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "mth/flows/flow.hpp"
#include "mth/util/json.hpp"

namespace mth {
namespace {

const char* kGoldenFile = MTH_GOLDEN_DIR "/flow_metrics.json";
const char* kCases[] = {"aes_400", "aes_360"};  // two smallest by num_cells

flows::FlowOptions golden_options() {
  flows::FlowOptions opt;
  opt.scale = 0.04;
  // Machine-independence: the ILP deadline is wall-clock, so a loaded host
  // could otherwise return a different (still feasible) incumbent. With the
  // deadline out of the way termination is by gap/node count — deterministic.
  opt.rap.ilp.time_limit_s = 1e9;
  // Grade every stage with the independent oracle while we're at it.
  opt.verify = true;
  return opt;
}

/// Flat JSON object {"case.flow.metric": value, ...}, keys sorted.
using Metrics = std::map<std::string, long long>;

Metrics collect(const std::string& name) {
  Metrics m;
  const flows::FlowOptions opt = golden_options();
  const flows::PreparedCase pc =
      flows::prepare_case(synth::spec_by_name(name), opt);
  m[name + ".prepare.n_min_pairs"] = pc.n_min_pairs;
  m[name + ".prepare.minority_cells"] = pc.minority_cells;
  for (const flows::FlowId id :
       {flows::FlowId::F2, flows::FlowId::F3, flows::FlowId::F4,
        flows::FlowId::F5}) {
    const flows::FlowResult r = flows::run_flow(pc, id, opt, false, false).result;
    const std::string key = name + "." + flows::to_string(id);
    m[key + ".displacement"] = r.displacement;
    m[key + ".hpwl"] = r.hpwl;
    if (id == flows::FlowId::F4 || id == flows::FlowId::F5) {
      m[key + ".num_clusters"] = r.num_clusters;
    }
  }
  return m;
}

Metrics read_golden() {
  std::ifstream in(kGoldenFile);
  EXPECT_TRUE(in.good()) << "missing golden file " << kGoldenFile
                         << " (regenerate with MTH_GOLDEN_UPDATE=1)";
  Metrics m;
  if (!in.good()) return m;
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  for (const auto& [key, value] : doc.members()) m[key] = value.as_int();
  return m;
}

void write_golden(const Metrics& m) {
  std::ofstream out(kGoldenFile);
  ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
  json::Value v = json::Value::object();
  for (const auto& [key, value] : m) v.set(key, json::Value::integer(value));
  out << json::write(v);
}

TEST(Golden, FlowMetricsMatchGolden) {
  Metrics actual;
  for (const char* name : kCases) {
    const Metrics m = collect(name);
    actual.insert(m.begin(), m.end());
  }
  if (const char* u = std::getenv("MTH_GOLDEN_UPDATE"); u && *u == '1') {
    write_golden(actual);
    GTEST_SKIP() << "golden file regenerated: " << kGoldenFile;
  }
  const Metrics golden = read_golden();
  ASSERT_FALSE(golden.empty());
  // Exact comparison both ways: a vanished key is as much a regression as a
  // changed value.
  for (const auto& [key, value] : golden) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "golden key not produced: " << key;
    EXPECT_EQ(it->second, value) << "metric drifted: " << key;
  }
  for (const auto& [key, value] : actual) {
    EXPECT_TRUE(golden.count(key)) << "new metric missing from golden (" << key
                                   << " = " << value
                                   << "); regenerate the golden file";
  }
}

}  // namespace
}  // namespace mth
