// SARIF 2.1.0 emitter — the interchange format GitHub code scanning ingests
// (github/codeql-action/upload-sarif), which turns lint findings into inline
// PR annotations. One run, tool driver "mth_lint", every rule listed with
// its one-line description so the code-scanning UI can group by rule.

#include <iterator>

#include "scan.hpp"

namespace mth::lint {

namespace {

json::Value text_object(const char* key, std::string text) {
  json::Value v = json::Value::object();
  v.set(key, json::Value::string(std::move(text)));
  return v;
}

}  // namespace

std::string findings_to_sarif(const std::vector<Finding>& findings) {
  // Every rule, in enum order; ruleIndex below indexes into this list.
  static const Rule kRules[] = {
      Rule::DetRand,        Rule::DetThread,     Rule::DetUnordered,
      Rule::UnorderedIter,  Rule::TraceRegistry, Rule::AbDoc,
      Rule::SimdMerge,      Rule::IhpwlFullScan, Rule::RowRescan,
      Rule::PinPositionLoop, Rule::ParCaptureRace, Rule::FpOrderedMerge,
      Rule::LayerCycle,     Rule::LayerViolation,
  };
  json::Value rules = json::Value::array();
  for (const Rule rule : kRules) {
    json::Value r = json::Value::object();
    r.set("id", json::Value::string(to_string(rule)));
    r.set("shortDescription", text_object("text", rule_description(rule)));
    rules.push(std::move(r));
  }
  json::Value results = json::Value::array();
  for (const Finding& f : findings) {
    std::size_t rule_index = 0;
    while (rule_index + 1 < std::size(kRules) &&
           kRules[rule_index] != f.rule) {
      ++rule_index;
    }
    // SARIF regions are 1-based; file-level findings (line 0) clamp to 1.
    json::Value region = json::Value::object();
    region.set("startLine", json::Value::integer(f.line > 0 ? f.line : 1));
    json::Value physical = json::Value::object();
    physical.set("artifactLocation", text_object("uri", f.file));
    physical.set("region", std::move(region));
    json::Value location = json::Value::object();
    location.set("physicalLocation", std::move(physical));
    json::Value locations = json::Value::array();
    locations.push(std::move(location));
    json::Value r = json::Value::object();
    r.set("ruleId", json::Value::string(to_string(f.rule)));
    r.set("ruleIndex",
          json::Value::integer(static_cast<std::int64_t>(rule_index)));
    r.set("level", json::Value::string("error"));
    r.set("message", text_object("text", f.message));
    r.set("locations", std::move(locations));
    results.push(std::move(r));
  }
  json::Value driver = json::Value::object();
  driver.set("name", json::Value::string("mth_lint"));
  driver.set("informationUri", json::Value::string("tools/mth_lint.cpp"));
  driver.set("rules", std::move(rules));
  json::Value tool = json::Value::object();
  tool.set("driver", std::move(driver));
  json::Value run = json::Value::object();
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  json::Value runs = json::Value::array();
  runs.push(std::move(run));
  json::Value doc = json::Value::object();
  doc.set("$schema",
          json::Value::string("https://json.schemastore.org/sarif-2.1.0.json"));
  doc.set("version", json::Value::string("2.1.0"));
  doc.set("runs", std::move(runs));
  return json::write(doc);
}

}  // namespace mth::lint
