// SARIF 2.1.0 emitter — the interchange format GitHub code scanning ingests
// (github/codeql-action/upload-sarif), which turns lint findings into inline
// PR annotations. One run, tool driver "mth_lint", every rule listed with
// its one-line description so the code-scanning UI can group by rule.

#include <sstream>

#include "scan.hpp"

namespace mth::lint {

std::string findings_to_sarif(const std::vector<Finding>& findings) {
  using detail::json_escape;
  // Every rule, in enum order; ruleIndex below indexes into this list.
  static const Rule kRules[] = {
      Rule::DetRand,        Rule::DetThread,     Rule::DetUnordered,
      Rule::UnorderedIter,  Rule::TraceRegistry, Rule::AbDoc,
      Rule::SimdMerge,      Rule::IhpwlFullScan, Rule::RowRescan,
      Rule::PinPositionLoop, Rule::ParCaptureRace, Rule::FpOrderedMerge,
      Rule::LayerCycle,     Rule::LayerViolation,
  };
  std::ostringstream os;
  os << "{\n"
     << " \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << " \"version\": \"2.1.0\",\n"
     << " \"runs\": [\n"
     << "  {\n"
     << "   \"tool\": {\n"
     << "    \"driver\": {\n"
     << "     \"name\": \"mth_lint\",\n"
     << "     \"informationUri\": \"tools/mth_lint.cpp\",\n"
     << "     \"rules\": [";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "      {\"id\": \""
       << to_string(kRules[i]) << "\", \"shortDescription\": {\"text\": \""
       << json_escape(rule_description(kRules[i])) << "\"}}";
  }
  os << "\n     ]\n"
     << "    }\n"
     << "   },\n"
     << "   \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::size_t rule_index = 0;
    while (rule_index + 1 < std::size(kRules) &&
           kRules[rule_index] != f.rule) {
      ++rule_index;
    }
    // SARIF regions are 1-based; file-level findings (line 0) clamp to 1.
    const int line = f.line > 0 ? f.line : 1;
    os << (i == 0 ? "\n" : ",\n") << "    {\"ruleId\": \""
       << to_string(f.rule) << "\", \"ruleIndex\": " << rule_index
       << ", \"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json_escape(f.file) << "\"}, \"region\": {\"startLine\": " << line
       << "}}}]}";
  }
  os << (findings.empty() ? "]\n" : "\n   ]\n") << "  }\n ]\n}\n";
  return os.str();
}

}  // namespace mth::lint
