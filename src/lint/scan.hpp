#pragma once
// Private lint internals shared by the analyzer passes (lint.cpp: token
// rules, scope.cpp: scope-aware parallel-capture rules, layers.cpp: include
// graph + layering, sarif.cpp: SARIF emitter). Not installed; everything
// here lives in mth::lint::detail and may change freely between PRs — the
// stable surface is mth/lint/lint.hpp.

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "mth/lint/lint.hpp"
#include "mth/util/error.hpp"
#include "mth/util/json.hpp"

namespace mth::lint::detail {

// ---------------------------------------------------------------------------
// Scanner: strips comments and string/char literals from a C++ buffer and
// produces (a) a token stream of identifiers / punctuation / string literals
// with line numbers, (b) per-line comment text for suppression and doc-block
// analysis, (c) the raw lines for snippets. This is a lexer, not a compiler
// front end — the rules are lexical/scope-lexical by design (see lint.hpp).
// ---------------------------------------------------------------------------

enum class Tok { Ident, Punct, Literal, Number };

struct Token {
  Tok kind;
  std::string text;  // identifier / punctuation text, or literal *content*
  int line;
};

struct Scan {
  std::vector<std::string> lines;     // raw source, for snippets
  std::vector<Token> tokens;
  std::vector<std::string> comments;  // per line (index line-1), '\n'-joined
  std::vector<bool> doc;              // line carries a /// doc comment
};

Scan scan_source(std::string_view text);

inline bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::Punct && t.text == text;
}
inline bool is_ident(const Token& t, const char* text) {
  return t.kind == Tok::Ident && t.text == text;
}

// ---------------------------------------------------------------------------
// Path-based rule scoping.
// ---------------------------------------------------------------------------

std::string normalize_path(std::string p);

// "src/include/mth/rap/rap.hpp" -> "rap"; "src/rap/rap.cpp" -> "rap";
// "tools/mth_flow.cpp" -> "".
std::string module_of(const std::string& file);

// "mth/rap/rap.hpp" (an include target) -> "rap"; anything that does not
// start with "mth/" -> "".
std::string module_of_include(const std::string& target);

bool is_det_module(const std::string& module);
bool is_public_header(const std::string& file);

// ---------------------------------------------------------------------------
// Inline suppressions:  // mth-lint: allow(rule-a, rule-b): justification
// A suppression covers its own line and the next one, so it can sit either
// trailing the offending line or alone on the line above it.
// ---------------------------------------------------------------------------

std::vector<std::set<Rule>> parse_suppressions(const Scan& s);

inline bool suppressed(const std::vector<std::set<Rule>>& allowed, Rule rule,
                       int line) {
  const std::size_t li = static_cast<std::size_t>(line - 1);
  if (li >= allowed.size()) return false;
  if (allowed[li].count(rule) != 0) return true;
  return li > 0 && allowed[li - 1].count(rule) != 0;
}

// ---------------------------------------------------------------------------
// Rule-engine context: dedups suppression handling and snippet extraction.
// ---------------------------------------------------------------------------

struct Ctx {
  const std::string& file;
  const Scan& scan;
  const std::vector<std::set<Rule>>& allowed;
  std::vector<Finding>& out;

  void report(Rule rule, int line, std::string message);
};

// Scope-aware parallel-worker analysis (scope.cpp): par-capture-race and
// fp-ordered-merge over the worker lambdas of parallel_for / parallel_chunks
// / parallel_reduce call sites.
void rule_parallel_capture(Ctx& ctx);

// ---------------------------------------------------------------------------
// JSON readers: parse `text` with json::parse and hand the document to
// `read`, which throws mth::Error on a schema violation. Any mth::Error
// becomes the nullopt + *error result the public readers promise.
// ---------------------------------------------------------------------------

template <typename Read>
auto read_json(std::string_view text, std::string* error, Read read)
    -> std::optional<decltype(read(json::Value()))> {
  try {
    return read(json::parse(text));
  } catch (const Error& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

/// Throws unless doc["version"] is the integer `want`.
void expect_version(const json::Value& doc, std::int64_t want);

std::string trimmed(const std::string& s);

}  // namespace mth::lint::detail
