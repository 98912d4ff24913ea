#include "mth/lint/lint.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "scan.hpp"

namespace mth::lint {

using detail::Ctx;
using detail::Scan;
using detail::Tok;
using detail::Token;
using detail::is_ident;
using detail::is_punct;

namespace {

// ---------------------------------------------------------------------------
// Token-level rule implementations (the v1 rule families). The scanner, the
// suppression machinery and the JSON readers live in scan.cpp; the v2
// semantic passes live in scope.cpp (parallel captures) and layers.cpp
// (include graph).
// ---------------------------------------------------------------------------

void rule_det_rand(Ctx& ctx) {
  // Unseeded randomness and wall-clock entropy. util::Rng (explicit seed)
  // and util::Timer / std::chrono::steady_clock are the sanctioned sources.
  static const std::set<std::string> kBannedCalls = {"rand", "srand", "time",
                                                     "clock"};
  const auto& T = ctx.scan.tokens;
  for (std::size_t i = 0; i < T.size(); ++i) {
    if (T[i].kind != Tok::Ident) continue;
    if (T[i].text == "random_device") {
      ctx.report(Rule::DetRand, T[i].line,
                 "std::random_device is nondeterministic; seed a util::Rng "
                 "explicitly instead");
    } else if (kBannedCalls.count(T[i].text) != 0 && i + 1 < T.size() &&
               is_punct(T[i + 1], "(")) {
      ctx.report(Rule::DetRand, T[i].line,
                 "call to '" + T[i].text +
                     "' injects wall-clock/global entropy; use util::Rng "
                     "(seeded) or util::Timer (steady clock)");
    }
  }
}

void rule_det_thread(Ctx& ctx, const std::string& module) {
  // util::ThreadPool (src/util) is the only sanctioned home for raw
  // concurrency primitives; everything else goes through parallel_for.
  if (module == "util") return;
  const auto& T = ctx.scan.tokens;
  for (std::size_t i = 0; i + 2 < T.size(); ++i) {
    if (is_ident(T[i], "std") && is_punct(T[i + 1], "::") &&
        (is_ident(T[i + 2], "thread") || is_ident(T[i + 2], "async"))) {
      ctx.report(Rule::DetThread, T[i].line,
                 "raw std::" + T[i + 2].text +
                     " outside util::ThreadPool; use util::parallel_for / "
                     "parallel_reduce (deterministic chunk geometry)");
    }
  }
}

bool is_unordered_ident(const Token& t) {
  return t.kind == Tok::Ident && (t.text == "unordered_map" ||
                                  t.text == "unordered_set" ||
                                  t.text == "unordered_multimap" ||
                                  t.text == "unordered_multiset");
}

void rule_det_unordered(Ctx& ctx, const std::string& module) {
  if (!detail::is_det_module(module)) return;
  const auto& T = ctx.scan.tokens;
  for (const Token& t : T) {
    if (is_unordered_ident(t)) {
      ctx.report(Rule::DetUnordered, t.line,
                 "'" + t.text + "' in deterministic subsystem '" + module +
                     "'; use a sorted/flat container, or justify with "
                     "mth-lint: allow(det-unordered) if the hash order is "
                     "provably unobservable");
    }
  }
}

void rule_unordered_iter(Ctx& ctx) {
  const auto& T = ctx.scan.tokens;
  // Pass 1: names declared with an unordered container type in this buffer.
  std::set<std::string> tracked;
  for (std::size_t i = 0; i < T.size(); ++i) {
    if (!is_unordered_ident(T[i]) || i + 1 >= T.size() ||
        !is_punct(T[i + 1], "<")) {
      continue;
    }
    std::size_t j = i + 2;
    int depth = 1;
    while (j < T.size() && depth > 0) {
      if (is_punct(T[j], "<")) ++depth;
      if (is_punct(T[j], ">")) --depth;
      ++j;
    }
    while (j < T.size() &&
           (is_punct(T[j], "&") || is_punct(T[j], "*") ||
            is_ident(T[j], "const"))) {
      ++j;
    }
    if (j < T.size() && T[j].kind == Tok::Ident) tracked.insert(T[j].text);
  }
  if (tracked.empty()) return;
  // Pass 2: range-for over a tracked name, or an explicit .begin() walk.
  for (std::size_t i = 0; i < T.size(); ++i) {
    if (is_ident(T[i], "for") && i + 1 < T.size() && is_punct(T[i + 1], "(")) {
      std::size_t j = i + 2;
      int depth = 1;
      std::size_t colon = 0;
      while (j < T.size() && depth > 0) {
        if (is_punct(T[j], "(")) ++depth;
        if (is_punct(T[j], ")")) --depth;
        if (depth == 1 && is_punct(T[j], ":") && colon == 0) colon = j;
        ++j;
      }
      if (colon == 0) continue;
      for (std::size_t k = colon + 1; k < j; ++k) {
        if (T[k].kind != Tok::Ident) break;
        if (tracked.count(T[k].text) != 0) {
          ctx.report(Rule::UnorderedIter, T[k].line,
                     "iteration over unordered container '" + T[k].text +
                         "' is hash-order-dependent; sort first or use a "
                         "flat container");
        }
        break;
      }
    }
    if (T[i].kind == Tok::Ident && tracked.count(T[i].text) != 0 &&
        i + 2 < T.size() && is_punct(T[i + 1], ".") &&
        (is_ident(T[i + 2], "begin") || is_ident(T[i + 2], "cbegin") ||
         is_ident(T[i + 2], "rbegin"))) {
      ctx.report(Rule::UnorderedIter, T[i].line,
                 "explicit traversal of unordered container '" + T[i].text +
                     "' is hash-order-dependent; sort first or use a flat "
                     "container");
    }
  }
}

// Shared by the trace-registry rule and collect_trace_uses(): invoke
// `hit(kind, literal, line)` for every statically-known span/counter name.
// kind 0 == span, 1 == counter. Spans come from three shapes: the MTH_SPAN
// macro, ParallelOptions::trace_name assignments, and direct trace::Span
// RAII declarations (`trace::Span s(cond ? "a" : "b")` — every literal in
// the constructor argument list is a possible span name).
template <typename Fn>
void for_each_trace_literal(const std::vector<Token>& T, Fn&& hit) {
  for (std::size_t i = 0; i + 2 < T.size(); ++i) {
    if (T[i].kind != Tok::Ident) continue;
    if ((T[i].text == "MTH_SPAN" || T[i].text == "MTH_COUNT") &&
        is_punct(T[i + 1], "(") && T[i + 2].kind == Tok::Literal) {
      hit(T[i].text == "MTH_SPAN" ? 0 : 1, T[i + 2].text, T[i + 2].line);
    } else if (T[i].text == "trace_name" && is_punct(T[i + 1], "=") &&
               T[i + 2].kind == Tok::Literal) {
      hit(0, T[i + 2].text, T[i + 2].line);
    } else if (T[i].text == "Span" && T[i + 1].kind == Tok::Ident &&
               is_punct(T[i + 2], "(")) {
      std::size_t j = i + 3;
      int depth = 1;
      while (j < T.size() && depth > 0) {
        if (is_punct(T[j], "(")) ++depth;
        if (is_punct(T[j], ")")) --depth;
        if (depth > 0 && T[j].kind == Tok::Literal) {
          hit(0, T[j].text, T[j].line);
        }
        ++j;
      }
    }
  }
}

void rule_trace_registry(Ctx& ctx, const Registry& registry) {
  if (registry.empty()) return;
  const std::set<std::string> spans(registry.spans.begin(),
                                    registry.spans.end());
  const std::set<std::string> counters(registry.counters.begin(),
                                       registry.counters.end());
  for_each_trace_literal(
      ctx.scan.tokens, [&](int kind, const std::string& name, int line) {
        const bool known =
            kind == 0 ? spans.count(name) != 0 : counters.count(name) != 0;
        if (!known) {
          ctx.report(Rule::TraceRegistry, line,
                     std::string(kind == 0 ? "span" : "counter") + " name \"" +
                         name +
                         "\" is not in the span registry "
                         "(tools/trace_spans.json); run "
                         "mth_lint --update-registry");
        }
      });
}

void rule_ab_doc(Ctx& ctx, const std::string& module) {
  // The unified A/B-knob doc convention (observability PR): any doc block in
  // the public lp/ilp/rap/ser/serve headers that advertises an A/B knob must
  // say where the A/B lives — a bench binary or a tools/ entry point.
  if (!detail::is_public_header(ctx.file)) return;
  if (module != "lp" && module != "ilp" && module != "rap" &&
      module != "ser" && module != "serve") {
    return;
  }
  const Scan& s = ctx.scan;
  std::size_t li = 0;
  while (li < s.lines.size()) {
    if (!s.doc[li]) {
      ++li;
      continue;
    }
    std::size_t end = li;
    std::string block;
    int first_ab_line = 0;
    while (end < s.lines.size() && s.doc[end]) {
      if (s.comments[end].find("A/B") != std::string::npos &&
          first_ab_line == 0) {
        first_ab_line = static_cast<int>(end) + 1;
      }
      block += s.comments[end];
      block += '\n';
      ++end;
    }
    if (first_ab_line != 0 && block.find("bench") == std::string::npos &&
        block.find("mth_fuzz") == std::string::npos &&
        block.find("mth_flow") == std::string::npos &&
        block.find("tools/") == std::string::npos) {
      ctx.report(Rule::AbDoc, first_ab_line,
                 "A/B knob doc must name the bench or tools/ entry point "
                 "where the A/B comparison lives (unified bench+flag "
                 "convention)");
    }
    li = end;
  }
}

void rule_simd_merge(Ctx& ctx) {
  // Vector intrinsics are confined to the mth::simd kernel layer, where the
  // bit-identity contract (elementwise lanes, in-index-order merges, FP
  // contraction pinned off) is enforced by construction and by simd_test.
  // Horizontal-merge intrinsics (hadd/hsub and the *_reduce_* families)
  // reassociate in lane-shuffle order, so they are banned even there —
  // reductions must go through scalar index-order merges (argmin_merge).
  const bool in_simd = ctx.file.find("util/simd") != std::string::npos;
  // An intrinsic-family identifier: _mm_* / _mm256_* / _mm512_* (the "_mm"
  // prefix alone would also catch e.g. _mmap_count), or a vector register
  // type __m128/__m256d/... ("__m" + digit).
  const auto is_intrinsic = [](const std::string& id) {
    if (id.compare(0, 3, "_mm") != 0) return false;
    std::size_t i = 3;
    while (i < id.size() && std::isdigit(static_cast<unsigned char>(id[i]))) {
      ++i;
    }
    return i < id.size() && id[i] == '_';
  };
  for (const Token& t : ctx.scan.tokens) {
    if (t.kind != Tok::Ident) continue;
    const std::string& id = t.text;
    const bool vec = is_intrinsic(id) ||
                     (id.compare(0, 3, "__m") == 0 && id.size() > 3 &&
                      std::isdigit(static_cast<unsigned char>(id[3])));
    if (!vec) continue;
    if (id.find("hadd") != std::string::npos ||
        id.find("hsub") != std::string::npos ||
        id.find("reduce") != std::string::npos) {
      ctx.report(Rule::SimdMerge, t.line,
                 "horizontal lane merge '" + id +
                     "' reassociates in shuffle order; merge lanes in index "
                     "order (simd::argmin_merge) instead");
    } else if (!in_simd) {
      ctx.report(Rule::SimdMerge, t.line,
                 "vector intrinsic '" + id +
                     "' outside the mth::simd kernel layer; add a kernel to "
                     "util/simd (where the bit-identity contract is "
                     "enforced) instead");
    }
  }
}

/// Per token: 1 inside a loop body. Lexical loop detection: for/while
/// bodies (braced or single-statement) and do bodies.
std::vector<char> loop_mask(const std::vector<Token>& T) {
  std::vector<char> in_loop(T.size(), 0);
  for (std::size_t i = 0; i < T.size(); ++i) {
    std::size_t body;
    if ((is_ident(T[i], "for") || is_ident(T[i], "while")) &&
        i + 1 < T.size() && is_punct(T[i + 1], "(")) {
      std::size_t j = i + 2;
      int depth = 1;
      while (j < T.size() && depth > 0) {
        if (is_punct(T[j], "(")) ++depth;
        if (is_punct(T[j], ")")) --depth;
        ++j;
      }
      body = j;
    } else if (is_ident(T[i], "do")) {
      body = i + 1;
    } else {
      continue;
    }
    if (body >= T.size()) continue;
    std::size_t end = body;
    if (is_punct(T[body], "{")) {
      std::size_t j = body + 1;
      int depth = 1;
      while (j < T.size() && depth > 0) {
        if (is_punct(T[j], "{")) ++depth;
        if (is_punct(T[j], "}")) --depth;
        ++j;
      }
      end = j;
    } else {
      while (end < T.size() && !is_punct(T[end], ";")) ++end;
    }
    for (std::size_t k = body; k < end; ++k) in_loop[k] = 1;
  }
  return in_loop;
}

void rule_ihpwl_full_scan(Ctx& ctx, const std::string& module) {
  // total_hpwl() is a full-netlist rescan; inside a rap/legal loop it is the
  // exact regression the legal module's per-net HPWL cache removed.
  if (module != "rap" && module != "legal") return;
  const auto& T = ctx.scan.tokens;
  const std::vector<char> in_loop = loop_mask(T);
  for (std::size_t i = 0; i + 1 < T.size(); ++i) {
    if (in_loop[i] != 0 && is_ident(T[i], "total_hpwl") &&
        is_punct(T[i + 1], "(")) {
      ctx.report(Rule::IhpwlFullScan, T[i].line,
                 "total_hpwl() full-netlist rescan inside a '" + module +
                     "' loop; cost moves through the per-net HPWL cache "
                     "(legal::detail::SwapMetric before/after/total), or "
                     "justify with mth-lint: allow(ihpwl-full-scan)");
    }
  }
}

void rule_pin_position_loop(Ctx& ctx) {
  // The legalizer's hot loops, the router's per-net loop and the global
  // placer's B2B net build read pins through db::PinTable: one load of the
  // instance position per pin, where Netlist::pin_position makes three
  // bounds-checked lookups. Scoped to the files whose loops the table serves
  // (legal/polish, legal/improve, rap/rclegal, route/router, place/placer,
  // place/gp_kernels).
  const bool hot = ctx.file.find("legal/polish") != std::string::npos ||
                   ctx.file.find("legal/improve") != std::string::npos ||
                   ctx.file.find("rap/rclegal") != std::string::npos ||
                   ctx.file.find("route/router") != std::string::npos ||
                   ctx.file.find("place/placer") != std::string::npos ||
                   ctx.file.find("place/gp_kernels") != std::string::npos;
  if (!hot) return;
  const auto& T = ctx.scan.tokens;
  const std::vector<char> in_loop = loop_mask(T);
  for (std::size_t i = 0; i + 1 < T.size(); ++i) {
    if (in_loop[i] != 0 && is_ident(T[i], "pin_position") &&
        is_punct(T[i + 1], "(")) {
      ctx.report(Rule::PinPositionLoop, T[i].line,
                 "pin_position() inside a loop in " + ctx.file +
                     "; read pins through db::PinTable (pins/position), or "
                     "justify with mth-lint: allow(pin-position-loop)");
    }
  }
}

void rule_row_rescan(Ctx& ctx, const std::string& module) {
  // The detailed-placement sweeps hold an O(1) neighbor-query contract
  // through legal::RowList: evaluating a move must not re-bucket instances
  // by row (row_at_y) or re-sort a row — that is the per-sweep O(n log n)
  // rescan the linked row structure removed. Scoped to legal/polish and
  // legal/improve; the RowList build (legal/rowlist.cpp) is the one
  // sanctioned scan.
  if (module != "legal") return;
  if (ctx.file.find("polish") == std::string::npos &&
      ctx.file.find("improve") == std::string::npos) {
    return;
  }
  const auto& T = ctx.scan.tokens;
  for (std::size_t i = 0; i + 1 < T.size(); ++i) {
    const bool rescan = is_ident(T[i], "row_at_y") ||
                        is_ident(T[i], "sort") ||
                        is_ident(T[i], "stable_sort");
    if (!rescan || !is_punct(T[i + 1], "(")) continue;
    ctx.report(Rule::RowRescan, T[i].line,
               "'" + T[i].text + "' re-scans rows inside " + ctx.file +
                   "; neighbor queries go through legal::RowList "
                   "(pred/next/swap_adjacent are O(1)), or justify with "
                   "mth-lint: allow(row-rescan)");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const char* to_string(Rule r) {
  switch (r) {
    case Rule::DetRand: return "det-rand";
    case Rule::DetThread: return "det-thread";
    case Rule::DetUnordered: return "det-unordered";
    case Rule::UnorderedIter: return "unordered-iter";
    case Rule::TraceRegistry: return "trace-registry";
    case Rule::AbDoc: return "ab-doc";
    case Rule::SimdMerge: return "simd-merge";
    case Rule::IhpwlFullScan: return "ihpwl-full-scan";
    case Rule::RowRescan: return "row-rescan";
    case Rule::PinPositionLoop: return "pin-position-loop";
    case Rule::ParCaptureRace: return "par-capture-race";
    case Rule::FpOrderedMerge: return "fp-ordered-merge";
    case Rule::LayerCycle: return "layer-cycle";
    case Rule::LayerViolation: return "layer-violation";
  }
  return "?";
}

const char* rule_description(Rule r) {
  switch (r) {
    case Rule::DetRand:
      return "Unseeded randomness or wall-clock entropy; util::Rng and "
             "util::Timer are the sanctioned sources.";
    case Rule::DetThread:
      return "Raw std::thread/std::async outside util::ThreadPool breaks "
             "the deterministic chunk-geometry contract.";
    case Rule::DetUnordered:
      return "Unordered container in a deterministic subsystem; hash order "
             "must never be observable.";
    case Rule::UnorderedIter:
      return "Iteration over an unordered container is "
             "hash-order-dependent.";
    case Rule::TraceRegistry:
      return "Span/counter literal not in the checked-in span registry "
             "(tools/trace_spans.json).";
    case Rule::AbDoc:
      return "A/B knob doc without a bench or tools/ reference (unified "
             "bench+flag convention).";
    case Rule::SimdMerge:
      return "Vector intrinsic outside mth::simd, or a horizontal "
             "lane-merge intrinsic (shuffle-order reassociation).";
    case Rule::IhpwlFullScan:
      return "total_hpwl() full-netlist rescan inside a rap/legal loop; "
             "per-move costing goes through the legal module's per-net HPWL "
             "cache (legal::detail::SwapMetric).";
    case Rule::RowRescan:
      return "row_at_y / sort inside the detailed-placement sweeps; "
             "neighbor queries go through legal::RowList.";
    case Rule::PinPositionLoop:
      return "Netlist::pin_position() inside a loop in legal/polish, "
             "legal/improve, rap/rclegal, route/router, place/placer or "
             "place/gp_kernels; pins are read through db::PinTable.";
    case Rule::ParCaptureRace:
      return "Parallel worker lambda writes through a by-reference capture "
             "to shared non-atomic state not indexed by a chunk/index "
             "parameter — a data race TSan can only see if the interleaving "
             "executes.";
    case Rule::FpOrderedMerge:
      return "Floating-point accumulation on captured state inside a "
             "parallel worker body bypasses the ordered per-chunk merge "
             "that keeps results bit-identical at any MTH_THREADS.";
    case Rule::LayerCycle:
      return "Include cycle, in the file-level include graph or in the "
             "declared module DAG (tools/lint_layers.json).";
    case Rule::LayerViolation:
      return "Include edge outside the transitive closure of the module's "
             "declared dependencies (tools/lint_layers.json).";
  }
  return "?";
}

std::optional<Rule> rule_from_string(std::string_view id) {
  static const std::map<std::string_view, Rule> kIds = {
      {"det-rand", Rule::DetRand},
      {"det-thread", Rule::DetThread},
      {"det-unordered", Rule::DetUnordered},
      {"unordered-iter", Rule::UnorderedIter},
      {"trace-registry", Rule::TraceRegistry},
      {"ab-doc", Rule::AbDoc},
      {"simd-merge", Rule::SimdMerge},
      {"ihpwl-full-scan", Rule::IhpwlFullScan},
      {"row-rescan", Rule::RowRescan},
      {"pin-position-loop", Rule::PinPositionLoop},
      {"par-capture-race", Rule::ParCaptureRace},
      {"fp-ordered-merge", Rule::FpOrderedMerge},
      {"layer-cycle", Rule::LayerCycle},
      {"layer-violation", Rule::LayerViolation},
  };
  const auto it = kIds.find(id);
  return it == kIds.end() ? std::nullopt : std::optional<Rule>(it->second);
}

std::string finding_key(const Finding& f) {
  return std::string(to_string(f.rule)) + '\x1f' + f.file + '\x1f' + f.snippet;
}

std::vector<Finding> lint_source(const std::string& file,
                                 std::string_view text,
                                 const Options& options) {
  const std::string path = detail::normalize_path(file);
  const std::string module = detail::module_of(path);
  const Scan scan = detail::scan_source(text);
  const std::vector<std::set<Rule>> allowed = detail::parse_suppressions(scan);

  std::vector<Finding> out;
  Ctx ctx{path, scan, allowed, out};
  rule_det_rand(ctx);
  rule_det_thread(ctx, module);
  rule_det_unordered(ctx, module);
  rule_unordered_iter(ctx);
  rule_trace_registry(ctx, options.registry);
  rule_ab_doc(ctx, module);
  rule_simd_merge(ctx);
  rule_ihpwl_full_scan(ctx, module);
  rule_row_rescan(ctx, module);
  rule_pin_position_loop(ctx);
  detail::rule_parallel_capture(ctx);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

TraceUses collect_trace_uses(std::string_view text) {
  const Scan scan = detail::scan_source(text);
  TraceUses uses;
  std::set<std::string> seen_spans, seen_counters;
  for_each_trace_literal(
      scan.tokens, [&](int kind, const std::string& name, int /*line*/) {
        auto& seen = kind == 0 ? seen_spans : seen_counters;
        auto& list = kind == 0 ? uses.spans : uses.counters;
        if (seen.insert(name).second) list.push_back(name);
      });
  return uses;
}

std::string findings_to_json(const std::vector<Finding>& findings) {
  // Schema v2 (per-rule counts and a per-finding module label), consumed
  // by tools/lint_smoke.sh's schema check and CI artifact tooling.
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[to_string(f.rule)];
  json::Value count_obj = json::Value::object();
  for (const auto& [rule, n] : counts) {
    count_obj.set(rule, json::Value::integer(n));
  }
  json::Value list = json::Value::array();
  for (const Finding& f : findings) {
    json::Value v = json::Value::object();
    v.set("rule", json::Value::string(to_string(f.rule)));
    v.set("file", json::Value::string(f.file));
    v.set("line", json::Value::integer(f.line));
    v.set("module", json::Value::string(detail::module_of(f.file)));
    v.set("message", json::Value::string(f.message));
    v.set("snippet", json::Value::string(f.snippet));
    list.push(std::move(v));
  }
  json::Value doc = json::Value::object();
  doc.set("version", json::Value::integer(2));
  doc.set("total",
          json::Value::integer(static_cast<std::int64_t>(findings.size())));
  doc.set("counts", std::move(count_obj));
  doc.set("findings", std::move(list));
  return json::write(doc);
}

std::string baseline_to_json(const std::vector<Finding>& findings) {
  // One entry per distinct key, sorted, so regeneration is diff-stable.
  std::vector<const Finding*> sorted;
  sorted.reserve(findings.size());
  for (const Finding& f : findings) sorted.push_back(&f);
  std::sort(sorted.begin(), sorted.end(),
            [](const Finding* a, const Finding* b) {
              return finding_key(*a) < finding_key(*b);
            });
  std::set<std::string> keys;
  json::Value list = json::Value::array();
  for (const Finding* f : sorted) {
    if (!keys.insert(finding_key(*f)).second) continue;
    json::Value v = json::Value::object();
    v.set("rule", json::Value::string(to_string(f->rule)));
    v.set("file", json::Value::string(f->file));
    v.set("snippet", json::Value::string(f->snippet));
    list.push(std::move(v));
  }
  json::Value doc = json::Value::object();
  doc.set("version", json::Value::integer(1));
  doc.set("suppressions", std::move(list));
  return json::write(doc);
}

std::optional<std::vector<std::string>> parse_baseline(std::string_view text,
                                                       std::string* error) {
  return detail::read_json(text, error, [](const json::Value& doc) {
    detail::expect_version(doc, 1);
    const json::Value& list = doc.get("suppressions");
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const json::Value& v = list.at(i);
      const std::string& rule = v.get("rule").as_string();
      if (!rule_from_string(rule)) {
        throw Error("unknown rule id '" + rule + "'");
      }
      keys.push_back(rule + '\x1f' + v.get("file").as_string() + '\x1f' +
                     v.get("snippet").as_string());
    }
    return keys;
  });
}

std::vector<Finding> apply_baseline(
    std::vector<Finding> findings,
    const std::vector<std::string>& baseline_keys,
    std::vector<std::string>* stale) {
  const std::set<std::string> keys(baseline_keys.begin(),
                                   baseline_keys.end());
  std::set<std::string> hit;
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    const std::string key = finding_key(f);
    if (keys.count(key) != 0) {
      hit.insert(key);
    } else {
      kept.push_back(std::move(f));
    }
  }
  if (stale != nullptr) {
    for (const std::string& key : keys) {
      if (hit.count(key) == 0) stale->push_back(key);
    }
  }
  return kept;
}

std::string registry_to_json(const Registry& registry) {
  const auto sorted_list = [](std::vector<std::string> names) {
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    json::Value list = json::Value::array();
    for (std::string& name : names) {
      list.push(json::Value::string(std::move(name)));
    }
    return list;
  };
  json::Value doc = json::Value::object();
  doc.set("version", json::Value::integer(1));
  doc.set("spans", sorted_list(registry.spans));
  doc.set("counters", sorted_list(registry.counters));
  return json::write(doc);
}

std::optional<Registry> parse_registry(std::string_view text,
                                       std::string* error) {
  return detail::read_json(text, error, [](const json::Value& doc) {
    detail::expect_version(doc, 1);
    Registry reg;
    const std::pair<const char*, std::vector<std::string>*> lists[] = {
        {"spans", &reg.spans}, {"counters", &reg.counters}};
    for (const auto& [key, dst] : lists) {
      const json::Value& list = doc.get(key);
      for (std::size_t i = 0; i < list.size(); ++i) {
        dst->push_back(list.at(i).as_string());
      }
    }
    return reg;
  });
}

}  // namespace mth::lint
