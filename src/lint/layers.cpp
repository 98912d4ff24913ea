// Include-graph extraction and module-layering enforcement: the layer-cycle
// and layer-violation rules. The contract is declared module-by-module in
// tools/lint_layers.json (direct dependencies only; the transitive closure
// is computed here), and three things are enforced over the include edges
// collected from the tree:
//
//  * the declared module graph itself is closed and acyclic — a bad edit to
//    the JSON is a finding against the config file, at the same gate;
//  * every `#include "mth/X/..."` from a file in module M has X in the
//    transitive closure of M's declared deps (layer-violation);
//  * the file-level include graph over the scanned files is acyclic
//    (layer-cycle; the finding spells out the full cycle path).
//
// Files with no module (tools, tests, bench, examples) are exempt from the
// violation check but their edges still feed cycle detection.

#include <algorithm>
#include <map>
#include <set>

#include "scan.hpp"

namespace mth::lint {

using detail::is_ident;
using detail::is_punct;
using detail::Tok;

std::vector<IncludeUse> collect_includes(std::string_view text) {
  const detail::Scan s = detail::scan_source(text);
  const std::vector<std::set<Rule>> allowed = detail::parse_suppressions(s);
  std::vector<IncludeUse> out;
  const auto& T = s.tokens;
  for (std::size_t i = 0; i + 2 < T.size(); ++i) {
    if (!is_punct(T[i], "#") || !is_ident(T[i + 1], "include") ||
        T[i + 2].kind != Tok::Literal) {
      continue;  // angle includes never tokenize as a literal — skipped
    }
    IncludeUse u;
    u.target = T[i + 2].text;
    u.line = T[i + 2].line;
    u.allow_violation =
        detail::suppressed(allowed, Rule::LayerViolation, u.line);
    u.allow_cycle = detail::suppressed(allowed, Rule::LayerCycle, u.line);
    const std::size_t li = static_cast<std::size_t>(u.line - 1);
    if (li < s.lines.size()) u.snippet = detail::trimmed(s.lines[li]);
    out.push_back(std::move(u));
  }
  return out;
}

std::optional<LayerConfig> parse_layers(std::string_view text,
                                        std::string* error) {
  return detail::read_json(text, error, [](const json::Value& doc) {
    detail::expect_version(doc, 1);
    LayerConfig cfg;
    for (const auto& [name, deps] : doc.get("modules").members()) {
      std::vector<std::string> names;
      for (std::size_t i = 0; i < deps.size(); ++i) {
        names.push_back(deps.at(i).as_string());
      }
      cfg.modules.emplace_back(name, std::move(names));
    }
    return cfg;
  });
}

namespace {

// "mth/rap/rap.hpp" resolves against the install-include root; anything else
// is a same-directory include relative to the including file.
std::string resolve_include(const std::string& from,
                            const std::string& target) {
  if (target.compare(0, 4, "mth/") == 0) return "src/include/" + target;
  const std::size_t slash = from.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "" : from.substr(0, slash + 1);
  return detail::normalize_path(dir + target);
}

std::string join_path(const std::vector<std::string>& nodes) {
  std::string out;
  for (const std::string& n : nodes) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

}  // namespace

std::vector<Finding> check_layers(const std::vector<FileIncludes>& files,
                                  const LayerConfig& config,
                                  const std::string& config_label) {
  std::vector<Finding> out;
  const auto report = [&](Rule rule, const std::string& file, int line,
                          std::string message, std::string snippet) {
    Finding f;
    f.rule = rule;
    f.file = file;
    f.line = line;
    f.message = std::move(message);
    f.snippet = std::move(snippet);
    out.push_back(std::move(f));
  };

  // --- declared module DAG: closed and acyclic -----------------------------
  std::map<std::string, std::vector<std::string>> deps;
  for (const auto& [name, d] : config.modules) deps[name] = d;
  bool config_ok = !config.empty();
  for (const auto& [name, d] : deps) {
    for (const std::string& x : d) {
      if (deps.count(x) == 0) {
        report(Rule::LayerViolation, config_label, 0,
               "module '" + name + "' depends on undeclared module '" + x +
                   "'; every dependency must itself be declared in " +
                   config_label,
               "");
        config_ok = false;
      }
    }
  }
  if (config_ok) {
    // DFS with colors; every back edge names its full cycle path.
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> path;
    const auto dfs = [&](const auto& self, const std::string& m) -> void {
      color[m] = 1;
      path.push_back(m);
      for (const std::string& x : deps[m]) {
        if (color[x] == 1) {
          std::vector<std::string> cycle(
              std::find(path.begin(), path.end(), x), path.end());
          cycle.push_back(x);
          report(Rule::LayerCycle, config_label, 0,
                 "declared module dependencies form a cycle: " +
                     join_path(cycle),
                 "");
          config_ok = false;
        } else if (color[x] == 0) {
          self(self, x);
        }
      }
      path.pop_back();
      color[m] = 2;
    };
    for (const auto& [name, d] : deps) {
      if (color[name] == 0) dfs(dfs, name);
    }
  }

  // --- per-include layering check ------------------------------------------
  if (config_ok) {
    // Transitive closure via memoized DFS (safe: the graph is acyclic here).
    std::map<std::string, std::set<std::string>> closure;
    const auto close = [&](const auto& self,
                           const std::string& m) -> const std::set<std::string>& {
      auto it = closure.find(m);
      if (it != closure.end()) return it->second;
      std::set<std::string> acc;
      for (const std::string& x : deps[m]) {
        acc.insert(x);
        const auto& sub = self(self, x);
        acc.insert(sub.begin(), sub.end());
      }
      return closure.emplace(m, std::move(acc)).first->second;
    };
    for (const FileIncludes& fi : files) {
      const std::string file = detail::normalize_path(fi.file);
      const std::string mod = detail::module_of(file);
      if (mod.empty()) continue;
      for (const IncludeUse& inc : fi.includes) {
        const std::string dep = detail::module_of_include(inc.target);
        if (dep.empty() || dep == mod || inc.allow_violation) continue;
        if (deps.count(mod) == 0) {
          report(Rule::LayerViolation, file, inc.line,
                 "module '" + mod + "' is not declared in " + config_label +
                     "; declare it (with its dependency list) before adding "
                     "cross-module includes",
                 inc.snippet);
        } else if (close(close, mod).count(dep) == 0) {
          report(Rule::LayerViolation, file, inc.line,
                 "module '" + mod + "' may not include module '" + dep +
                     "' (not in the transitive closure of its declared "
                     "dependencies); amend " +
                     config_label + " if this edge is intended",
                 inc.snippet);
        }
      }
    }
  }

  // --- file-level include-graph cycles -------------------------------------
  struct Edge {
    std::size_t to;
    const IncludeUse* use;
  };
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < files.size(); ++i) {
    index[detail::normalize_path(files[i].file)] = i;
  }
  std::vector<std::vector<Edge>> edges(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string from = detail::normalize_path(files[i].file);
    for (const IncludeUse& inc : files[i].includes) {
      const auto it = index.find(resolve_include(from, inc.target));
      if (it != index.end()) edges[i].push_back({it->second, &inc});
    }
  }
  std::vector<int> color(files.size(), 0);
  std::vector<std::size_t> path;
  const auto dfs_files = [&](const auto& self, std::size_t u) -> void {
    color[u] = 1;
    path.push_back(u);
    for (const Edge& e : edges[u]) {
      if (color[e.to] == 1) {
        if (e.use->allow_cycle) continue;
        std::vector<std::string> cycle;
        for (auto it = std::find(path.begin(), path.end(), e.to);
             it != path.end(); ++it) {
          cycle.push_back(detail::normalize_path(files[*it].file));
        }
        cycle.push_back(detail::normalize_path(files[e.to].file));
        report(Rule::LayerCycle, detail::normalize_path(files[u].file),
               e.use->line, "include cycle: " + join_path(cycle),
               e.use->snippet);
      } else if (color[e.to] == 0) {
        self(self, e.to);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (color[i] == 0) dfs_files(dfs_files, i);
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  return out;
}

}  // namespace mth::lint
