#include "scan.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace mth::lint::detail {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Scan scan_source(std::string_view text) {
  Scan s;
  {
    std::string cur;
    for (char c : text) {
      if (c == '\n') {
        s.lines.push_back(cur);
        cur.clear();
      } else if (c != '\r') {
        cur += c;
      }
    }
    s.lines.push_back(cur);
  }
  s.comments.resize(s.lines.size());
  s.doc.resize(s.lines.size(), false);

  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  // End offset of the last emitted token — used to detect the raw-string
  // prefix (an identifier ending in 'R' immediately before the quote).
  std::size_t last_tok_end = static_cast<std::size_t>(-1);

  auto add_comment = [&](int at, std::string_view body, bool is_doc) {
    std::string& dst = s.comments[static_cast<std::size_t>(at - 1)];
    if (!dst.empty()) dst += '\n';
    dst.append(body);
    if (is_doc) s.doc[static_cast<std::size_t>(at - 1)] = true;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      std::size_t j = i;
      while (j < n && text[j] != '\n') ++j;
      const std::string_view body = text.substr(i, j - i);
      add_comment(line, body, body.substr(0, 3) == "///");
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      i += 2;
      std::string body;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          add_comment(line, body, false);
          body.clear();
          ++line;
        } else {
          body += text[i];
        }
        ++i;
      }
      add_comment(line, body, false);
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    if (c == '"') {
      const bool raw = !s.tokens.empty() && last_tok_end == i &&
                       s.tokens.back().kind == Tok::Ident &&
                       s.tokens.back().text.back() == 'R';
      std::string content;
      if (raw) {
        s.tokens.pop_back();  // the R / u8R prefix is part of the literal
        std::size_t j = i + 1;
        std::string delim;
        while (j < n && text[j] != '(') delim += text[j++];
        ++j;  // past '('
        const std::string close = ")" + delim + "\"";
        const std::size_t end = text.find(close, j);
        const std::size_t stop = end == std::string_view::npos ? n : end;
        const int at = line;
        for (std::size_t k = j; k < stop; ++k) {
          if (text[k] == '\n')
            ++line;
          else
            content += text[k];
        }
        i = stop == n ? n : stop + close.size();
        s.tokens.push_back({Tok::Literal, content, at});
      } else {
        std::size_t j = i + 1;
        while (j < n && text[j] != '"' && text[j] != '\n') {
          if (text[j] == '\\' && j + 1 < n) {
            content += text[j + 1];
            j += 2;
          } else {
            content += text[j++];
          }
        }
        s.tokens.push_back({Tok::Literal, content, line});
        i = (j < n && text[j] == '"') ? j + 1 : j;
      }
      last_tok_end = i;
      continue;
    }
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && text[j] != '\'' && text[j] != '\n') {
        j += (text[j] == '\\' && j + 1 < n) ? 2 : 1;
      }
      s.tokens.push_back({Tok::Number, "", line});
      i = (j < n && text[j] == '\'') ? j + 1 : j;
      last_tok_end = i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(text[j])) ++j;
      s.tokens.push_back(
          {Tok::Ident, std::string(text.substr(i, j - i)), line});
      i = j;
      last_tok_end = i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Numbers swallow digit separators (1'000'000) so a separator quote
      // is never mistaken for a char literal.
      std::size_t j = i + 1;
      while (j < n && (ident_char(text[j]) || text[j] == '.' ||
                       text[j] == '\'')) {
        ++j;
      }
      s.tokens.push_back({Tok::Number, "", line});
      i = j;
      last_tok_end = i;
      continue;
    }
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      s.tokens.push_back({Tok::Punct, "::", line});
      i += 2;
      last_tok_end = i;
      continue;
    }
    s.tokens.push_back({Tok::Punct, std::string(1, c), line});
    ++i;
    last_tok_end = i;
  }
  return s;
}

std::string normalize_path(std::string p) {
  std::replace(p.begin(), p.end(), '\\', '/');
  while (p.substr(0, 2) == "./") p = p.substr(2);
  return p;
}

std::string module_of(const std::string& file) {
  static const std::string kHdr = "src/include/mth/";
  static const std::string kSrc = "src/";
  std::string rest;
  if (file.compare(0, kHdr.size(), kHdr) == 0) {
    rest = file.substr(kHdr.size());
  } else if (file.compare(0, kSrc.size(), kSrc) == 0) {
    rest = file.substr(kSrc.size());
  } else {
    return "";
  }
  const std::size_t slash = rest.find('/');
  return slash == std::string::npos ? "" : rest.substr(0, slash);
}

std::string module_of_include(const std::string& target) {
  static const std::string kPrefix = "mth/";
  if (target.compare(0, kPrefix.size(), kPrefix) != 0) return "";
  const std::string rest = target.substr(kPrefix.size());
  const std::size_t slash = rest.find('/');
  return slash == std::string::npos ? "" : rest.substr(0, slash);
}

bool is_det_module(const std::string& module) {
  // Deterministic subsystems: everything whose byte-exact output feeds the
  // golden tests and the 1-vs-8-thread diff — including serialization (io,
  // ser), the job server (serve: cached replays and tenant scheduling must
  // be byte-reproducible) and testcase synthesis (synth).
  static const std::set<std::string> kDet = {"rap",  "cluster", "lp",
                                            "ilp",  "legal",   "flows",
                                            "verify", "io",    "synth",
                                            "ser",  "serve"};
  return kDet.count(module) != 0;
}

bool is_public_header(const std::string& file) {
  return file.compare(0, 16, "src/include/mth/") == 0;
}

std::vector<std::set<Rule>> parse_suppressions(const Scan& s) {
  std::vector<std::set<Rule>> allowed(s.lines.size());
  for (std::size_t li = 0; li < s.comments.size(); ++li) {
    const std::string& com = s.comments[li];
    std::size_t at = com.find("mth-lint:");
    if (at == std::string::npos) continue;
    at = com.find("allow(", at);
    if (at == std::string::npos) continue;
    const std::size_t close = com.find(')', at);
    if (close == std::string::npos) continue;
    std::string ids = com.substr(at + 6, close - at - 6);
    std::replace(ids.begin(), ids.end(), ',', ' ');
    std::istringstream iss(ids);
    std::string id;
    while (iss >> id) {
      if (const auto r = rule_from_string(id)) allowed[li].insert(*r);
    }
  }
  return allowed;
}

void Ctx::report(Rule rule, int line, std::string message) {
  if (suppressed(allowed, rule, line)) return;
  Finding f;
  f.rule = rule;
  f.file = file;
  f.line = line;
  f.message = std::move(message);
  const std::size_t li = static_cast<std::size_t>(line - 1);
  if (li < scan.lines.size()) f.snippet = trimmed(scan.lines[li]);
  out.push_back(std::move(f));
}

void expect_version(const json::Value& doc, std::int64_t want) {
  if (doc.get("version").as_int() != want) {
    throw Error("unsupported 'version' (want " + std::to_string(want) + ")");
  }
}

std::string trimmed(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
  while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
  return s.substr(a, b - a);
}

}  // namespace mth::lint::detail
