#include "mth/util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "mth/util/error.hpp"

namespace mth::json {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Value Value::boolean(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.b_ = b;
  return v;
}

Value Value::integer(std::int64_t i) {
  Value v;
  v.kind_ = Kind::Int;
  v.i_ = i;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.kind_ = Kind::Double;
  v.d_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.s_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::Array;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::Object;
  return v;
}

namespace {

const char* kind_name(Value::Kind k) {
  switch (k) {
    case Value::Kind::Null: return "null";
    case Value::Kind::Bool: return "bool";
    case Value::Kind::Int: return "int";
    case Value::Kind::Double: return "double";
    case Value::Kind::String: return "string";
    case Value::Kind::Array: return "array";
    case Value::Kind::Object: return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* want, Value::Kind got) {
  throw Error(std::string("json: expected ") + want + ", got " +
              kind_name(got));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool", kind_);
  return b_;
}

std::int64_t Value::as_int() const {
  if (kind_ != Kind::Int) kind_error("int", kind_);
  return i_;
}

double Value::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(i_);
  if (kind_ != Kind::Double) kind_error("number", kind_);
  return d_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) kind_error("string", kind_);
  return s_;
}

std::size_t Value::size() const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  return arr_.size();
}

const Value& Value::at(std::size_t i) const {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  MTH_ASSERT(i < arr_.size(), "json: array index out of range");
  return arr_[i];
}

void Value::push(Value v) {
  if (kind_ != Kind::Array) kind_error("array", kind_);
  arr_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  for (const auto& kv : obj_) {
    MTH_ASSERT(kv.first != key, "json: duplicate object key '" + key + "'");
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  for (const auto& kv : obj_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

const Value& Value::get(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw Error("json: missing field '" + std::string(key) + "'");
  }
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::Object) kind_error("object", kind_);
  return obj_;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void write_double(std::string& out, double d) {
  if (std::isnan(d)) throw Error("json: cannot serialize NaN");
  if (std::isinf(d)) {
    out += d > 0 ? "inf" : "-inf";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void write_scalar(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::Int: out += std::to_string(v.as_int()); break;
    case Value::Kind::Double: write_double(out, v.as_double()); break;
    case Value::Kind::String: write_escaped(out, v.as_string()); break;
    default: MTH_ASSERT(false, "json: write_scalar on composite");
  }
}

bool is_scalar(const Value& v) {
  return v.kind() != Value::Kind::Array && v.kind() != Value::Kind::Object;
}

void write_pretty(std::string& out, const Value& v, int indent) {
  if (is_scalar(v)) {
    write_scalar(out, v);
    return;
  }
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string close_pad(static_cast<std::size_t>(indent), ' ');
  if (v.kind() == Value::Kind::Array) {
    if (v.size() == 0) {
      out += "[]";
      return;
    }
    bool all_scalar = true;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!is_scalar(v.at(i))) all_scalar = false;
    }
    if (all_scalar) {
      out += '[';
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ", ";
        write_scalar(out, v.at(i));
      }
      out += ']';
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += pad;
      write_pretty(out, v.at(i), indent + 2);
      if (i + 1 != v.size()) out += ',';
      out += '\n';
    }
    out += close_pad;
    out += ']';
    return;
  }
  const auto& members = v.members();
  if (members.empty()) {
    out += "{}";
    return;
  }
  out += "{\n";
  for (std::size_t i = 0; i < members.size(); ++i) {
    out += pad;
    write_escaped(out, members[i].first);
    out += ": ";
    write_pretty(out, members[i].second, indent + 2);
    if (i + 1 != members.size()) out += ',';
    out += '\n';
  }
  out += close_pad;
  out += '}';
}

void write_flat(std::string& out, const Value& v) {
  if (is_scalar(v)) {
    write_scalar(out, v);
    return;
  }
  if (v.kind() == Value::Kind::Array) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      write_flat(out, v.at(i));
    }
    out += ']';
    return;
  }
  out += '{';
  const auto& members = v.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i != 0) out += ',';
    write_escaped(out, members[i].first);
    out += ':';
    write_flat(out, members[i].second);
  }
  out += '}';
}

}  // namespace

std::string write(const Value& v) {
  std::string out;
  write_pretty(out, v, 0);
  out += '\n';
  return out;
}

std::string write_compact(const Value& v) {
  std::string out;
  write_flat(out, v);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 100;

struct Parser {
  std::string_view s;
  std::size_t p = 0;
  int depth = 0;

  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1, col = 1;
    for (std::size_t i = 0; i < p && i < s.size(); ++i) {
      if (s[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("json: parse error at line " + std::to_string(line) + ":" +
                std::to_string(col) + ": " + msg);
  }

  void ws() {
    while (p < s.size() && (s[p] == ' ' || s[p] == '\t' || s[p] == '\n' ||
                            s[p] == '\r')) {
      ++p;
    }
  }

  char peek() const { return p < s.size() ? s[p] : '\0'; }

  void expect(char c) {
    if (p >= s.size() || s[p] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++p;
  }

  bool keyword(std::string_view kw) {
    if (s.compare(p, kw.size(), kw) != 0) return false;
    p += kw.size();
    return true;
  }

  Value parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (p >= s.size()) fail("unterminated string");
      const char c = s[p++];
      if (c == '"') break;
      if (c == '\\') {
        if (p >= s.size()) fail("unterminated escape");
        const char e = s[p++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (p + 4 > s.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s[p++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            if (code > 0xff) fail("\\u escape beyond latin-1 unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      out += c;
    }
    return Value::string(std::move(out));
  }

  Value parse_number() {
    const std::size_t start = p;
    if (peek() == '-') ++p;
    if (keyword("inf")) {
      return Value::number(s[start] == '-'
                               ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity());
    }
    bool is_int = true;
    while (p < s.size()) {
      const char c = s[p];
      if (c >= '0' && c <= '9') {
        ++p;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_int = false;
        ++p;
      } else {
        break;
      }
    }
    if (p == start || (p == start + 1 && s[start] == '-')) fail("bad number");
    const std::string tok(s.substr(start, p - start));
    if (is_int) {
      errno = 0;
      char* end = nullptr;
      const long long ll = std::strtoll(tok.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Value::integer(static_cast<std::int64_t>(ll));
      }
      // Integer overflow: fall through to the double representation.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + tok + "'");
    return Value::number(d);
  }

  Value parse_value() {
    ws();
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    if (c == '"') return parse_string();
    if (c == '{') {
      ++p;
      ++depth;
      Value obj = Value::object();
      ws();
      if (peek() == '}') {
        ++p;
        --depth;
        return obj;
      }
      while (true) {
        ws();
        if (peek() != '"') fail("expected object key");
        Value key = parse_string();
        if (obj.find(key.as_string()) != nullptr) {
          fail("duplicate object key '" + key.as_string() + "'");
        }
        ws();
        expect(':');
        Value val = parse_value();
        obj.set(key.as_string(), std::move(val));
        ws();
        if (peek() == ',') {
          ++p;
          continue;
        }
        expect('}');
        break;
      }
      --depth;
      return obj;
    }
    if (c == '[') {
      ++p;
      ++depth;
      Value arr = Value::array();
      ws();
      if (peek() == ']') {
        ++p;
        --depth;
        return arr;
      }
      while (true) {
        arr.push(parse_value());
        ws();
        if (peek() == ',') {
          ++p;
          continue;
        }
        expect(']');
        break;
      }
      --depth;
      return arr;
    }
    if (keyword("true")) return Value::boolean(true);
    if (keyword("false")) return Value::boolean(false);
    if (keyword("null")) return Value::null();
    if (c == '-' || (c >= '0' && c <= '9') || c == 'i') return parse_number();
    fail("unexpected character");
  }
};

}  // namespace

Value parse(std::string_view text) {
  Parser parser{text};
  Value v = parser.parse_value();
  parser.ws();
  if (parser.p != text.size()) parser.fail("trailing data after value");
  return v;
}

}  // namespace mth::json
