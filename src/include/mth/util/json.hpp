#pragma once
// mth::json — the one JSON value, reader and writer in the C++ tree.
//
// Two deliberate extensions over RFC 8259: `inf` / `-inf` numeric tokens
// (LP bounds are routinely infinite) and a distinguished integer kind, so
// int64 values (DBU coordinates, counts) round-trip without going through
// floating point. \u escapes decode to one byte and must stay within
// latin-1; raw bytes >= 0x80 pass through unchanged.
//
// write() is a pure function of the value: insertion-ordered keys, %.17g
// doubles, exact int64, fixed indentation. So write(parse(write(v))) ==
// write(v) byte for byte. mth::ser builds its versioned envelopes and
// canonical hashes on this layer and adds the `ser/read` / `ser/write`
// spans; the functions here emit no trace events.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mth::json {

// Value sits in its own namespace so that argument-dependent lookup on a
// Value never finds json::parse / json::write: mth::ser declares its own
// traced write(const Value&), and unqualified calls there must stay
// unambiguous.
namespace value_type {

/// A parsed JSON value. Objects preserve insertion order (a vector of
/// pairs, not a hash map — key order is part of the canonical form and
/// hash-order must never leak into output). Integers and doubles are
/// distinct kinds so Dbu/int64 fields round-trip without going through
/// floating point.
class Value {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool b);
  static Value integer(std::int64_t i);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  /// Typed accessors; throw mth::Error on a kind mismatch (as_double
  /// accepts Int too — a JSON `3` is a valid double field value).
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // Arrays.
  std::size_t size() const;
  const Value& at(std::size_t i) const;
  void push(Value v);

  // Objects. set() rejects duplicate keys; get() throws when absent.
  void set(std::string key, Value v);
  const Value* find(std::string_view key) const;
  const Value& get(std::string_view key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

 private:
  Kind kind_ = Kind::Null;
  bool b_ = false;
  std::int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

}  // namespace value_type

using value_type::Value;

/// Parse one value (throws mth::Error with line/column context on
/// malformed input; duplicate object keys and depth > 100 are malformed).
Value parse(std::string_view text);

/// Canonical multi-line form (2-space indent, scalar-only arrays inline,
/// trailing newline). Throws mth::Error on NaN.
std::string write(const Value& v);

/// Single-line form (no whitespace). Same number/string formatting as
/// write().
std::string write_compact(const Value& v);

}  // namespace mth::json
