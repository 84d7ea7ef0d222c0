//===-- support/Json.h - Minimal JSON value tree ----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON codec of the stack. Readers parse the artifacts the
/// repository writes (decision journal lines, `profile.json`,
/// `BENCH_*.json`) into an immutable value tree and navigate it with
/// checked accessors; it accepts standard JSON (RFC 8259) and rejects
/// everything else with a byte-offset error. Integer literals keep an
/// exact 64-bit value beside the double, so seeds and work counters
/// above 2^53 read back unchanged.
///
/// Writers render their fixed layouts directly and route every string
/// through `escape` / `quote` (numbers through `obs::renderNumber`), so
/// one escaper serves the journal, trace, time-series, profile and
/// bench artifacts alike.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_JSON_H
#define CWS_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cws {
namespace json {

/// One parsed JSON value. Object member order is preserved (the
/// artifacts are written in a canonical order and diffs should see it).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Value accessors; defaults are returned on kind mismatch so lookup
  /// chains degrade without branching at every step (schema validation
  /// checks kinds explicitly where it matters).
  bool boolean(bool Default = false) const {
    return isBool() ? B : Default;
  }
  double number(double Default = 0.0) const {
    return isNumber() ? Num : Default;
  }
  /// Exact integer accessors: true only for a number written as an
  /// integer literal that fits the type.
  bool getInt(int64_t &Out) const;
  bool getUint(uint64_t &Out) const;
  const std::string &text() const { return Str; }
  const std::vector<Value> &array() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Value *find(const std::string &Name) const;
  /// Checked member accessors for schema validation: true only when the
  /// member exists with the expected kind.
  bool getNumber(const std::string &Name, double &Out) const;
  bool getString(const std::string &Name, std::string &Out) const;
  bool getInt(const std::string &Name, int64_t &Out) const;
  bool getUint(const std::string &Name, uint64_t &Out) const;

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  /// Exact value of an integer literal, per type it fits.
  bool HasInt = false;
  bool HasUint = false;
  int64_t Int = 0;
  uint64_t Uint = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Parses \p Text into \p Out. Returns false and sets \p Error (with a
/// byte offset) on malformed input; trailing non-whitespace after the
/// top-level value is an error.
bool parse(const std::string &Text, Value &Out, std::string &Error);

/// Escapes \p Raw for splicing between JSON string quotes (`"` / `\` /
/// control characters; the writer-side twin of the parser above).
std::string escape(const std::string &Raw);

/// The JSON string literal of \p Raw: escape() between quotes.
std::string quote(const std::string &Raw);

} // namespace json
} // namespace cws

#endif // CWS_SUPPORT_JSON_H
