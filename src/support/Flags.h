//===-- support/Flags.h - Tiny CLI flag parser ------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny command line flag parser for the tools, bench and example
/// binaries: `--name=value` or `--name value`. Unknown flags, values that
/// do not parse as the flag's type, non-finite reals, values outside a
/// flag's choice list and values outside its bounds all exit 2 with a
/// message, so typos in experiment scripts never silently run the
/// default configuration. Operands (file paths) go to a caller that
/// asks for them and exit 2 otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_FLAGS_H
#define CWS_SUPPORT_FLAGS_H

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace cws {

/// Registry of typed flags bound to caller-owned storage.
class Flags {
public:
  /// Registers an integer flag writing into \p Storage; values below
  /// \p AtLeast or above \p AtMost are rejected (a 0/1 switch passes 0
  /// and 1).
  void addInt(const std::string &Name, int64_t *Storage,
              const std::string &Help, int64_t AtLeast = INT64_MIN,
              int64_t AtMost = INT64_MAX);

  /// Registers a real-valued flag writing into \p Storage; values that
  /// are not finite, not above \p Above or above \p AtMost are
  /// rejected.
  void addReal(const std::string &Name, double *Storage,
               const std::string &Help, double Above = -HUGE_VAL,
               double AtMost = HUGE_VAL);

  /// Registers a string flag writing into \p Storage; with \p Choices,
  /// any value outside the list is rejected.
  void addString(const std::string &Name, std::string *Storage,
                 const std::string &Help,
                 std::vector<std::string> Choices = {});

  /// Registers a boolean flag writing into \p Storage. A bare `--name`
  /// sets it; `--name=0|1|true|false` assigns explicitly. Unlike the
  /// other kinds, a bare boolean never consumes the next argv entry.
  void addBool(const std::string &Name, bool *Storage,
               const std::string &Help);

  /// Parses argv. On `--help`, prints usage and returns false (caller
  /// should exit). Unknown flags and rejected values exit 2. An argument
  /// that does not start with `--` is an operand: appended to
  /// \p Operands in command-line order, or rejected with exit 2 when
  /// \p Operands is null.
  bool parse(int Argc, char **Argv,
             std::vector<std::string> *Operands = nullptr) const;

private:
  enum class Kind { Int, Real, String, Bool };
  struct Entry {
    std::string Name;
    Kind FlagKind;
    void *Storage;
    std::string Help;
    /// Bounds (Int, Real) and the allowed values (String; empty allows
    /// any).
    int64_t AtLeast;
    int64_t AtMostInt;
    double Above;
    double AtMostReal;
    std::vector<std::string> Choices;
  };
  std::vector<Entry> Entries;

  const Entry *find(const std::string &Name) const;
};

} // namespace cws

#endif // CWS_SUPPORT_FLAGS_H
