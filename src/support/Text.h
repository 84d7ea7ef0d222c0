//===-- support/Text.h - Lines, fields and numbers of text ------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader under every text parser: the time-series and sweep
/// CSVs, SLO files, sweep grids, the journal's JSONL lines, provenance
/// comments and flag values. Lines split on '\n' with a trailing '\r'
/// stripped, so a CRLF file reads like its LF copy; fields split at
/// separator characters; and a number is a whole field or an error,
/// never a prefix, a wrapped sign, an out-of-range value or a NaN.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_TEXT_H
#define CWS_SUPPORT_TEXT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cws {

/// Reads a text one line at a time:
///
///   LineReader In(Text);
///   while (In.next())
///     if (!accept(In.line()))
///       return fail(In.error("expected header"));  // "line 3: ..."
class LineReader {
public:
  explicit LineReader(const std::string &Text) : Text(Text) {}
  /// The reader keeps a reference: it must not outlive the text.
  explicit LineReader(std::string &&) = delete;

  /// Moves to the next line; false past the last one. A final '\n'
  /// ends the last line, it does not start an empty one.
  bool next();
  /// The current line, without its '\n' or a '\r' before it.
  const std::string &line() const { return Line; }
  /// 1-based number of the current line.
  size_t number() const { return No; }
  /// \p Why prefixed with the current line: "line N: Why".
  std::string error(const std::string &Why) const;

private:
  const std::string &Text;
  size_t Pos = 0;
  size_t No = 0;
  std::string Line;
};

/// Splits \p Text at each character of \p Seps. Empty fields are kept,
/// so "a,,b" has three fields and "" one; with \p SkipEmpty they are
/// dropped, which reads runs of blanks as one separator.
std::vector<std::string> splitFields(const std::string &Text,
                                     const char *Seps,
                                     bool SkipEmpty = false);

/// Reads all of \p Text as a decimal integer, in strtoll's syntax
/// (leading blanks and a sign allowed). Returns false on empty or
/// partial text or a value outside int64; \p Out is then unchanged.
bool parseInt(const std::string &Text, int64_t &Out);

/// Reads all of \p Text as a count: decimal digits only, so a sign
/// never wraps. Returns false on anything else or a value outside
/// uint64; \p Out is then unchanged.
bool parseUint(const std::string &Text, uint64_t &Out);

/// Reads all of \p Text as a finite real, in strtod's syntax. Returns
/// false on empty or partial text, a value out of range (ERANGE), or a
/// non-finite value. A non-finite value is still stored in \p Out, so a
/// caller can tell that rule apart; any other failure leaves \p Out
/// unchanged.
bool parseReal(const std::string &Text, double &Out);

} // namespace cws

#endif // CWS_SUPPORT_TEXT_H
