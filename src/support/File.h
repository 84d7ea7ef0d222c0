//===-- support/File.h - Whole-file text I/O --------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one pair of whole-file helpers every artifact writer and reader
/// goes through: read a file into a string, write a string to a file;
/// and the one way a tool reads an artifact back and says what failed.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_FILE_H
#define CWS_SUPPORT_FILE_H

#include <cstdio>
#include <string>

namespace cws {

/// Reads all of \p Path into \p Out; "-" reads standard input. Returns
/// false when the file cannot be opened or read.
bool readFile(const std::string &Path, std::string &Out);

/// Writes \p Text to \p Path, replacing it; returns false on I/O
/// failure.
bool writeTextFile(const std::string &Path, const std::string &Text);

/// Parses \p Text, read from \p Path, with \p Parse (the signature
/// every artifact parser shares). On failure prints `<Tool>: <Path>:
/// <error>` to stderr and returns false.
template <typename T>
bool parseArtifact(const char *Tool, const std::string &Path,
                   const std::string &Text, T &Out,
                   bool (*Parse)(const std::string &, T &, std::string &)) {
  std::string Error;
  if (Parse(Text, Out, Error))
    return true;
  std::fprintf(stderr, "%s: %s: %s\n", Tool, Path.c_str(), Error.c_str());
  return false;
}

/// Reads \p Path and parses it as parseArtifact does; an unreadable
/// file prints `<Tool>: cannot open '<Path>'`.
template <typename T>
bool readArtifact(const char *Tool, const std::string &Path, T &Out,
                  bool (*Parse)(const std::string &, T &, std::string &)) {
  std::string Text;
  if (readFile(Path, Text))
    return parseArtifact(Tool, Path, Text, Out, Parse);
  std::fprintf(stderr, "%s: cannot open '%s'\n", Tool, Path.c_str());
  return false;
}

} // namespace cws

#endif // CWS_SUPPORT_FILE_H
