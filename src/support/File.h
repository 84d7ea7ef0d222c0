//===-- support/File.h - Whole-file text I/O --------------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one pair of whole-file helpers every artifact writer and reader
/// goes through: read a file into a string, write a string to a file.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_FILE_H
#define CWS_SUPPORT_FILE_H

#include <string>

namespace cws {

/// Reads all of \p Path into \p Out; "-" reads standard input. Returns
/// false when the file cannot be opened or read.
bool readFile(const std::string &Path, std::string &Out);

/// Writes \p Text to \p Path, replacing it; returns false on I/O
/// failure.
bool writeTextFile(const std::string &Path, const std::string &Text);

} // namespace cws

#endif // CWS_SUPPORT_FILE_H
