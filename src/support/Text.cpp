//===-- support/Text.cpp - Lines, fields and numbers of text --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Text.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace cws;

bool LineReader::next() {
  if (Pos >= Text.size())
    return false;
  size_t Eol = Text.find('\n', Pos);
  if (Eol == std::string::npos)
    Eol = Text.size();
  Line.assign(Text, Pos, Eol - Pos);
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
  Pos = Eol + 1;
  ++No;
  return true;
}

std::string LineReader::error(const std::string &Why) const {
  return "line " + std::to_string(No) + ": " + Why;
}

std::vector<std::string> cws::splitFields(const std::string &Text,
                                          const char *Seps, bool SkipEmpty) {
  std::vector<std::string> Fields;
  size_t Start = 0;
  while (true) {
    size_t End = Text.find_first_of(Seps, Start);
    if (End == std::string::npos)
      End = Text.size();
    if (!SkipEmpty || End > Start)
      Fields.push_back(Text.substr(Start, End - Start));
    if (End == Text.size())
      return Fields;
    Start = End + 1;
  }
}

bool cws::parseInt(const std::string &Text, int64_t &Out) {
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Text.c_str(), &End, 10);
  if (Text.empty() || End != Text.c_str() + Text.size() || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool cws::parseUint(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.find_first_not_of("0123456789") != Text.npos)
    return false;
  errno = 0;
  unsigned long long V = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool cws::parseReal(const std::string &Text, double &Out) {
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || End != Text.c_str() + Text.size() || errno == ERANGE)
    return false;
  Out = V;
  return std::isfinite(V);
}
