//===-- support/File.cpp - Whole-file text I/O ----------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/File.h"

#include <cstdio>
#include <utility>

bool cws::readFile(const std::string &Path, std::string &Out) {
  std::FILE *F = Path == "-" ? stdin : std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::string Text;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  bool Ok = !std::ferror(F);
  if (F != stdin)
    std::fclose(F);
  if (Ok)
    Out = std::move(Text);
  return Ok;
}

bool cws::writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}
