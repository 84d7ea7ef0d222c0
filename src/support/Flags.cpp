//===-- support/Flags.cpp - Tiny CLI flag parser --------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"
#include "support/Text.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace cws;

void Flags::addInt(const std::string &Name, int64_t *Storage,
                   const std::string &Help, int64_t AtLeast,
                   int64_t AtMost) {
  Entries.push_back({Name, Kind::Int, Storage, Help, AtLeast, AtMost,
                     -HUGE_VAL, HUGE_VAL, {}});
}

void Flags::addReal(const std::string &Name, double *Storage,
                    const std::string &Help, double Above, double AtMost) {
  Entries.push_back({Name, Kind::Real, Storage, Help, INT64_MIN, INT64_MAX,
                     Above, AtMost, {}});
}

void Flags::addString(const std::string &Name, std::string *Storage,
                      const std::string &Help,
                      std::vector<std::string> Choices) {
  Entries.push_back({Name, Kind::String, Storage, Help, INT64_MIN, INT64_MAX,
                     -HUGE_VAL, HUGE_VAL, std::move(Choices)});
}

void Flags::addBool(const std::string &Name, bool *Storage,
                    const std::string &Help) {
  Entries.push_back({Name, Kind::Bool, Storage, Help, INT64_MIN, INT64_MAX,
                     -HUGE_VAL, HUGE_VAL, {}});
}

const Flags::Entry *Flags::find(const std::string &Name) const {
  for (const auto &E : Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

bool Flags::parse(int Argc, char **Argv,
                  std::vector<std::string> *Operands) const {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::printf("flags:\n");
      for (const auto &E : Entries)
        std::printf("  --%-20s %s\n", E.Name.c_str(), E.Help.c_str());
      return false;
    }
    if (Arg.rfind("--", 0) != 0) {
      if (Operands) {
        Operands->push_back(Arg);
        continue;
      }
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   Arg.c_str());
      std::exit(2);
    }
    std::string Body = Arg.substr(2);
    std::string Name = Body;
    std::string Value;
    bool HaveValue = false;
    if (size_t Eq = Body.find('='); Eq != std::string::npos) {
      Name = Body.substr(0, Eq);
      Value = Body.substr(Eq + 1);
      HaveValue = true;
    }
    const Entry *E = find(Name);
    if (!E) {
      std::fprintf(stderr, "unknown flag '--%s' (try --help)\n", Name.c_str());
      std::exit(2);
    }
    if (!HaveValue) {
      if (E->FlagKind == Kind::Bool) {
        *static_cast<bool *>(E->Storage) = true;
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "flag '--%s' needs a value\n", Name.c_str());
        std::exit(2);
      }
      Value = Argv[++I];
    }
    auto Reject = [&](const std::string &Want) {
      std::fprintf(stderr, "flag '--%s' %s, got '%s'\n", Name.c_str(),
                   Want.c_str(), Value.c_str());
      std::exit(2);
    };
    switch (E->FlagKind) {
    case Kind::Bool: {
      bool On = Value == "1" || Value == "true";
      if (!On && Value != "0" && Value != "false")
        Reject("takes 0|1|true|false");
      *static_cast<bool *>(E->Storage) = On;
      break;
    }
    case Kind::Int: {
      int64_t V = 0;
      if (!parseInt(Value, V))
        Reject("takes an integer");
      if (V < E->AtLeast)
        Reject("must be >= " + std::to_string(E->AtLeast));
      if (V > E->AtMostInt)
        Reject("must be <= " + std::to_string(E->AtMostInt));
      *static_cast<int64_t *>(E->Storage) = V;
      break;
    }
    case Kind::Real: {
      double V = 0.0;
      if (!parseReal(Value, V))
        Reject(std::isfinite(V) ? "takes a number" : "takes a finite number");
      char Bound[32];
      if (!(V > E->Above)) {
        std::snprintf(Bound, sizeof(Bound), "%g", E->Above);
        Reject(std::string("must be > ") + Bound);
      }
      if (V > E->AtMostReal) {
        std::snprintf(Bound, sizeof(Bound), "%g", E->AtMostReal);
        Reject(std::string("must be <= ") + Bound);
      }
      *static_cast<double *>(E->Storage) = V;
      break;
    }
    case Kind::String: {
      const std::vector<std::string> &Cs = E->Choices;
      if (!Cs.empty() && std::find(Cs.begin(), Cs.end(), Value) == Cs.end()) {
        std::string List;
        for (const std::string &C : Cs)
          List += (List.empty() ? "" : "|") + C;
        Reject("takes " + List);
      }
      *static_cast<std::string *>(E->Storage) = Value;
      break;
    }
    }
  }
  return true;
}
