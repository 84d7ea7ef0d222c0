//===-- obs/Provenance.cpp - Run provenance stamps ------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Provenance.h"
#include "support/Json.h"
#include "support/Text.h"

#include <cstdio>

using namespace cws;
using namespace cws::obs;

uint64_t cws::obs::fnv1a64(const std::string &Text) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (unsigned char C : Text) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

std::string cws::obs::configHashOf(const std::string &CanonicalText) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(fnv1a64(CanonicalText)));
  return Buf;
}

std::string cws::obs::cliStringOf(int Argc, char **Argv) {
  std::string Out;
  for (int I = 0; I < Argc; ++I) {
    if (I)
      Out += ' ';
    Out += Argv[I];
  }
  return Out;
}

std::string cws::obs::provenanceCsvComment(const RunProvenance &P) {
  if (!P.Stamped)
    return std::string();
  // `cli` comes last so it may contain spaces; `scenario` ids are
  // token-shaped (the grid parser rejects whitespace in them).
  std::string Out = "# provenance seed=" + std::to_string(P.Seed) +
                    " config=" + P.ConfigHash + " scenario=" + P.ScenarioId;
  if (P.Shards > 0)
    Out += " shards=" + std::to_string(P.Shards);
  Out += " cli=" + P.Cli + "\n";
  return Out;
}

bool cws::obs::parseProvenanceCsvComment(const std::string &Line,
                                         RunProvenance &Out) {
  const std::string Prefix = "# provenance ";
  if (Line.compare(0, Prefix.size(), Prefix) != 0)
    return false;
  std::string Rest = Line.substr(Prefix.size());
  auto takeField = [&Rest](const std::string &Key,
                           std::string &Value) -> bool {
    if (Rest.compare(0, Key.size(), Key) != 0)
      return false;
    Rest = Rest.substr(Key.size());
    size_t End = Rest.find(' ');
    if (End == std::string::npos)
      End = Rest.size();
    Value = Rest.substr(0, End);
    Rest = End == Rest.size() ? std::string() : Rest.substr(End + 1);
    return true;
  };
  std::string SeedText;
  RunProvenance P;
  if (!takeField("seed=", SeedText) || !takeField("config=", P.ConfigHash) ||
      !takeField("scenario=", P.ScenarioId))
    return false;
  if (!parseUint(SeedText, P.Seed))
    return false;
  // Optional shard count (absent in artifacts stamped before it
  // existed and in one-shot builds that resolve no shards).
  std::string ShardsText;
  if (takeField("shards=", ShardsText) && !parseInt(ShardsText, P.Shards))
    return false;
  // Everything after `cli=` (spaces included) is the command line.
  const std::string CliKey = "cli=";
  if (Rest.compare(0, CliKey.size(), CliKey) != 0)
    return false;
  P.Cli = Rest.substr(CliKey.size());
  P.Stamped = true;
  Out = P;
  return true;
}

bool cws::obs::isProvenanceKey(const std::string &Key) {
  return Key == "seed" || Key == "config_hash" || Key == "scenario" ||
         Key == "shards" || Key == "cli";
}

bool cws::obs::readProvenance(const json::Value &Obj, RunProvenance &Out,
                              unsigned &Seen, std::string &Error) {
  Seen = 0;
  if (const json::Value *V = Obj.find("seed")) {
    int64_t Signed = 0;
    if (V->getInt(Signed))
      Out.Seed = static_cast<uint64_t>(Signed);
    else if (!V->getUint(Out.Seed)) {
      Error = "provenance seed is not an integer";
      return false;
    }
    Seen |= ProvSeed;
  }
  if (const json::Value *V = Obj.find("shards")) {
    if (!V->getInt(Out.Shards)) {
      Error = "provenance shards is not an integer";
      return false;
    }
    Seen |= ProvShards;
  }
  struct Text {
    const char *Key;
    std::string *Dst;
    unsigned Bit;
  } Texts[] = {{"config_hash", &Out.ConfigHash, ProvConfigHash},
               {"scenario", &Out.ScenarioId, ProvScenario},
               {"cli", &Out.Cli, ProvCli}};
  for (const Text &T : Texts) {
    const json::Value *V = Obj.find(T.Key);
    if (!V)
      continue;
    if (!V->isString()) {
      Error = std::string("provenance ") + T.Key + " is not a string";
      return false;
    }
    *T.Dst = V->text();
    Seen |= T.Bit;
  }
  return true;
}
