//===-- obs/Provenance.h - Run provenance stamps ----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run provenance: the (seed, config hash, CLI args, scenario id)
/// quadruple a tool stamps into the headers of every artifact it writes
/// — the `journal.meta` JSONL line and a leading `# provenance ...`
/// comment of the time-series CSV. Aggregators
/// (`cws-sweep`) verify the stamp before pooling, so statistics can
/// never silently mix runs of different scenarios, configs or seeds.
///
/// The config hash is FNV-1a over a canonical key=value rendering of
/// the effective run configuration (`voConfigCanonical`), so two
/// processes that build the same configuration through different code
/// paths (a direct `cws-sim` invocation vs. a sweep-spawned one) agree
/// on the hash, while any divergent knob changes it.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_PROVENANCE_H
#define CWS_OBS_PROVENANCE_H

#include <cstdint>
#include <string>

namespace cws {
namespace json {
class Value;
} // namespace json

namespace obs {

/// The provenance stamp of one run's artifacts.
struct RunProvenance {
  /// True once a tool stamped the run; default-constructed artifacts
  /// carry no provenance (older files parse fine and report !valid()).
  bool Stamped = false;
  /// The run seed.
  uint64_t Seed = 0;
  /// Hex FNV-1a hash of the canonical configuration text.
  std::string ConfigHash;
  /// Scenario id the run belongs to ("single" for direct invocations).
  std::string ScenarioId;
  /// Resolved job-flow shard count of the run (0 = not recorded, e.g.
  /// one-shot cws-sched builds). Deliberately *outside* the config
  /// hash: results are shard-invariant by construction, so two runs of
  /// one configuration at different shard counts share a hash while
  /// the stamp still says which partitioning produced each artifact.
  int64_t Shards = 0;
  /// The invoking command line, flags joined with single spaces.
  std::string Cli;

  bool valid() const { return Stamped; }

  /// Scenario-compatibility check used by sweep pooling: same scenario
  /// id and the same config hash. Seeds and CLI text (which carries
  /// per-run file paths) may differ between replicas.
  bool sameScenario(const RunProvenance &Other) const {
    return Stamped && Other.Stamped && ScenarioId == Other.ScenarioId &&
           ConfigHash == Other.ConfigHash;
  }
};

/// 64-bit FNV-1a of \p Text.
uint64_t fnv1a64(const std::string &Text);

/// `fnv1a64` rendered as the canonical `0x%016llx` hash string.
std::string configHashOf(const std::string &CanonicalText);

/// Joins argv into the `Cli` field: arguments separated by single
/// spaces, no quoting (the journal/CSV escapers handle the rest).
std::string cliStringOf(int Argc, char **Argv);

/// Renders the CSV comment form:
/// `# provenance seed=S config=H scenario=ID [shards=N] cli=...` (cli
/// last, it may contain spaces; shards only when recorded). Empty
/// string when \p P is not stamped.
std::string provenanceCsvComment(const RunProvenance &P);

/// Parses a `# provenance ...` comment line back, given without its
/// line end (as `LineReader` reads it). Returns false when \p Line is
/// not a provenance comment or is malformed.
bool parseProvenanceCsvComment(const std::string &Line, RunProvenance &Out);

/// The provenance members of a JSON object, as bits of readProvenance's
/// `Seen` mask.
enum ProvenanceMember : unsigned {
  ProvSeed = 1,
  ProvConfigHash = 2,
  ProvScenario = 4,
  ProvShards = 8,
  ProvCli = 16,
};

/// True when \p Key names a provenance member.
bool isProvenanceKey(const std::string &Key);

/// Reads the provenance members of the JSON object \p Obj (the
/// `journal.meta` line, the `provenance` object of `profile.json` and
/// `BENCH_*.json`) into \p Out: `seed` and `shards` as exact integers
/// (a seed keeps its 64-bit pattern, so the journal's signed rendering
/// reads back as the seed that wrote it), `config_hash`, `scenario` and
/// `cli` as strings. Absent members leave \p Out as it was, and `Seen`
/// gets one ProvenanceMember bit per member present, so each artifact
/// keeps its own rule for which are required. A member of the wrong
/// kind fails with \p Error. `Stamped` is left to the caller.
bool readProvenance(const json::Value &Obj, RunProvenance &Out,
                    unsigned &Seen, std::string &Error);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_PROVENANCE_H
