//===-- obs/Journal.h - Per-job decision journal ----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-job decision journal ("flight recorder"): an append-only
/// ring of structured events recording the full causal
/// chain of every job through the job-flow level — arrival, admission
/// verdict, per-variant strategy-build outcomes, collisions, background
/// -load invalidations, shift-recovery attempts, reallocations,
/// dispatch decisions, commits, rejections and kills. Exported as JSONL
/// (one event per line) for `cws-explain`.
///
/// The journal is disabled by default. While disabled, `enabled()` is a
/// single load of a flag, so call sites guard emission with
///
///   obs::Journal &Jn = obs::Journal::global();
///   if (Jn.enabled())
///     Jn.append(obs::JournalKind::Commit, J.id(), Now, {{"variant", 2}});
///
/// and the instrumentation may stay in hot paths permanently (the
/// `obs_overhead` bench guards this).
///
/// Thread-compatible, like a standard container: one thread at a time.
/// The program starts no second thread, and the `single_thread_guard`
/// test keeps it that way.
///
/// Causality: the journal links each event to the previous event of the
/// same job automatically (`Cause`), so per-job chains reconstruct
/// without caller bookkeeping; `Invalidate`/`Reallocate` events also
/// get a `Trigger` reference to the most recent `EnvChange` event (the
/// background arrival that aged the strategy). Events carry the
/// simulation tick only — never wall-clock time — so an enabled-mode
/// journal is byte-identical for a fixed seed from run to run (variant
/// events are emitted post-merge, in (level, bias) order).
///
/// Event names, argument keys and `Detail` strings must be string
/// literals (or otherwise outlive the journal): the ring stores the
/// pointers only.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_OBS_JOURNAL_H
#define CWS_OBS_JOURNAL_H

#include "obs/Provenance.h"
#include "support/Ring.h"

#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cws {
namespace obs {

class Registry;

/// The decision kinds the job-flow level records. The names are the
/// JSONL schema; `docs/OBSERVABILITY.md` documents each field-by-field.
enum class JournalKind : uint8_t {
  /// A job entered a flow (args: deadline, tasks; detail: strategy type).
  Arrival,
  /// Admission verdict at arrival (args: admissible, feasible, variants,
  /// forecast_variant, forecast_start, collisions).
  Admission,
  /// One supporting schedule built by Strategy::build (args: level,
  /// bias, feasible, cost, cf, makespan; detail: bias name).
  Variant,
  /// A critical-work collision and its resolution (args: variant, task,
  /// node, wanted, actual, owner; detail: resolution).
  Collision,
  /// The environment changed (args: node, start, end; detail: source).
  EnvChange,
  /// A strategy lost every fitting variant (args: variant, node, start,
  /// end, busy_start, busy_end, ttl; trigger: the breaking EnvChange).
  Invalidate,
  /// Shift recovery of a stale supporting schedule was attempted
  /// (args: variant, delta, cost).
  ShiftAttempt,
  /// The metascheduler replaced the job's stale strategy — by staged
  /// repair in repair mode, by full rebuild otherwise (trigger: the
  /// most recent EnvChange).
  Reallocate,
  /// The staged repair of a stale strategy began (repair mode only;
  /// args: variants — feasible candidates considered).
  RepairAttempt,
  /// How one staged repair resolved (args: stage 1|2|3, ok, plus
  /// delta for stage 1 and works/pinned for stage 2; detail: "shift" /
  /// "dp" / "rebuild" / "failed").
  RepairOutcome,
  /// The dispatcher routed the job to a domain (args: domain, bids;
  /// detail: policy name).
  Dispatch,
  /// One commit attempt at the metascheduler (args: cost, ok; detail:
  /// "ok" / "quota-denied" / "slot-conflict").
  CommitAttempt,
  /// A supporting schedule was committed (args: variant, start,
  /// makespan, cost, cf, shift; detail: how the variant was reached).
  Commit,
  /// The job was rejected (detail: reason).
  Reject,
  /// Execution under runtime deviations finished (args: completion,
  /// killed; detail: "ok" / "wall-limit-kill").
  Execution,
  /// The job's last reservation ended (args: ttl).
  Complete,
  /// Free-form marker (sim run boundaries, bench probes).
  Note,
};

inline constexpr size_t JournalKindCount = 17;

/// Stable schema name ("arrival", "commit", ...).
const char *journalKindName(JournalKind Kind);

/// Parses a schema name back; returns false when unknown.
bool journalKindFromName(const std::string &Name, JournalKind &Out);

/// One named integer argument. Keys must be string literals.
struct JournalArg {
  const char *Key = nullptr;
  int64_t Value = 0;
};

/// One recorded event (one ring slot).
struct JournalEvent {
  static constexpr size_t MaxArgs = 8;

  /// 1-based monotone id; orders events across ring wraparound.
  uint64_t Id = 0;
  /// Id of the previous event of the same job (0 = chain head).
  uint64_t Cause = 0;
  /// Cross-chain trigger (e.g. the EnvChange that broke a strategy).
  uint64_t Trigger = 0;
  /// Job the event belongs to; -1 for job-agnostic events (EnvChange).
  int64_t JobId = -1;
  /// Flow the job belongs to; -1 when unknown (inherited from the
  /// job's Arrival event when available).
  int32_t FlowId = -1;
  /// Simulation tick the decision was taken at.
  int64_t At = 0;
  JournalKind Kind = JournalKind::Note;
  uint8_t ArgCount = 0;
  const char *Detail = nullptr;
  JournalArg Args[MaxArgs];
};

/// Append-only ring journal.
class Journal {
public:
  static constexpr size_t DefaultCapacity = 1 << 16;

  /// The process-wide journal the built-in instrumentation appends to.
  static Journal &global();

  /// Starts recording into a fresh ring of \p Capacity slots; clears
  /// the causal bookkeeping.
  void enable(size_t Capacity = DefaultCapacity);

  /// Stops recording. Already recorded events stay exportable.
  void disable() { On = false; }

  /// Stamps the run provenance (seed, config hash, CLI, scenario id)
  /// into the `journal.meta` header of every later export, so
  /// aggregators can verify which run a journal belongs to. Cleared by
  /// enable() and reset().
  void setProvenance(RunProvenance P) { Prov = std::move(P); }
  RunProvenance provenance() const { return Prov; }

  bool enabled() const { return On; }

  /// Appends one event and returns its id (0 while disabled, or inside
  /// a JournalDiscardScope of this journal). `Cause`
  /// is filled from the job's previous event; `FlowId < 0` inherits the
  /// flow recorded by the job's earlier events; `Trigger == 0` on
  /// Invalidate/Reallocate events resolves to the last EnvChange.
  uint64_t append(JournalKind Kind, int64_t JobId, int64_t At,
                  std::initializer_list<JournalArg> Args = {},
                  const char *Detail = nullptr, int FlowId = -1,
                  uint64_t Trigger = 0);

  /// Events appended since enable() (including overwritten ones).
  uint64_t recorded() const { return Events.recorded(); }
  /// Events lost to ring wraparound.
  uint64_t dropped() const { return Events.dropped(); }
  /// Id of the most recent EnvChange event (0 = none yet).
  uint64_t lastEnvChange() const { return LastEnvChangeId; }

  /// Copies the surviving events out in append order.
  std::vector<JournalEvent> snapshot() const { return Events.snapshot(); }

  /// Renders the surviving events as JSONL: one `journal.meta` header
  /// line (schema version, recorded/dropped counts) followed by one
  /// JSON object per event. Pure function of the event stream — no
  /// wall-clock fields — so fixed seeds give byte-identical output.
  std::string jsonl() const;

  /// Writes jsonl() to \p Path; returns false on I/O failure.
  bool writeJsonl(const std::string &Path) const;

  /// Drops everything and disables the journal.
  void reset();

private:
  bool On = false;
  RunProvenance Prov;
  Ring<JournalEvent> Events;
  uint64_t LastEnvChangeId = 0;
  /// Last event id per job (the automatic `Cause` chain).
  std::unordered_map<int64_t, uint64_t> LastOf;
  /// Flow per job, learned from the first event that carries one.
  std::unordered_map<int64_t, int32_t> FlowOf;
};

/// RAII scope: while alive, every append() to \p J is dropped. Scopes
/// nest; destruction restores the previous one. The repair oracle
/// wraps its reference rebuild in one, so the check leaves no trace in
/// the run's journal.
class JournalDiscardScope {
public:
  explicit JournalDiscardScope(Journal &J);
  ~JournalDiscardScope();

  JournalDiscardScope(const JournalDiscardScope &) = delete;
  JournalDiscardScope &operator=(const JournalDiscardScope &) = delete;

private:
  Journal *Prev;
};

/// Publishes the journal's loss counters into \p R as
/// `cws_journal_recorded_total` / `cws_journal_dropped_total` gauges.
void publishJournalStats(Registry &R);

//===----------------------------------------------------------------------===//
// JSONL parsing (cws-explain, tests)
//===----------------------------------------------------------------------===//

/// One parsed event; strings are owned (the journal's literal-pointer
/// contract does not survive a file round-trip).
struct ParsedJournalEvent {
  uint64_t Id = 0;
  uint64_t Cause = 0;
  uint64_t Trigger = 0;
  int64_t JobId = -1;
  int64_t FlowId = -1;
  int64_t At = 0;
  std::string Kind;
  std::string Detail;
  std::vector<std::pair<std::string, int64_t>> Args;

  /// Pointer to the value of \p Key, or nullptr when absent.
  const int64_t *arg(const std::string &Key) const;
};

/// A parsed journal file: the meta header plus the surviving events.
struct ParsedJournal {
  uint64_t Recorded = 0;
  uint64_t Dropped = 0;
  /// Provenance stamp of the meta header; `!Prov.valid()` for files
  /// written before stamping existed (or by unstamped tools).
  RunProvenance Prov;
  std::vector<ParsedJournalEvent> Events;

  /// Event with \p Id (binary search; ids are ascending), or nullptr.
  const ParsedJournalEvent *byId(uint64_t Id) const;
};

/// Parses JSONL text written by Journal::jsonl(). Returns false and
/// sets \p Error (with a 1-based line number) on malformed input.
bool parseJournalJsonl(const std::string &Text, ParsedJournal &Out,
                       std::string &Error);

//===----------------------------------------------------------------------===//
// The journal fold (cws-report, cws-explain, cws-diff, cws-sweep)
//===----------------------------------------------------------------------===//

/// Events of each kind.
struct JournalKindCounts {
  std::array<int64_t, JournalKindCount> N{};
  int64_t &operator[](JournalKind K) { return N[static_cast<size_t>(K)]; }
  int64_t operator[](JournalKind K) const {
    return N[static_cast<size_t>(K)];
  }
};

/// A job's terminal verdict: a reject is final, a commit without one
/// stands, an arrival alone leaves the job open.
enum class JobVerdict : uint8_t { None, Open, Committed, Rejected };

/// What one job's events record.
struct JobRecord {
  /// Deadline of its arrival, when the arrival carries one.
  std::optional<int64_t> Deadline;
  /// Completion tick: the execution's when one is recorded, else the
  /// commit's makespan (an absolute tick), else 0.
  int64_t Completion = 0;
  bool Executed = false;
  /// Commit events of the job.
  int64_t Commits = 0;
  /// Cost and cost-function value of its commit (the journal records
  /// each cost as a whole number).
  std::optional<int64_t> Cost;
  std::optional<int64_t> Cf;
  JobVerdict Verdict = JobVerdict::None;
  /// Tick of the event that decided the verdict.
  int64_t DecidedAt = -1;
  /// Bit `1 << S` for each stage S of a successful `repair.stage`
  /// (bit 0 when the event names no stage); 0 when none succeeded.
  unsigned RepairedBy = 0;
};

/// One pass over a parsed journal: every number the run report, the
/// summary, the outcome diff and the sweep derive from it. Kinds are
/// matched through `journalKindFromName`; unknown kinds count nowhere.
struct JournalFold {
  /// Events of each kind in the whole journal.
  JournalKindCounts Totals;
  /// Events of each kind per flow id; -1 holds the events that carry
  /// no flow (environment changes, notes).
  std::map<int64_t, JournalKindCounts> Flows;
  /// Jobs by id, for events that name one.
  std::map<int64_t, JobRecord> Jobs;
  /// `repair.stage` outcomes by their detail.
  int64_t RepairedShift = 0, RepairedDp = 0, Rebuilt = 0, RepairFailed = 0;
  /// Tick of the first successful stage-1 or stage-2 repair, the moment
  /// a repair run's grid can part from its rebuild oracle's.
  int64_t FirstStage12Repair = std::numeric_limits<int64_t>::max();
};

/// Folds \p J's surviving events in one pass.
JournalFold foldJournal(const ParsedJournal &J);

} // namespace obs
} // namespace cws

#endif // CWS_OBS_JOURNAL_H
