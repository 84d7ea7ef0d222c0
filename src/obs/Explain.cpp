//===-- obs/Explain.cpp - Journal analysis for cws-explain ----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "obs/Explain.h"
#include "support/Table.h"

#include <sstream>

using namespace cws;
using namespace cws::obs;

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

std::vector<std::string> cws::obs::validateJournal(const ParsedJournal &J) {
  std::vector<std::string> Errors;
  auto Error = [&](uint64_t Id, const std::string &Why) {
    Errors.push_back("event #" + std::to_string(Id) + ": " + Why);
  };
  uint64_t FirstId = J.Events.empty() ? 0 : J.Events.front().Id;
  uint64_t PrevId = 0;
  for (const ParsedJournalEvent &E : J.Events) {
    if (E.Id == 0) {
      Error(E.Id, "id 0 is reserved for 'no event'");
    } else if (E.Id <= PrevId) {
      Error(E.Id, "ids not strictly increasing (previous was #" +
                      std::to_string(PrevId) + ")");
    }
    PrevId = E.Id;
    JournalKind Kind;
    if (!journalKindFromName(E.Kind, Kind))
      Error(E.Id, "unknown kind '" + E.Kind + "'");
    // A reference must point strictly into the past. If the referenced
    // event is gone, the ring must actually have wrapped past it.
    auto CheckRef = [&](uint64_t Ref,
                        const char *What) -> const ParsedJournalEvent * {
      if (Ref == 0)
        return nullptr;
      if (Ref >= E.Id) {
        Error(E.Id, std::string(What) + " #" + std::to_string(Ref) +
                        " does not precede the event");
        return nullptr;
      }
      if (const ParsedJournalEvent *T = J.byId(Ref))
        return T;
      if (!(J.Dropped > 0 && Ref < FirstId))
        Error(E.Id, std::string(What) + " #" + std::to_string(Ref) +
                        " is dangling (not dropped by the ring)");
      return nullptr;
    };
    if (const ParsedJournalEvent *C = CheckRef(E.Cause, "cause")) {
      if (C->JobId != E.JobId)
        Error(E.Id, "cause #" + std::to_string(E.Cause) +
                        " belongs to a different job");
      if (C->At > E.At)
        Error(E.Id, "cause #" + std::to_string(E.Cause) +
                        " happens later (t=" + std::to_string(C->At) + " > t=" +
                        std::to_string(E.At) + ")");
    }
    if (const ParsedJournalEvent *T = CheckRef(E.Trigger, "trigger"))
      if (T->Kind != "env.change")
        Error(E.Id, "trigger #" + std::to_string(E.Trigger) +
                        " is a '" + T->Kind + "', not an env.change");
  }
  if (J.Recorded < J.Dropped)
    Errors.push_back("meta: recorded < dropped");
  else if (J.Events.size() != J.Recorded - J.Dropped)
    Errors.push_back("meta: " + std::to_string(J.Events.size()) +
                     " events survive but recorded-dropped = " +
                     std::to_string(J.Recorded - J.Dropped));
  if (!J.Events.empty() && J.Events.back().Id != J.Recorded)
    Errors.push_back("meta: last event is #" +
                     std::to_string(J.Events.back().Id) + " but recorded = " +
                     std::to_string(J.Recorded));
  return Errors;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

static void renderEventInline(std::string &Out, const ParsedJournalEvent &E) {
  Out += '#';
  Out += std::to_string(E.Id);
  Out += " t=";
  Out += std::to_string(E.At);
  Out += ' ';
  Out += E.Kind;
  if (!E.Detail.empty())
    Out += " [" + E.Detail + "]";
  for (const auto &A : E.Args)
    Out += " " + A.first + "=" + std::to_string(A.second);
}

std::string cws::obs::renderJournalEventInline(const ParsedJournalEvent &E) {
  std::string Out;
  renderEventInline(Out, E);
  return Out;
}

/// Appends "trigger: #N env.change ..." when \p E carries a trigger.
static void renderTrigger(std::string &Out, const ParsedJournal &J,
                          const ParsedJournalEvent &E, const char *Indent) {
  if (E.Trigger == 0)
    return;
  Out += Indent;
  Out += "trigger: ";
  if (const ParsedJournalEvent *T = J.byId(E.Trigger)) {
    renderEventInline(Out, *T);
  } else {
    Out += '#';
    Out += std::to_string(E.Trigger) + " (dropped from ring)";
  }
  Out += "\n";
}

/// Walks the cause chain of \p E backwards to the nearest event of
/// \p Kind, or null when the chain ends (or leaves the ring) first.
static const ParsedJournalEvent *
findInChain(const ParsedJournal &J, const ParsedJournalEvent &E,
            const std::string &Kind) {
  const ParsedJournalEvent *Cur = &E;
  while (Cur->Cause != 0) {
    Cur = J.byId(Cur->Cause);
    if (!Cur)
      return nullptr;
    if (Cur->Kind == Kind)
      return Cur;
  }
  return nullptr;
}

std::string cws::obs::explainJob(const ParsedJournal &J, int64_t JobId) {
  std::vector<const ParsedJournalEvent *> Chain;
  for (const ParsedJournalEvent &E : J.Events)
    if (E.JobId == JobId)
      Chain.push_back(&E);
  if (Chain.empty())
    return "job " + std::to_string(JobId) + ": no events in journal\n";
  int64_t Flow = -1;
  for (const ParsedJournalEvent *E : Chain)
    if (E->FlowId >= 0) {
      Flow = E->FlowId;
      break;
    }
  std::string Out = "job " + std::to_string(JobId);
  if (Flow >= 0)
    Out += " (flow " + std::to_string(Flow) + ")";
  Out += ": " + std::to_string(Chain.size()) + " events\n";
  if (J.Dropped > 0 && Chain.front()->Cause != 0 &&
      !J.byId(Chain.front()->Cause))
    Out += "  (earlier events dropped by the ring)\n";
  for (const ParsedJournalEvent *E : Chain) {
    Out += "  ";
    renderEventInline(Out, *E);
    Out += "\n";
    renderTrigger(Out, J, *E, "      ");
  }
  return Out;
}

std::string cws::obs::explainReallocations(const ParsedJournal &J) {
  std::string Out;
  size_t Count = 0;
  for (const ParsedJournalEvent &E : J.Events) {
    if (E.Kind != "reallocate")
      continue;
    ++Count;
    Out += "job " + std::to_string(E.JobId) + " reallocated at t=" +
           std::to_string(E.At) + " (#" + std::to_string(E.Id) + ")";
    if (!E.Detail.empty())
      Out += " [" + E.Detail + "]";
    Out += "\n";
    renderTrigger(Out, J, E, "  ");
    // The invalidation that found the broken slot is the nearest one up
    // the job's own causal chain.
    if (const ParsedJournalEvent *Inv = findInChain(J, E, "invalidate")) {
      Out += "  invalidated: ";
      renderEventInline(Out, *Inv);
      Out += "\n";
      if (Inv->Trigger != E.Trigger)
        renderTrigger(Out, J, *Inv, "      ");
    }
    // The outcome is the job's next terminal decision after the
    // reallocation.
    for (const ParsedJournalEvent &Later : J.Events) {
      if (Later.Id <= E.Id || Later.JobId != E.JobId)
        continue;
      if (Later.Kind == "commit" || Later.Kind == "reject" ||
          Later.Kind == "reallocate") {
        Out += "  outcome: ";
        renderEventInline(Out, Later);
        Out += "\n";
        break;
      }
    }
  }
  if (Count == 0)
    return "no reallocations in journal\n";
  Out += std::to_string(Count) + " reallocation(s)\n";
  return Out;
}

std::string cws::obs::explainRejections(const ParsedJournal &J) {
  std::string Out;
  size_t Count = 0;
  for (const ParsedJournalEvent &E : J.Events) {
    if (E.Kind != "reject")
      continue;
    ++Count;
    Out += "job " + std::to_string(E.JobId) + " rejected at t=" +
           std::to_string(E.At) + " (#" + std::to_string(E.Id) + ")";
    if (!E.Detail.empty())
      Out += ": " + E.Detail;
    Out += "\n";
    if (E.Cause != 0) {
      Out += "  after: ";
      if (const ParsedJournalEvent *C = J.byId(E.Cause)) {
        renderEventInline(Out, *C);
      } else {
        Out += '#';
        Out += std::to_string(E.Cause) + " (dropped from ring)";
      }
      Out += "\n";
    }
    renderTrigger(Out, J, E, "  ");
  }
  if (Count == 0)
    return "no rejections in journal\n";
  Out += std::to_string(Count) + " rejection(s)\n";
  return Out;
}

std::string cws::obs::journalSummary(const ParsedJournal &J) {
  static constexpr JournalKind Columns[] = {
      JournalKind::Arrival,      JournalKind::Variant,
      JournalKind::Collision,    JournalKind::Invalidate,
      JournalKind::ShiftAttempt, JournalKind::Reallocate,
      JournalKind::Commit,       JournalKind::Reject};
  const JournalFold Fold = foldJournal(J);
  Table T({"flow", "arrivals", "variants", "collisions", "invalidations",
           "shifts", "reallocs", "commits", "rejects"});
  bool HaveRows = false;
  for (const auto &[Flow, Counts] : Fold.Flows) {
    std::vector<std::string> Row{Flow < 0 ? std::string("-")
                                          : std::to_string(Flow)};
    int64_t Any = 0;
    for (JournalKind K : Columns) {
      Any += Counts[K];
      Row.push_back(std::to_string(Counts[K]));
    }
    // Flowless marker events (sim notes) would render an all-zero row.
    if (Any == 0)
      continue;
    HaveRows = true;
    T.addRow(Row);
  }
  std::ostringstream OS;
  OS << "journal: " << J.Recorded << " recorded, " << J.Dropped
     << " dropped, " << J.Events.size() << " surviving; "
     << Fold.Totals[JournalKind::EnvChange] << " environment change(s)\n";
  if (HaveRows)
    T.print(OS);
  return OS.str();
}
