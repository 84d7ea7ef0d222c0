//===-- core/Shift.cpp - Distribution shifting ----------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/Shift.h"
#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

Distribution cws::shiftDistribution(const Distribution &D, Tick Delta) {
  // Zero-shift fast path: a straight copy, byte-identical placements.
  if (Delta == 0)
    return D;
  Distribution Shifted;
  for (const auto &P : D.placements()) {
    CWS_CHECK(P.Start + Delta >= 0, "shift would move a placement before 0");
    Shifted.add({P.TaskId, P.NodeId, P.Start + Delta, P.End + Delta,
                 P.EconomicCost});
  }
  return Shifted;
}

std::optional<Tick> cws::minimalFeasibleShift(const Distribution &D,
                                              const Grid &G, Tick Deadline,
                                              OwnerId Ignore,
                                              uint64_t *Scanned) {
  if (D.empty())
    return 0;
  // Delta = 0 fast path: an already-feasible distribution needs no
  // shift. Pinned behavior (no journal, no metrics, no search) so the
  // recovery paths can treat "already fits" as a strict no-op.
  if (D.makespan() <= Deadline) {
    bool Free = true;
    for (const auto &P : D.placements())
      if (!G.node(P.NodeId).timeline().isFreeFor(P.Start, P.End, Ignore)) {
        Free = false;
        break;
      }
    if (Free)
      return 0;
  }
  Tick Delta = 0;
  // Each round either succeeds or pushes Delta past at least one
  // blocking interval, so the loop terminates once the deadline clips.
  while (D.makespan() + Delta <= Deadline) {
    Tick NextDelta = Delta;
    bool Blocked = false;
    for (const auto &P : D.placements()) {
      const Timeline &Line = G.node(P.NodeId).timeline();
      Tick B = P.Start + Delta;
      Tick E = P.End + Delta;
      if (Line.isFreeFor(B, E, Ignore))
        continue;
      Blocked = true;
      // Find the furthest blocking interval overlapping [B, E) and jump
      // past it.
      std::span<const Interval> Overlap = Line.overlapping(B, E);
      if (Scanned)
        *Scanned += Overlap.size();
      for (const Interval &I : Overlap)
        if (I.Owner != Ignore)
          NextDelta = std::max(NextDelta, I.End - P.Start);
    }
    if (!Blocked)
      return Delta;
    CWS_CHECK(NextDelta > Delta, "shift search made no progress");
    Delta = NextDelta;
  }
  return std::nullopt;
}
