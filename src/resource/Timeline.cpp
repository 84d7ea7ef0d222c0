//===-- resource/Timeline.cpp - Node reservation calendar -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/Timeline.h"
#include "support/Check.h"

#include <algorithm>

using namespace cws;

size_t Timeline::lowerBound(Tick T) const {
  auto It = std::partition_point(Busy.begin(), Busy.end(),
                                 [T](const Interval &I) { return I.End <= T; });
  return static_cast<size_t>(It - Busy.begin());
}

bool Timeline::isFree(Tick B, Tick E) const {
  if (B >= E)
    return true;
  size_t Idx = lowerBound(B);
  return Idx == Busy.size() || Busy[Idx].Begin >= E;
}

bool Timeline::isFreeFor(Tick B, Tick E, OwnerId Except) const {
  if (B >= E)
    return true;
  for (size_t Idx = lowerBound(B); Idx < Busy.size(); ++Idx) {
    if (Busy[Idx].Begin >= E)
      break;
    if (Busy[Idx].Owner != Except)
      return false;
  }
  return true;
}

const Interval *Timeline::firstOverlap(Tick B, Tick E) const {
  if (B >= E)
    return nullptr;
  size_t Idx = lowerBound(B);
  if (Idx == Busy.size() || Busy[Idx].Begin >= E)
    return nullptr;
  return &Busy[Idx];
}

std::span<const Interval> Timeline::overlapping(Tick B, Tick E) const {
  const Interval *First = Busy.data() + lowerBound(B);
  const Interval *Last = First;
  while (Last != Busy.data() + Busy.size() && Last->Begin < E)
    ++Last;
  return {First, Last};
}

bool Timeline::reserve(Tick B, Tick E, OwnerId Owner) {
  CWS_CHECK(B < E, "reservation must be a non-empty interval");
  CWS_CHECK(Owner != 0, "owner id 0 is reserved");
  size_t Idx = lowerBound(B);
  if (Idx != Busy.size() && Busy[Idx].Begin < E)
    return false;
  Busy.insert(Busy.begin() + static_cast<ptrdiff_t>(Idx), {B, E, Owner});
  return true;
}

Tick Timeline::earliestFit(Tick NotBefore, Tick Dur) const {
  CWS_CHECK(Dur > 0, "earliestFit needs a positive duration");
  Tick Candidate = NotBefore;
  for (size_t Idx = lowerBound(NotBefore); Idx < Busy.size(); ++Idx) {
    if (Busy[Idx].Begin >= Candidate + Dur)
      return Candidate;
    Candidate = std::max(Candidate, Busy[Idx].End);
  }
  return Candidate;
}

size_t Timeline::releaseOwner(OwnerId Owner) {
  size_t Before = Busy.size();
  Busy.erase(std::remove_if(
                 Busy.begin(), Busy.end(),
                 [Owner](const Interval &I) { return I.Owner == Owner; }),
             Busy.end());
  return Before - Busy.size();
}

bool Timeline::release(Tick B, Tick E, OwnerId Owner) {
  for (size_t Idx = lowerBound(B); Idx < Busy.size(); ++Idx) {
    if (Busy[Idx].Begin >= E)
      break;
    if (Busy[Idx].Begin == B && Busy[Idx].End == E &&
        Busy[Idx].Owner == Owner) {
      Busy.erase(Busy.begin() + static_cast<ptrdiff_t>(Idx));
      return true;
    }
  }
  return false;
}

Tick Timeline::busyTicks(Tick From, Tick To) const {
  Tick Sum = 0;
  for (size_t Idx = lowerBound(From); Idx < Busy.size(); ++Idx) {
    if (Busy[Idx].Begin >= To)
      break;
    Sum += std::min(To, Busy[Idx].End) - std::max(From, Busy[Idx].Begin);
  }
  return Sum;
}

Tick Timeline::busyTicksOf(Tick From, Tick To, OwnerId MinOwner,
                           OwnerId MaxOwner) const {
  Tick Sum = 0;
  for (size_t Idx = lowerBound(From); Idx < Busy.size(); ++Idx) {
    if (Busy[Idx].Begin >= To)
      break;
    if (Busy[Idx].Owner < MinOwner || Busy[Idx].Owner > MaxOwner)
      continue;
    Sum += std::min(To, Busy[Idx].End) - std::max(From, Busy[Idx].Begin);
  }
  return Sum;
}

size_t Timeline::assignLive(const Timeline &From, Tick Horizon) {
  auto First = From.Busy.begin() +
               static_cast<ptrdiff_t>(From.lowerBound(Horizon));
  Busy.assign(First, From.Busy.end());
  return Busy.size();
}

double Timeline::utilization(Tick From, Tick To) const {
  if (From >= To)
    return 0.0;
  return static_cast<double>(busyTicks(From, To)) /
         static_cast<double>(To - From);
}
