//===-- core/CriticalWork.h - Critical work extraction ----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Critical works. A critical work is "the longest (in terms of
/// estimated execution time) chain of unassigned tasks" of a compound
/// job, where chain length counts reference execution times plus data
/// transfer times (Fig. 2a's four works are 12, 11, 10 and 9 units
/// long). The multiphase critical works method extracts one work per
/// phase until every task is assigned.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_CRITICALWORK_H
#define CWS_CORE_CRITICALWORK_H

#include "sim/Time.h"

#include <cstddef>
#include <vector>

namespace cws {

class Job;

/// One chain of tasks plus its reference length.
struct CriticalWork {
  /// Task ids in precedence order.
  std::vector<unsigned> TaskIds;
  /// Sum of reference execution ticks plus base transfer ticks along the
  /// chain.
  Tick RefLength = 0;
};

/// Longest chain within the tasks for which Assigned[t] is false.
/// Transfers count only between two unassigned chain neighbours. Returns
/// an empty work when everything is assigned. \p Order is
/// `J.topoOrder()`, which a caller extracting several works computes
/// once.
CriticalWork findCriticalWork(const Job &J, const std::vector<unsigned> &Order,
                              const std::vector<bool> &Assigned);

/// The phase sequence of the critical works method: repeatedly the
/// longest chain of still-unassigned tasks. The returned works partition
/// the task set.
std::vector<CriticalWork> criticalWorkPhases(const Job &J);

/// Every maximal source-to-sink chain with its reference length, longest
/// first, capped at \p MaxChains (chain count can be exponential).
/// Reproduces the paper's enumeration "P1-P2-P4-P6, P1-P2-P5-P6,
/// P1-P3-P4-P6, P1-P3-P5-P6" for Fig. 2a.
std::vector<CriticalWork> allFullChains(const Job &J, size_t MaxChains = 64);

} // namespace cws

#endif // CWS_CORE_CRITICALWORK_H
