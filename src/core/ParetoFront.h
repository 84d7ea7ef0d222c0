//===-- core/ParetoFront.h - (finish, cost) front maintenance ---*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maintenance of the chain DP's Pareto fronts of (finish time, economic
/// cost) labels. A front is kept sorted by Finish strictly ascending and
/// Cost strictly descending (modulo the cost epsilon) — the defining
/// invariant of a two-objective Pareto set — which makes insertion
/// O(log F + moved elements) instead of the two linear scans of a naive
/// dominance filter:
///
///   * the new label is dominated iff the last label finishing no later
///     (the cheapest of those) costs no more — one binary search on
///     Finish (`paretoDominated`);
///   * the labels the new one dominates are exactly a contiguous run
///     starting at its insertion point (Finish no earlier, Cost no
///     lower), removed with a single range erase.
///
/// A rejected insert never changes the front. So a caller that knows a
/// candidate's cost and a lower bound on its finish can ask
/// `paretoDominated` first and skip the work of computing the finish
/// when the answer is yes; the chain DP does this before each
/// earliest-fit query. When the finish then equals the bound it asked
/// about, the answer still holds, and `paretoInsertUndominated` inserts
/// without searching again.
///
/// The header is intentionally standalone and template-based so tests
/// and future search layers can drive the maintenance with their own
/// label and container types (any vector-like container of structs with
/// `Finish` and `Cost` members works, including `SmallVector`).
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_PARETOFRONT_H
#define CWS_CORE_PARETOFRONT_H

#include <algorithm>
#include <cstddef>

namespace cws {

/// Tolerance under which two economic costs are considered equal.
inline constexpr double CostEpsilon = 1e-9;

/// Epsilon-tolerant "A costs no more than B". This single helper is
/// used both for the dominance test (an existing label dominates the
/// candidate) and the eviction test (the candidate dominates existing
/// labels), so at equal cost the two directions agree and precedence is
/// decided by check order alone: dominance is tested first, hence ties
/// deterministically keep the incumbent label.
inline bool costLeq(double A, double B) { return A <= B + CostEpsilon; }

/// Outcome of one insertion, for the caller's load metrics.
struct ParetoInsertOutcome {
  /// False when the candidate was dominated and dropped.
  bool Inserted = false;
  /// True when the size cap forced a middle-of-front eviction. The
  /// evicted label may be the candidate itself, which then still counts
  /// as inserted.
  bool EvictedForCap = false;
};

/// True when \p Front holds a label finishing no later than
/// \p FinishBound that costs no more than \p Cost. Then `paretoInsert`
/// rejects every label of cost \p Cost finishing at or after
/// \p FinishBound, and leaves the front as it is.
template <typename FrontT, typename FinishT>
bool paretoDominated(const FrontT &Front, FinishT FinishBound, double Cost) {
  // Cost descends along the front, so the last label finishing by the
  // bound is the cheapest of those that do.
  auto End = std::partition_point(
      Front.begin(), Front.end(),
      [FinishBound](const auto &E) { return E.Finish <= FinishBound; });
  return End != Front.begin() && costLeq((End - 1)->Cost, Cost);
}

/// Inserts \p L, which \p Front does not dominate (the caller has seen
/// `paretoDominated(Front, L.Finish, L.Cost)` answer false), preserving
/// the front invariant. When the front would exceed \p MaxFrontSize the
/// middle label is evicted so both extremes (earliest finish, cheapest
/// cost) survive. The eviction happens before the insert, so a front
/// built under one cap never holds more labels than the cap, not even
/// briefly: a `SmallVector` front with that inline capacity never
/// touches the heap.
template <typename FrontT, typename LabelT>
ParetoInsertOutcome paretoInsertUndominated(FrontT &Front, const LabelT &L,
                                            size_t MaxFrontSize) {
  ParetoInsertOutcome Outcome;
  Outcome.Inserted = true;
  auto Pos = std::lower_bound(
      Front.begin(), Front.end(), L,
      [](const LabelT &A, const LabelT &B) { return A.Finish < B.Finish; });

  // Eviction: everything from Pos finishes no earlier, and those the
  // new label dominates (cost no lower) are a contiguous prefix of that
  // suffix because Cost descends.
  auto EvictEnd = std::partition_point(
      Pos, Front.end(),
      [&L](const LabelT &E) { return costLeq(L.Cost, E.Cost); });
  if (EvictEnd != Pos) {
    Pos = Front.erase(Pos, EvictEnd);
  } else if (Front.size() >= MaxFrontSize) {
    // Keep the extremes: drop the label at index size / 2 of the front
    // the insert would make. When that is the new label itself, the
    // front stays as it is.
    Outcome.EvictedForCap = true;
    auto Mid = Front.begin() + static_cast<ptrdiff_t>((Front.size() + 1) / 2);
    if (Pos == Mid)
      return Outcome;
    if (Pos < Mid) {
      Front.erase(Mid - 1);
    } else {
      Front.erase(Mid);
      --Pos;
    }
  }
  Front.insert(Pos, L);
  return Outcome;
}

/// Inserts \p L into \p Front unless a label already there dominates
/// it; see `paretoInsertUndominated`.
template <typename FrontT, typename LabelT>
ParetoInsertOutcome paretoInsert(FrontT &Front, const LabelT &L,
                                 size_t MaxFrontSize) {
  if (paretoDominated(Front, L.Finish, L.Cost))
    return {};
  return paretoInsertUndominated(Front, L, MaxFrontSize);
}

} // namespace cws

#endif // CWS_CORE_PARETOFRONT_H
