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
/// Cost strictly descending (any two labels differ by more than the cost
/// epsilon) — the defining invariant of a two-objective Pareto set. So
/// one count tells everything an insert needs:
///
///   * the *rank* of a finish is the number of labels finishing no later
///     (`paretoRank`, one linear count: a front holds a few labels);
///   * the new label is dominated iff the last label of its rank (the
///     cheapest of those) costs no more (`paretoDominatedAt`);
///   * otherwise it goes in at its rank, before a label of equal finish,
///     and the labels it dominates are exactly a contiguous run starting
///     there (Finish no earlier, Cost no lower), removed in one erase.
///
/// A rejected insert never changes the front. So a caller that knows a
/// candidate's cost and a lower bound on its finish can ask
/// `paretoDominated` first and skip the work of computing the finish
/// when the answer is yes; the chain DP does this before each
/// earliest-fit query. When the finish then equals the bound it asked
/// about, the rank still holds, and `paretoInsertAt` inserts without
/// counting again.
///
/// A reader that only wants the two extremes of a front (its earliest
/// finish and its cheapest label) can keep just those: the extremes of
/// the full front evolve without the labels between them, except where
/// a candidate's cost nearly ties the cheapest one (`costNearTie`).
/// `paretoExtremesKept` and `paretoExtremesInsert` maintain such a
/// front; the chain DP keeps one at a chain's last position, which only
/// its terminal pick reads (see docs/ARCHITECTURE.md, "What the pick
/// reads"). `ParetoPick` is that pick's fold; the DP runs it over the
/// last position's fronts as it builds them, and `paretoPicksBeat` tells
/// it which candidates the fronts folded so far already beat.
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
#include <cmath>
#include <cstddef>
#include <limits>

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

/// A few units in the last place of the larger of \p A and \p B: the
/// near-tie tests below widen their windows by it, for the roundings of
/// the epsilon comparisons.
inline double costTieSlack(double A, double B) {
  return 0x1p-48 * std::max(std::abs(A), std::abs(B));
}

/// True when \p A and \p B differ, but by at most 2 * CostEpsilon (plus
/// the slack). Only between such costs can a label inside a front change
/// the front's extremes or a Cost pick over them.
inline bool costNearTie(double A, double B) {
  double Gap = std::abs(A - B);
  return Gap != 0 && Gap <= 2 * CostEpsilon + costTieSlack(A, B);
}

/// True when \p Cost exceeds \p Best by more than 2 * CostEpsilon plus
/// the slack: no label within CostEpsilon of such a cost is cheaper than
/// \p Best + CostEpsilon.
inline bool costAboveTie(double Cost, double Best) {
  return Cost - Best > 2 * CostEpsilon + costTieSlack(Cost, Best);
}

/// True when \p Cost exceeds \p Best by CostEpsilon to 2 * CostEpsilon,
/// each end widened by the slack: the costs between those below
/// \p Best + CostEpsilon and those `costAboveTie` accepts.
inline bool costInTieBand(double Cost, double Best) {
  double Gap = Cost - Best;
  double Slack = costTieSlack(Cost, Best);
  return Gap >= CostEpsilon - Slack && Gap <= 2 * CostEpsilon + Slack;
}

/// One of the chain DP's two terminal picks, folded over labels in the
/// order it reads them: the Cost pick (\p ByCost) keeps a label cheaper
/// than the best by more than the epsilon, or within it and finishing
/// earlier; the Time pick keeps an earlier finish, or an equal one
/// cheaper by more than the epsilon.
template <typename FinishT> struct ParetoPick {
  bool ByCost;
  FinishT Finish = std::numeric_limits<FinishT>::max();
  double Cost = std::numeric_limits<double>::max();
  /// Whether a label has been folded in.
  bool Found = false;

  /// Folds in a label; returns whether it became the best.
  bool fold(FinishT F, double C) {
    bool Better = ByCost ? C < Cost - CostEpsilon ||
                               (C < Cost + CostEpsilon && F < Finish)
                         : F < Finish || (F == Finish && C < Cost - CostEpsilon);
    if (Better) {
      Finish = F;
      Cost = C;
      Found = true;
    }
    return Better;
  }
};

/// True when a candidate finishing at \p FinishBound or later and costing
/// \p Cost wins neither pick, for a front the picks read after the fronts
/// folded into \p Time and \p Cheapest: it finishes after the Time
/// pick's best, and its cost is `costAboveTie` of the Cost pick's. A
/// front that skips such candidates keeps what both picks read unless a
/// candidate of it costs `costInTieBand` of the Cost pick's best (see
/// docs/ARCHITECTURE.md, "What the pick reads").
template <typename FinishT>
bool paretoPicksBeat(const ParetoPick<FinishT> &Time,
                     const ParetoPick<FinishT> &Cheapest, FinishT FinishBound,
                     double Cost) {
  return Time.Found && FinishBound > Time.Finish &&
         costAboveTie(Cost, Cheapest.Cost);
}

/// Outcome of one insertion, for the caller's load metrics.
struct ParetoInsertOutcome {
  /// False when the candidate was dominated and dropped.
  bool Inserted = false;
  /// True when the size cap forced a middle-of-front eviction. The
  /// evicted label may be the candidate itself, which then still counts
  /// as inserted.
  bool EvictedForCap = false;
};

/// The number of labels of \p Front finishing no later than \p Finish.
template <typename FrontT, typename FinishT>
size_t paretoRank(const FrontT &Front, FinishT Finish) {
  size_t Rank = 0;
  for (const auto &E : Front)
    Rank += E.Finish <= Finish;
  return Rank;
}

/// True when \p Front holds a label among the first \p Rank that costs
/// no more than \p Cost. With the rank of a finish F, `paretoInsertAt`
/// then rejects every label of cost \p Cost finishing at F or later, and
/// leaves the front as it is.
template <typename FrontT>
bool paretoDominatedAt(const FrontT &Front, size_t Rank, double Cost) {
  // Cost descends along the front, so the last label of the rank is the
  // cheapest of those finishing by F.
  return Rank != 0 && costLeq(Front[Rank - 1].Cost, Cost);
}

/// True when \p Front holds a label finishing no later than
/// \p FinishBound that costs no more than \p Cost.
template <typename FrontT, typename FinishT>
bool paretoDominated(const FrontT &Front, FinishT FinishBound, double Cost) {
  return paretoDominatedAt(Front, paretoRank(Front, FinishBound), Cost);
}

/// Inserts \p L, which \p Front does not dominate, given the rank of its
/// finish (the caller has seen `paretoDominatedAt(Front, Rank, L.Cost)`
/// answer false), preserving the front invariant. When the front would
/// exceed \p MaxFrontSize the middle label is evicted so both extremes
/// (earliest finish, cheapest cost) survive. The eviction happens before
/// the insert, so a front built under one cap never holds more labels
/// than the cap, not even briefly: a `SmallVector` front with that inline
/// capacity never touches the heap.
template <typename FrontT, typename LabelT>
ParetoInsertOutcome paretoInsertAt(FrontT &Front, size_t Rank,
                                   const LabelT &L, size_t MaxFrontSize) {
  ParetoInsertOutcome Outcome;
  Outcome.Inserted = true;
  // Finish ascends strictly, so at most the last label of the rank
  // finishes with L, and L goes in before it.
  size_t Pos = Rank;
  if (Pos != 0 && Front[Pos - 1].Finish == L.Finish)
    --Pos;

  // Eviction: everything from Pos finishes no earlier, and those the
  // new label dominates (cost no lower) are a contiguous prefix of that
  // suffix because Cost descends.
  size_t EvictEnd = Pos;
  while (EvictEnd != Front.size() && costLeq(L.Cost, Front[EvictEnd].Cost))
    ++EvictEnd;
  auto At = Front.begin() + static_cast<ptrdiff_t>(Pos);
  if (EvictEnd != Pos) {
    At = Front.erase(At, Front.begin() + static_cast<ptrdiff_t>(EvictEnd));
  } else if (Front.size() >= MaxFrontSize) {
    // Keep the extremes: drop the label at index size / 2 of the front
    // the insert would make. When that is the new label itself, the
    // front stays as it is.
    Outcome.EvictedForCap = true;
    size_t Mid = (Front.size() + 1) / 2;
    if (Pos == Mid)
      return Outcome;
    if (Pos < Mid) {
      Front.erase(Front.begin() + static_cast<ptrdiff_t>(Mid - 1));
    } else {
      Front.erase(Front.begin() + static_cast<ptrdiff_t>(Mid));
      --At;
    }
  }
  Front.insert(At, L);
  return Outcome;
}

/// Inserts \p L into \p Front unless a label already there dominates
/// it; see `paretoInsertAt`.
template <typename FrontT, typename LabelT>
ParetoInsertOutcome paretoInsert(FrontT &Front, const LabelT &L,
                                 size_t MaxFrontSize) {
  size_t Rank = paretoRank(Front, L.Finish);
  if (paretoDominatedAt(Front, Rank, L.Cost))
    return {};
  return paretoInsertAt(Front, Rank, L, MaxFrontSize);
}

/// For \p Front holding only the extremes of a full front (its first
/// label, then its last one when they differ): true when a label of
/// cost \p Cost finishing no earlier than \p FinishBound replaces
/// neither extreme of the full front. It finishes after the first
/// label, and the cheapest label is cheaper by more than the epsilon, so
/// the full front keeps it between the two, or drops it.
template <typename FrontT, typename FinishT>
bool paretoExtremesKept(const FrontT &Front, FinishT FinishBound,
                        double Cost) {
  return !Front.empty() && FinishBound > Front[0].Finish &&
         !costLeq(Cost, Front.back().Cost);
}

/// Inserts \p L into \p Front, which holds only the extremes of a full
/// front, as a `paretoInsertAt` into the full front (under any cap)
/// would change them. The extremes must not dominate \p L, and its cost
/// must not nearly tie the cheapest label's (`costNearTie`): only then
/// do the labels between the extremes not matter. Returns whether an
/// extreme changed.
template <typename FrontT, typename LabelT>
bool paretoExtremesInsert(FrontT &Front, const LabelT &L) {
  if (Front.empty()) {
    Front.push_back(L);
    return true;
  }
  // Not dominated, so finishing no later than the first label means
  // evicting or preceding it. The cheapest label goes when L finishes
  // after it (and so is cheaper by more than the epsilon) or L costs no
  // more: then no label between them dominates L, as each costs more
  // than the cheapest one by more than the epsilon.
  bool First = L.Finish <= Front[0].Finish;
  bool Last = L.Finish >= Front.back().Finish ||
              costLeq(L.Cost, Front.back().Cost);
  if (!First && !Last)
    return false;
  LabelT Earliest = First ? L : Front[0];
  LabelT Cheapest = Last ? L : Front.back();
  Front.clear();
  Front.push_back(Earliest);
  if (!(First && Last))
    Front.push_back(Cheapest);
  return true;
}

} // namespace cws

#endif // CWS_CORE_PARETOFRONT_H
