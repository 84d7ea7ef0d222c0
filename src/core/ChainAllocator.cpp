//===-- core/ChainAllocator.cpp - DP allocation of one chain --------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "core/ChainAllocator.h"
#include "job/Job.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>
#include <limits>

using namespace cws;

namespace {
/// The DP-internal count no span carries: the `chain.dp` span's work
/// counters already keep the labels and the reruns.
struct AllocatorMetrics {
  obs::Counter &Evictions = obs::Registry::global().counter(
      "cws_chain_front_evictions_total",
      "labels evicted when a Pareto front exceeded its size cap");
  static AllocatorMetrics &get() {
    static AllocatorMetrics M;
    return M;
  }
};
} // namespace

DpWork &DpWork::operator+=(const DpWork &Other) {
  Labels += Other.Labels;
  FitQueries += Other.FitQueries;
  Reruns += Other.Reruns;
  PassesUnreachable += Other.PassesUnreachable;
  FrontsSkipped += Other.FrontsSkipped;
  TieFallbacks += Other.TieFallbacks;
  return *this;
}

DpWork &DpWork::operator-=(const DpWork &Other) {
  Labels -= Other.Labels;
  FitQueries -= Other.FitQueries;
  Reruns -= Other.Reruns;
  PassesUnreachable -= Other.PassesUnreachable;
  FrontsSkipped -= Other.FrontsSkipped;
  TieFallbacks -= Other.TieFallbacks;
  return *this;
}

ChainDpPhase::ChainDpPhase(const ChainAllocator &Allocator,
                           const CriticalWork &Chain)
    : Scope("core", "chain.dp", "chain_len",
            static_cast<int64_t>(Chain.TaskIds.size())),
      Allocator(Allocator), Start(Allocator.work()) {}

ChainDpPhase::~ChainDpPhase() {
  DpWork W = Allocator.work();
  W -= Start;
  W += Added;
  Scope.work("labels", W.Labels);
  Scope.work("fit_queries", W.FitQueries);
  Scope.work("dp_reruns", W.Reruns);
  Scope.work("passes_unreachable", W.PassesUnreachable);
  Scope.work("fronts_skipped", W.FrontsSkipped);
  Scope.work("tie_fallbacks", W.TieFallbacks);
}

const char *cws::optimizationBiasName(OptimizationBias Bias) {
  switch (Bias) {
  case OptimizationBias::Cost:
    return "cost";
  case OptimizationBias::Time:
    return "time";
  }
  CWS_UNREACHABLE("unknown optimization bias");
}

ChainAllocator::ChainAllocator(const Job &J, Grid &ScratchGrid,
                               DataPolicy &Policy, const CostModel &Cost,
                               const AllocatorPolicy &Params)
    : J(J), G(ScratchGrid), Policy(Policy), Cost(Cost), Params(Params),
      Search(Params.SearchNodes ? *Params.SearchNodes
                                : Params.CandidateNodes),
      Buf(threadBuffers()) {
  const std::vector<unsigned> &Cand = Params.CandidateNodes;
  CWS_CHECK(!Cand.empty(), "allocation needs at least one candidate node");
  CWS_CHECK(Params.MaxFrontSize >= 2, "front size cap too small");
  // Labels reach a front and the pick sees fronts in candidate order, so
  // the searched nodes must keep it.
  auto At = Cand.begin();
  for (unsigned NodeId : Search) {
    At = std::find(At, Cand.end(), NodeId);
    CWS_CHECK(At != Cand.end(),
              "searched nodes must be candidates, in candidate order");
    ++At;
  }
}

ChainAllocator::Buffers &ChainAllocator::threadBuffers() {
  thread_local Buffers B;
  return B;
}

namespace {

/// The two smallest values over a row's fronts and the front holding the
/// smaller: the smallest over the fronts other than n is `other(n)`.
template <typename T> struct RowMin {
  T Min1 = std::numeric_limits<T>::max();
  T Min2 = std::numeric_limits<T>::max();
  size_t Idx = SIZE_MAX;

  void add(T V, size_t I) {
    if (V < Min1) {
      Min2 = Min1;
      Min1 = V;
      Idx = I;
    } else if (V < Min2) {
      Min2 = V;
    }
  }
  T other(size_t I) const { return I == Idx ? Min2 : Min1; }
};

/// Maximum base transfer over all edges Src -> Dst (parallel edges
/// overlap, so the longest one gates readiness).
Tick chainEdgeBase(const Job &J, unsigned Src, unsigned Dst) {
  Tick Base = -1;
  for (size_t EdgeIdx : J.inEdges(Dst)) {
    const DataEdge &E = J.edge(EdgeIdx);
    if (E.Src == Src)
      Base = std::max(Base, E.BaseTransfer);
  }
  CWS_CHECK(Base >= 0, "chain neighbours are not connected by an edge");
  return Base;
}

} // namespace

void ChainAllocator::gatherPlaced(size_t Pos,
                                  const std::vector<unsigned> &Chain,
                                  const Distribution &Dist) {
  unsigned TaskId = Chain[Pos];
  unsigned ChainPred = Pos > 0 ? Chain[Pos - 1] : J.taskCount();
  Buf.Preds.clear();
  for (size_t EdgeIdx : J.inEdges(TaskId)) {
    const DataEdge &E = J.edge(EdgeIdx);
    // Unplaced predecessors belong to later phases.
    const Placement *Src = Dist.find(E.Src);
    if (!Src)
      continue;
    // The chain edge bills the transfer from the previous chain task.
    DataPolicy::FarTicks Far = Policy.far(E.BaseTransfer);
    Buf.Preds.push_back(
        {Src->End, Far.Wait, E.Src == ChainPred ? 0 : Far.Billed});
    if (Buf.PredFree.size() < Buf.Preds.size())
      Buf.PredFree.emplace_back();
    NodeSet &Free = Buf.PredFree[Buf.Preds.size() - 1];
    Policy.replicaNodes(E.Src, Free);
    Free.insert(Src->NodeId);
  }
  Policy.replicaNodes(TaskId, Buf.OwnReplicas);
  Buf.Succs.clear();
  for (size_t EdgeIdx : J.outEdges(TaskId)) {
    const DataEdge &E = J.edge(EdgeIdx);
    if (const Placement *Dst = Dist.find(E.Dst))
      Buf.Succs.push_back({Dst->NodeId, Dst->Start,
                           Buf.OwnReplicas.contains(Dst->NodeId)
                               ? 0
                               : Policy.far(E.BaseTransfer).Wait});
  }
  Buf.ChainFar = {0, 0};
  Buf.ChainReplicas.clear();
  if (Pos > 0) {
    Buf.ChainFar = Policy.far(chainEdgeBase(J, ChainPred, TaskId));
    Policy.replicaNodes(ChainPred, Buf.ChainReplicas);
  }
}

ChainAllocator::PlacedTerms ChainAllocator::placedOn(unsigned NodeId,
                                                     Tick Release) const {
  PlacedTerms Out{Release, 0};
  for (size_t I = 0; I < Buf.Preds.size(); ++I) {
    const PlacedPred &P = Buf.Preds[I];
    if (Buf.PredFree[I].contains(NodeId)) {
      Out.Ready = std::max(Out.Ready, P.End);
      continue;
    }
    Out.Ready = std::max(Out.Ready, P.End + P.Wait);
    Out.Inbound += P.Billed;
  }
  return Out;
}

bool ChainAllocator::computeTerms(size_t Pos,
                                  const std::vector<unsigned> &Chain,
                                  const Distribution &Dist, Tick Release,
                                  Tick Deadline,
                                  const std::vector<Tick> &ExtraReady) {
  const size_t N = Search.size();
  Tick RefTicks = J.task(Chain[Pos]).RefTicks;
  gatherPlaced(Pos, Chain, Dist);
  NodeTerms *Row = &Buf.Terms[Pos * N];
  const NodeTerms *Prev = Pos > 0 ? Row - N : nullptr;
  // The earliest finish of the previous row on a node other than n.
  RowMin<Tick> PrevFinish;
  for (size_t I = 0; Prev && I < N; ++I)
    PrevFinish.add(Prev[I].EarliestFinish, I);
  bool Any = false;
  for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
    unsigned NodeId = Search[NodeIdx];
    const ProcessorNode &Node = G.node(NodeId);
    NodeTerms &T = Row[NodeIdx];
    T.Line = &Node.timeline();
    T.Dur = Node.execTicks(RefTicks);
    PlacedTerms Placed = placedOn(NodeId, Release);
    T.Ready = std::max(Placed.Ready, ExtraReady[Pos]);
    T.Lft = Deadline;
    for (const PlacedSucc &S : Buf.Succs)
      T.Lft = std::min(T.Lft, S.Start - (S.Node == NodeId ? 0 : S.Wait));
    T.EarliestFinish = NoLabel;
    T.Build = false;
    if (T.Ready + T.Dur > T.Lft)
      continue;
    T.FirstFit = T.Line->earliestFit(T.Ready, T.Dur);
    ++Done.FitQueries;
    if (T.FirstFit + T.Dur > T.Lft)
      continue;
    Tick Start = T.FirstFit;
    // The chain edge from another node is free only to a replica.
    const bool ChainFree = Buf.ChainReplicas.contains(NodeId);
    T.ChainTr[0] = 0;
    T.ChainTr[1] = ChainFree ? 0 : Buf.ChainFar.Wait;
    if (Pos > 0) {
      // A label here extends one of the previous row, so it is ready no
      // earlier than the earliest previous finish plus its transfer.
      // With one searched node, no finish comes from another node.
      Tick Ready = NoLabel;
      if (Prev[NodeIdx].EarliestFinish != NoLabel)
        Ready = Prev[NodeIdx].EarliestFinish + T.ChainTr[0];
      Tick OtherFinish = PrevFinish.other(NodeIdx);
      if (OtherFinish != NoLabel)
        Ready = std::min(Ready, OtherFinish + T.ChainTr[1]);
      if (Ready == NoLabel)
        continue;
      Start = std::max(Start, Ready);
    }
    if (Start + T.Dur > T.Lft)
      continue;
    T.EarliestFinish = Start + T.Dur;
    Any = true;
    T.Inbound = Placed.Inbound;
    T.ExecCost = Cost.nodeCost(NodeId, T.Dur);
    const Tick ChainBill[2] = {0, ChainFree ? 0 : Buf.ChainFar.Billed};
    for (int Other = 0; Other < 2; ++Other)
      T.StepCost[Other] = T.ExecCost +
                          Cost.transferCost(ChainBill[Other] + T.Inbound) +
                          (Other ? Params.NodeSwitchPenalty : 0.0);
  }
  return Any;
}

void ChainAllocator::markBuilt(size_t K) {
  const size_t N = Search.size();
  NodeTerms *Last = &Buf.Terms[(K - 1) * N];
  for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx)
    Last[NodeIdx].Build = Last[NodeIdx].EarliestFinish != NoLabel;
  constexpr Tick Never = std::numeric_limits<Tick>::min();
  for (size_t Pos = K - 1; Pos-- > 0;) {
    NodeTerms *Row = &Buf.Terms[Pos * N];
    const NodeTerms *Next = Row + N;
    // The latest finish at which a label here still passes the window
    // test of a built front n of the next row is Lft - Dur - ChainTr of
    // n. Over the built fronts on other nodes, keep the latest and the
    // second latest, and the node of the latest.
    Tick Max1 = Never, Max2 = Never;
    size_t MaxIdx = N;
    for (size_t I = 0; N > 1 && I < N; ++I) {
      if (!Next[I].Build)
        continue;
      Tick L = Next[I].Lft - Next[I].Dur - Next[I].ChainTr[1];
      if (L > Max1) {
        Max2 = Max1;
        Max1 = L;
        MaxIdx = I;
      } else if (L > Max2) {
        Max2 = L;
      }
    }
    for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
      NodeTerms &T = Row[NodeIdx];
      if (T.EarliestFinish == NoLabel)
        continue;
      Tick Latest = MaxIdx == NodeIdx ? Max2 : Max1;
      const NodeTerms &Same = Next[NodeIdx];
      if (Same.Build)
        Latest = std::max(Latest, Same.Lft - Same.Dur - Same.ChainTr[0]);
      T.Build = T.EarliestFinish <= Latest;
      Done.FrontsSkipped += !T.Build;
    }
  }
}

void ChainAllocator::forward(const std::vector<unsigned> &Chain,
                             const Distribution &Dist, Tick Release,
                             Tick Deadline,
                             const std::vector<Tick> &ExtraReady) {
  // The forward DP over (chain position, searched node). It skips only
  // work whose result it would never use, so it keeps exactly the labels
  // a full scan keeps:
  //  * a node left out of the search set has an empty front at every
  //    position. Dropping it drops only empty fronts from the (previous
  //    node, label) order in which labels reach a front, so every front
  //    receives the same labels in the same order;
  //  * the placed neighbours of a position's task do not depend on the
  //    node, and neither does any transfer's cost except through
  //    whether it is free (DataPolicy), so they are gathered and priced
  //    once per position, and each node folds over them with bit tests;
  //  * the terms that do not depend on the previous label are computed
  //    once per (position, node). The scratch timelines do not change
  //    during a pass, so that includes the first fit S0 =
  //    earliestFit(Ready, Dur): a label ready by S0 starts at S0 without
  //    a query, no label starts before S0, and a node where S0 misses
  //    the latest finish takes no label;
  //  * the chain-edge transfer depends on the node pair only through
  //    whether the two nodes differ (the replica memory keys on the
  //    destination), so it takes two values per node, 0 on one node;
  //  * before any front is built, a forward sweep over the terms bounds
  //    each front's earliest finish: a label starts no earlier than S0
  //    and than the previous row's earliest finish plus the transfer,
  //    since earliestFit is monotone in its start. A front whose bound
  //    misses the latest finish holds no label, and a chain whose last
  //    row has no finite bound fails with no front built;
  //  * a backward sweep then drops each front whose bound fails the
  //    window test below for every built front of the next row. That
  //    test runs before any dominance test or insert, so such a front
  //    offers the built fronts nothing, and leaving it empty changes
  //    neither their labels nor the order in which they arrive, cap
  //    evictions and ties included;
  //  * a label with Ready + Dur past the latest finish is dropped; fronts
  //    are sorted by Finish, so Ready never decreases along one, and the
  //    first such label ends the scan of its front;
  //  * a candidate the target front already dominates at
  //    max(Ready, S0) + Dur is rejected whatever its start, and a
  //    rejected insert never changes a front. A candidate that starts at
  //    that bound is inserted without asking again. Along a previous
  //    front, that bound never falls and the cost never rises, so when
  //    the target front dominates the first label's bound at the last
  //    label's cost, it rejects the whole previous front unread;
  //  * at the last position only the pick reads the fronts, and it reads
  //    only each front's earliest-finish and cheapest label. So there a
  //    front keeps just those two, and a candidate that can replace
  //    neither skips its earliest-fit query. Labels between the two
  //    matter only where a candidate's cost nearly ties a front's
  //    cheapest label; the first such candidate stops the row, which is
  //    then rebuilt with full fronts (docs/ARCHITECTURE.md, "What the
  //    pick reads");
  //  * the last position builds its fronts in the order the pick folds
  //    them and folds each one in as it is done, so a candidate that the
  //    fronts before its own already beat for both picks skips its query
  //    and its insert. The skip keeps both picks unless a candidate of
  //    the same front costs one to two epsilons above the Cost pick's
  //    best; such a front also sends the row back to full fronts.
  const size_t K = Chain.size();
  const size_t N = Search.size();
  if (N == 0)
    return; // No node to search: the pick finds no label.
  if (Buf.Fronts.size() < K * N)
    Buf.Fronts.resize(K * N);
  for (size_t I = 0; I < K * N; ++I)
    Buf.Fronts[I].clear();
  if (Buf.Terms.size() < K * N)
    Buf.Terms.resize(K * N);
  for (size_t Pos = 0; Pos < K; ++Pos) {
    if (computeTerms(Pos, Chain, Dist, Release, Deadline, ExtraReady))
      continue;
    // No label reaches this position, so none reaches the last one.
    ++Done.PassesUnreachable;
    for (size_t I = 0; I < Pos * N; ++I)
      Done.FrontsSkipped += Buf.Terms[I].EarliestFinish != NoLabel;
    return;
  }
  markBuilt(K);
  const uint64_t Kept0 = Done.Labels;
  const uint64_t Evicted0 = EvictedLabels;

  for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
    const NodeTerms &T = Buf.Terms[NodeIdx];
    if (!T.Build)
      continue;
    double C = T.ExecCost + Cost.transferCost(T.Inbound);
    Buf.Fronts[NodeIdx].push_back({T.FirstFit + T.Dur, C, T.FirstFit, -1, -1});
    ++Done.Labels;
  }

  for (size_t Pos = 1; Pos < K; ++Pos) {
    const LabelFront *PrevFronts = &Buf.Fronts[(Pos - 1) * N];
    if (std::all_of(PrevFronts, PrevFronts + N,
                    [](const LabelFront &F) { return F.empty(); }))
      break; // Nothing to extend: every later front stays empty.
    if (Pos + 1 < K) {
      buildRow<false>(Pos);
      continue;
    }
    if (buildRow<true>(Pos))
      continue;
    // A near cost tie, or a skip next to the band, at the last position:
    // rebuild it with full fronts.
    ++Done.TieFallbacks;
    for (size_t I = Pos * N; I < K * N; ++I)
      Buf.Fronts[I].clear();
    buildRow<false>(Pos);
  }

  // Published once per pass, from plain counts: the registry total is
  // the same as per-label increments at every point outside a pass. The
  // counter registers with the pass's first label, since registration
  // order is the metrics file's order.
  if (Done.Labels != Kept0)
    AllocatorMetrics::get().Evictions.add(EvictedLabels - Evicted0);
}

template <bool Extremes> bool ChainAllocator::buildRow(size_t Pos) {
  const size_t N = Search.size();
  const LabelFront *PrevFronts = &Buf.Fronts[(Pos - 1) * N];
  // At the last position: both picks' best over the fronts built so far,
  // folded as `pick` folds them, and the earliest first finish and the
  // cheapest cost of the previous row's fronts on other nodes than the
  // target's, which bound every candidate that reaches it from them.
  ParetoPick<Tick> TimeBest{false}, CostBest{true};
  RowMin<Tick> FirstFinish;
  RowMin<double> LastCost;
  if constexpr (Extremes)
    for (size_t PrevIdx = 0; PrevIdx < N; ++PrevIdx)
      if (!PrevFronts[PrevIdx].empty()) {
        FirstFinish.add(PrevFronts[PrevIdx][0].Finish, PrevIdx);
        LastCost.add(PrevFronts[PrevIdx].back().Cost, PrevIdx);
      }
  for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
    const NodeTerms &T = Buf.Terms[Pos * N + NodeIdx];
    if (!T.Build)
      continue;
    // Labels reach this front in (previous node, label) order, as in a
    // scan over every pair: with a capped front the order matters.
    LabelFront &Front = Buf.Fronts[Pos * N + NodeIdx];
    // Whether a candidate the picks beat was skipped, and whether one
    // costs within `costInTieBand` of the Cost pick's best: together they
    // send the row back to full fronts.
    bool Skipped = false, Band = false;
    size_t PrevBegin = 0, PrevEnd = N;
    if constexpr (Extremes) {
      Tick OtherFinish = FirstFinish.other(NodeIdx);
      if (OtherFinish != NoLabel &&
          paretoPicksBeat(TimeBest, CostBest,
                          std::max({T.Ready, OtherFinish + T.ChainTr[1],
                                    T.FirstFit}) +
                              T.Dur,
                          LastCost.other(NodeIdx) + T.StepCost[1])) {
        // Every candidate from another node is beaten.
        Skipped = true;
        PrevBegin = NodeIdx;
        PrevEnd = NodeIdx + 1;
      }
    }
    for (size_t PrevIdx = PrevBegin; PrevIdx < PrevEnd; ++PrevIdx) {
      const LabelFront &PrevFront = PrevFronts[PrevIdx];
      if (PrevFront.empty())
        continue;
      int Other = PrevIdx != NodeIdx;
      Tick ChainTr = T.ChainTr[Other];
      double Step = T.StepCost[Other];
      Tick Ready0 = std::max(T.Ready, PrevFront[0].Finish + ChainTr);
      if (Ready0 + T.Dur > T.Lft)
        continue; // Not even the earliest label fits.
      Tick Bound0 = std::max(Ready0, T.FirstFit) + T.Dur;
      double Cheapest = PrevFront.back().Cost + Step;
      if constexpr (Extremes) {
        if (paretoPicksBeat(TimeBest, CostBest, Bound0, Cheapest)) {
          Skipped = true;
          continue; // Every label of the previous front is beaten.
        }
        // Costs descend along the previous front, so only a front whose
        // costs straddle the band (widened by its dearest label's slack,
        // the largest) can put a candidate in it.
        double Dearest = PrevFront[0].Cost + Step;
        double Slack = costTieSlack(Dearest, CostBest.Cost);
        if (TimeBest.Found && !Band &&
            Cheapest - CostBest.Cost <= 2 * CostEpsilon + Slack &&
            Dearest - CostBest.Cost >= CostEpsilon - Slack)
          for (const Label &Prev : PrevFront)
            Band = Band || costInTieBand(Prev.Cost + Step, CostBest.Cost);
      }
      if (paretoDominated(Front, Bound0, Cheapest))
        continue; // Every label of the previous front is dominated.
      if constexpr (Extremes)
        if (paretoExtremesKept(Front, Bound0, Cheapest) &&
            !costNearTie(Cheapest, Front.back().Cost))
          continue; // No label can replace an extreme or nearly tie.
      for (size_t LabelIdx = 0; LabelIdx < PrevFront.size(); ++LabelIdx) {
        const Label &Prev = PrevFront[LabelIdx];
        Tick Ready = std::max(T.Ready, Prev.Finish + ChainTr);
        if (Ready + T.Dur > T.Lft)
          break;
        double C = Prev.Cost + Step;
        Tick Bound = std::max(Ready, T.FirstFit);
        if constexpr (Extremes)
          if (paretoPicksBeat(TimeBest, CostBest, Bound + T.Dur, C)) {
            Skipped = true;
            continue; // No start can make it win a pick.
          }
        size_t Rank = paretoRank(Front, Bound + T.Dur);
        if (paretoDominatedAt(Front, Rank, C))
          continue;
        if constexpr (Extremes) {
          if (!Front.empty() && costNearTie(C, Front.back().Cost))
            return false;
          if (paretoExtremesKept(Front, Bound + T.Dur, C))
            continue;
        }
        Tick Start = Bound;
        if (Ready > T.FirstFit) {
          Start = T.Line->earliestFit(Ready, T.Dur);
          ++Done.FitQueries;
          if (Start + T.Dur > T.Lft)
            continue;
          if constexpr (Extremes)
            if (paretoPicksBeat(TimeBest, CostBest, Start + T.Dur, C)) {
              Skipped = true;
              continue;
            }
          if (Start != Bound) {
            Rank = paretoRank(Front, Start + T.Dur);
            if (paretoDominatedAt(Front, Rank, C))
              continue;
          }
        }
        Label L{Start + T.Dur, C, Start, static_cast<int32_t>(PrevIdx),
                static_cast<int32_t>(LabelIdx)};
        if constexpr (Extremes) {
          Done.Labels += paretoExtremesInsert(Front, L);
        } else {
          ParetoInsertOutcome Outcome =
              paretoInsertAt(Front, Rank, L, Params.MaxFrontSize);
          Done.Labels += Outcome.Inserted;
          EvictedLabels += Outcome.EvictedForCap;
        }
      }
    }
    if constexpr (Extremes) {
      if (Skipped && Band)
        return false;
      for (const Label &L : Front) {
        TimeBest.fold(L.Finish, L.Cost);
        CostBest.fold(L.Finish, L.Cost);
      }
    }
  }
  return true;
}

bool ChainAllocator::pick(OptimizationBias Bias,
                          const std::vector<unsigned> &Chain,
                          std::vector<ChainStep> &Path) const {
  const size_t K = Chain.size();
  const size_t N = Search.size();
  int32_t BestNode = -1;
  int32_t BestLabel = -1;
  ParetoPick<Tick> Best{Bias == OptimizationBias::Cost};
  for (size_t NodeIdx = 0; NodeIdx < N; ++NodeIdx) {
    const LabelFront &Front = Buf.Fronts[(K - 1) * N + NodeIdx];
    for (size_t LabelIdx = 0; LabelIdx < Front.size(); ++LabelIdx)
      if (Best.fold(Front[LabelIdx].Finish, Front[LabelIdx].Cost)) {
        BestNode = static_cast<int32_t>(NodeIdx);
        BestLabel = static_cast<int32_t>(LabelIdx);
      }
  }
  if (BestNode < 0)
    return false; // No feasible completion within the windows.

  Path.resize(K);
  int32_t NodeIdx = BestNode;
  int32_t LabelIdx = BestLabel;
  for (size_t Pos = K; Pos-- > 0;) {
    const Label &L = Buf.Fronts[Pos * N + static_cast<size_t>(NodeIdx)]
                           [static_cast<size_t>(LabelIdx)];
    Path[Pos] = {Search[static_cast<size_t>(NodeIdx)], L.Start, L.Finish};
    NodeIdx = L.PrevNode;
    LabelIdx = L.PrevLabel;
  }
  return true;
}

bool ChainAllocator::allocate(const CriticalWork &Work, Distribution &Dist,
                              Tick Release, Tick Deadline, OwnerId Owner,
                              std::vector<CollisionRecord> &Collisions) {
  BiasLogs Logs{};
  Logs[static_cast<size_t>(Params.Bias)] = &Collisions;
  ChainSplit Try;
  return allocate(Work, Dist, Release, Deadline, Owner, Logs, Try) ==
         ChainOutcome::Placed;
}

ChainOutcome ChainAllocator::allocate(const CriticalWork &Work,
                                      Distribution &Dist, Tick Release,
                                      Tick Deadline, OwnerId Owner,
                                      BiasLogs Logs, ChainSplit &Split) {
  CWS_CHECK(!Work.TaskIds.empty(), "cannot allocate an empty critical work");
  // Readiness bumps discovered by the post-DP precedence verification of
  // non-adjacent intra-chain edges (see run()).
  Split.Attempt = 0;
  Split.ExtraReady.assign(Work.TaskIds.size(), 0);
  return run(Work, Dist, Release, Deadline, Owner, Logs, Split, nullptr);
}

bool ChainAllocator::resume(const CriticalWork &Work, const ChainSplit &Split,
                            OptimizationBias Bias, Distribution &Dist,
                            Tick Release, Tick Deadline, OwnerId Owner,
                            std::vector<CollisionRecord> &Collisions) {
  BiasLogs Logs{};
  Logs[static_cast<size_t>(Bias)] = &Collisions;
  ChainSplit Try;
  Try.Attempt = Split.Attempt;
  Try.ExtraReady = Split.ExtraReady;
  return run(Work, Dist, Release, Deadline, Owner, Logs, Try,
             &Split.Paths[static_cast<size_t>(Bias)]) == ChainOutcome::Placed;
}

ChainOutcome ChainAllocator::run(const CriticalWork &Work, Distribution &Dist,
                                 Tick Release, Tick Deadline, OwnerId Owner,
                                 BiasLogs Logs, ChainSplit &Try,
                                 const std::vector<ChainStep> *Given) {
  const std::vector<unsigned> &Chain = Work.TaskIds;
  const std::vector<unsigned> &Cand = Params.CandidateNodes;
  const size_t K = Chain.size();
  std::vector<Tick> &ExtraReady = Try.ExtraReady;
  std::vector<CollisionRecord> *CostLog =
      Logs[static_cast<size_t>(OptimizationBias::Cost)];
  std::vector<CollisionRecord> *TimeLog =
      Logs[static_cast<size_t>(OptimizationBias::Time)];

  std::vector<ChainStep> Path;
  if (Given)
    Path = *Given;
  for (;; ++Try.Attempt) {
    if (Try.Attempt == 4)
      return ChainOutcome::Failed; // Verification kept failing.
    if (!Given) {
      forward(Chain, Dist, Release, Deadline, ExtraReady);
      // The fronts are the same for both biases; only the pick differs.
      OptimizationBias First =
          CostLog ? OptimizationBias::Cost : OptimizationBias::Time;
      if (!pick(First, Chain, Path))
        return ChainOutcome::Failed; // Then no bias has a label either.
      if (CostLog && TimeLog) {
        std::vector<ChainStep> &TimePath =
            Try.Paths[static_cast<size_t>(OptimizationBias::Time)];
        pick(OptimizationBias::Time, Chain, TimePath);
        if (!std::equal(Path.begin(), Path.end(), TimePath.begin(),
                        [](const ChainStep &A, const ChainStep &B) {
                          return A.NodeId == B.NodeId && A.Start == B.Start &&
                                 A.Finish == B.Finish;
                        })) {
          Try.Paths[static_cast<size_t>(OptimizationBias::Cost)] =
              std::move(Path);
          return ChainOutcome::Split;
        }
      }
    }
    Given = nullptr;

    // --- Verify non-adjacent intra-chain precedence. The DP links only
    // consecutive chain tasks; a direct edge Chain[i] -> Chain[m] with
    // i < m - 1 can still be violated when its transfer outweighs the
    // via-chain delay. Bump the readiness of the violated position and
    // re-run the DP. ---
    bool Violated = false;
    Buf.PosOf.assign(J.taskCount(), SIZE_MAX);
    for (size_t Pos = 0; Pos < K; ++Pos)
      Buf.PosOf[Chain[Pos]] = Pos;
    for (size_t Pos = 1; Pos < K; ++Pos) {
      unsigned TaskId = Chain[Pos];
      for (size_t EdgeIdx : J.inEdges(TaskId)) {
        const DataEdge &E = J.edge(EdgeIdx);
        size_t SrcPos = Buf.PosOf[E.Src];
        if (SrcPos == SIZE_MAX || SrcPos + 1 >= Pos + 1)
          continue; // Not an earlier chain task, or the adjacent one.
        if (SrcPos + 1 == Pos)
          continue;
        Tick Tr = Policy.previewTicks(E.Src, E.BaseTransfer,
                                      Path[SrcPos].NodeId, Path[Pos].NodeId);
        Tick Needed = Path[SrcPos].Finish + Tr;
        if (Path[Pos].Start < Needed) {
          ExtraReady[Pos] = std::max(ExtraReady[Pos], Needed);
          Violated = true;
        }
      }
    }
    if (Violated) {
      ++Done.Reruns;
      continue;
    }
    break;
  }

  // --- Finalize: detect collisions, reserve, charge, record replicas.
  for (size_t Pos = 0; Pos < K; ++Pos) {
    unsigned TaskId = Chain[Pos];
    unsigned NodeId = Path[Pos].NodeId;
    const ProcessorNode &Node = G.node(NodeId);
    Tick Dur = Path[Pos].Finish - Path[Pos].Start;

    // Recompute the unconstrained ready time to detect contention. The
    // terms are derived again at each position: the placements and the
    // replicas recorded before it count.
    gatherPlaced(Pos, Chain, Dist);
    PlacedTerms Placed = placedOn(NodeId, Release);
    Tick Ready = std::max(Placed.Ready, ExtraReady[Pos]);
    Tick ChainBill = 0;
    if (Pos > 0) {
      Tick ChainTr = 0;
      if (Path[Pos - 1].NodeId != NodeId &&
          !Buf.ChainReplicas.contains(NodeId)) {
        ChainTr = Buf.ChainFar.Wait;
        ChainBill = Buf.ChainFar.Billed;
      }
      Ready = std::max(Ready, Path[Pos - 1].Finish + ChainTr);
    }
    if (Path[Pos].Start > Ready) {
      // The preferred slot was occupied: a collision, resolved by
      // shifting the task later on the same node.
      const Interval *Blocking =
          Node.timeline().firstOverlap(Ready, Ready + Dur);
      CollisionRecord C{TaskId, NodeId, Blocking ? Blocking->Owner : 0,
                        Ready, Path[Pos].Start,
                        CollisionResolution::Shifted};
      for (std::vector<CollisionRecord> *Log : Logs)
        if (Log)
          Log->push_back(C);
    } else if (CostLog) {
      // Check whether a strictly cheaper node was contended: then the
      // collision was resolved by moving the task here.
      for (unsigned Other : Cand) {
        if (Other == NodeId)
          continue;
        const ProcessorNode &Cheap = G.node(Other);
        Tick CheapDur = Cheap.execTicks(J.task(TaskId).RefTicks);
        if (Cost.nodeCost(Other, CheapDur) + 1e-9 >=
            Cost.nodeCost(NodeId, Dur))
          continue;
        Tick CheapReady = placedOn(Other, Release).Ready;
        const Interval *Blocking =
            Cheap.timeline().firstOverlap(CheapReady, CheapReady + CheapDur);
        if (Blocking) {
          CostLog->push_back({TaskId, Other, Blocking->Owner, CheapReady,
                              Path[Pos].Start, CollisionResolution::Moved});
          break;
        }
      }
    }

    // The node-switch penalty shapes the DP toward coarse placements
    // but is not a real quota charge, so it is excluded here.
    double PlaceCost = Cost.nodeCost(NodeId, Dur) +
                       Cost.transferCost(ChainBill + Placed.Inbound);

    bool Reserved = G.node(NodeId).timeline().reserve(
        Path[Pos].Start, Path[Pos].Finish, Owner);
    CWS_CHECK(Reserved, "DP produced an overlapping reservation");
    Dist.add({TaskId, NodeId, Path[Pos].Start, Path[Pos].Finish, PlaceCost});

    // Record data movements in the policy's replica memory.
    for (size_t EdgeIdx : J.inEdges(TaskId)) {
      const DataEdge &E = J.edge(EdgeIdx);
      if (const Placement *Src = Dist.find(E.Src); Src && E.Src != TaskId)
        Policy.transferTicks(E.Src, E.BaseTransfer, Src->NodeId, NodeId);
    }
    for (size_t EdgeIdx : J.outEdges(TaskId)) {
      const DataEdge &E = J.edge(EdgeIdx);
      if (const Placement *Dst = Dist.find(E.Dst))
        Policy.transferTicks(TaskId, E.BaseTransfer, NodeId, Dst->NodeId);
    }
  }
  return ChainOutcome::Placed;
}
