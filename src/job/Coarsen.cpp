//===-- job/Coarsen.cpp - Computation granularity control -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "job/Coarsen.h"
#include "support/Check.h"

#include <algorithm>
#include <map>
#include <string>

using namespace cws;

namespace {

/// Mutable working copy of a job during contraction.
struct ProtoGraph {
  struct ProtoTask {
    bool Alive = true;
    Tick Ref = 0;
    double Vol = 0.0;
    std::vector<unsigned> Members;
  };
  struct ProtoEdge {
    unsigned Src;
    unsigned Dst;
    Tick Transfer;
  };

  std::vector<ProtoTask> Tasks;
  std::vector<ProtoEdge> Edges;
  Tick MaxMergedRef = 0;

  bool mergeFits(unsigned A, unsigned B) const {
    return MaxMergedRef == 0 || Tasks[A].Ref + Tasks[B].Ref <= MaxMergedRef;
  }

  explicit ProtoGraph(const Job &J) {
    Tasks.resize(J.taskCount());
    for (const auto &T : J.tasks()) {
      Tasks[T.Id].Ref = T.RefTicks;
      Tasks[T.Id].Vol = T.Volume;
      Tasks[T.Id].Members = {T.Id};
    }
    for (const auto &E : J.edges())
      Edges.push_back({E.Src, E.Dst, E.BaseTransfer});
  }

  /// Drops dead-endpoint and duplicate edges (keeping the longest
  /// transfer per (src, dst) pair).
  void normalizeEdges() {
    std::map<std::pair<unsigned, unsigned>, Tick> Best;
    for (const auto &E : Edges) {
      if (!Tasks[E.Src].Alive || !Tasks[E.Dst].Alive || E.Src == E.Dst)
        continue;
      auto Key = std::make_pair(E.Src, E.Dst);
      auto It = Best.find(Key);
      if (It == Best.end())
        Best.emplace(Key, E.Transfer);
      else
        It->second = std::max(It->second, E.Transfer);
    }
    Edges.clear();
    for (const auto &[Key, Transfer] : Best)
      Edges.push_back({Key.first, Key.second, Transfer});
  }

  /// Fuses \p Loser into \p Winner; edges keep pointing at Loser until
  /// the caller redirects them.
  void fuse(unsigned Winner, unsigned Loser) {
    ProtoTask &W = Tasks[Winner];
    ProtoTask &L = Tasks[Loser];
    W.Ref += L.Ref;
    W.Vol += L.Vol;
    W.Members.insert(W.Members.end(), L.Members.begin(), L.Members.end());
    L.Alive = false;
  }

  void redirect(unsigned From, unsigned To) {
    for (auto &E : Edges) {
      if (E.Src == From)
        E.Src = To;
      if (E.Dst == From)
        E.Dst = To;
    }
  }

  /// One series pass: merges every u -> v where v is u's only successor
  /// and u is v's only predecessor. Returns the number of merges.
  size_t contractSeries() {
    normalizeEdges();
    std::vector<int> OutCount(Tasks.size(), 0);
    std::vector<int> InCount(Tasks.size(), 0);
    for (const auto &E : Edges) {
      ++OutCount[E.Src];
      ++InCount[E.Dst];
    }
    size_t Merges = 0;
    for (const auto &E : Edges) {
      if (!Tasks[E.Src].Alive || !Tasks[E.Dst].Alive)
        continue;
      if (OutCount[E.Src] != 1 || InCount[E.Dst] != 1)
        continue;
      if (!mergeFits(E.Src, E.Dst))
        continue;
      fuse(E.Src, E.Dst);
      redirect(E.Dst, E.Src);
      ++Merges;
      // Degree counts are stale after one merge; restart the pass.
      break;
    }
    return Merges;
  }

  /// One sibling round: fuses disjoint pairs of alive tasks that share
  /// identical predecessor and successor sets. Returns merges done.
  size_t mergeSiblings() {
    normalizeEdges();
    std::vector<std::vector<unsigned>> Preds(Tasks.size());
    std::vector<std::vector<unsigned>> Succs(Tasks.size());
    for (const auto &E : Edges) {
      Preds[E.Dst].push_back(E.Src);
      Succs[E.Src].push_back(E.Dst);
    }
    std::map<std::pair<std::vector<unsigned>, std::vector<unsigned>>,
             std::vector<unsigned>>
        Groups;
    for (unsigned T = 0; T < Tasks.size(); ++T) {
      if (!Tasks[T].Alive)
        continue;
      std::sort(Preds[T].begin(), Preds[T].end());
      std::sort(Succs[T].begin(), Succs[T].end());
      Groups[{Preds[T], Succs[T]}].push_back(T);
    }
    size_t Merges = 0;
    for (auto &[Key, Group] : Groups)
      for (size_t I = 0; I + 1 < Group.size(); I += 2) {
        if (!mergeFits(Group[I], Group[I + 1]))
          continue;
        fuse(Group[I], Group[I + 1]);
        redirect(Group[I + 1], Group[I]);
        ++Merges;
      }
    return Merges;
  }
};

} // namespace

CoarseJob cws::coarsenJob(const Job &J, const CoarsenConfig &Config) {
  ProtoGraph G(J);
  G.MaxMergedRef = Config.MaxMergedRef;
  if (Config.MergeSeries)
    while (G.contractSeries() > 0)
      ;
  for (unsigned Round = 0; Round < Config.SiblingRounds; ++Round) {
    if (G.mergeSiblings() == 0)
      break;
    if (Config.MergeSeries)
      while (G.contractSeries() > 0)
        ;
  }
  G.normalizeEdges();

  CoarseJob Result;
  Result.Coarse.setId(J.id());
  Result.Coarse.setRelease(J.release());
  Result.Coarse.setDeadline(J.deadline());

  size_t Alive = 0;
  for (const auto &P : G.Tasks)
    Alive += P.Alive ? 1 : 0;
  Result.Coarse.reserve(Alive, G.Edges.size());
  std::vector<unsigned> NewId(G.Tasks.size(), 0);
  for (unsigned T = 0; T < G.Tasks.size(); ++T) {
    const auto &P = G.Tasks[T];
    if (!P.Alive)
      continue;
    std::string Name = J.task(P.Members.front()).Name;
    if (P.Members.size() > 1)
      Name += "+" + std::to_string(P.Members.size() - 1);
    NewId[T] = Result.Coarse.addTask(Name, P.Ref, P.Vol);
    Result.Members.push_back(P.Members);
  }
  for (const auto &E : G.Edges)
    Result.Coarse.addEdge(NewId[E.Src], NewId[E.Dst], E.Transfer);
  CWS_CHECK(Result.Coarse.isAcyclic(), "coarsening produced a cycle");
  return Result;
}
