//===-- resource/Grid.cpp - The distributed environment -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "resource/Grid.h"
#include "support/Check.h"

#include <algorithm>
#include <cmath>

using namespace cws;

static double priceFor(double RelPerf, const GridConfig &Config) {
  return Config.PriceBase * std::pow(RelPerf, Config.PriceExponent);
}

unsigned Grid::addNode(double RelPerf, const GridConfig &Config) {
  return addNodePriced(RelPerf, priceFor(RelPerf, Config));
}

unsigned Grid::addNodePriced(double RelPerf, double PricePerTick) {
  auto Id = static_cast<unsigned>(Nodes.size());
  Nodes.emplace_back(Id, RelPerf, PricePerTick);
  return Id;
}

Grid Grid::makeRandom(const GridConfig &Config, Prng &Rng) {
  CWS_CHECK(Config.MinNodes >= 1 && Config.MinNodes <= Config.MaxNodes,
            "invalid node count range");
  Grid G;
  auto Count = static_cast<unsigned>(
      Rng.uniformInt(Config.MinNodes, Config.MaxNodes));
  auto FastCount = static_cast<unsigned>(
      std::round(Config.FastShare * static_cast<double>(Count)));
  auto MediumCount = static_cast<unsigned>(
      std::round(Config.MediumShare * static_cast<double>(Count)));
  FastCount = std::max(1u, FastCount);
  MediumCount = std::max(1u, std::min(MediumCount, Count - FastCount));
  for (unsigned I = 0; I < Count; ++I) {
    double Perf;
    if (I < FastCount)
      Perf = Rng.uniformReal(Config.FastLo, Config.FastHi);
    else if (I < FastCount + MediumCount)
      Perf = Rng.uniformReal(Config.MediumLo, Config.MediumHi);
    else
      Perf = Config.SlowPerf;
    G.addNode(Perf, Config);
  }
  return G;
}

Grid Grid::makeFig2() {
  Grid G;
  GridConfig Config;
  // Ids 0..3 correspond to the paper's node types 1..4.
  G.addNode(1.0, Config);
  G.addNode(1.0 / 2.0, Config);
  G.addNode(1.0 / 3.0, Config);
  G.addNode(1.0 / 4.0, Config);
  return G;
}

ProcessorNode &Grid::node(unsigned Id) {
  CWS_CHECK(Id < Nodes.size(), "node id out of range");
  return Nodes[Id];
}

const ProcessorNode &Grid::node(unsigned Id) const {
  CWS_CHECK(Id < Nodes.size(), "node id out of range");
  return Nodes[Id];
}

std::vector<unsigned> Grid::idsInGroup(PerfGroup Group) const {
  std::vector<unsigned> Ids;
  for (const auto &N : Nodes)
    if (N.group() == Group)
      Ids.push_back(N.id());
  std::sort(Ids.begin(), Ids.end(), [this](unsigned A, unsigned B) {
    if (Nodes[A].relPerf() != Nodes[B].relPerf())
      return Nodes[A].relPerf() > Nodes[B].relPerf();
    return A < B;
  });
  return Ids;
}

std::vector<unsigned> Grid::idsByPerf() const {
  std::vector<unsigned> Ids(Nodes.size());
  for (unsigned I = 0; I < Nodes.size(); ++I)
    Ids[I] = I;
  std::sort(Ids.begin(), Ids.end(), [this](unsigned A, unsigned B) {
    if (Nodes[A].relPerf() != Nodes[B].relPerf())
      return Nodes[A].relPerf() > Nodes[B].relPerf();
    return A < B;
  });
  return Ids;
}

double Grid::groupUtilization(PerfGroup Group, Tick From, Tick To) const {
  double Sum = 0.0;
  size_t Count = 0;
  for (const auto &N : Nodes) {
    if (N.group() != Group)
      continue;
    Sum += N.timeline().utilization(From, To);
    ++Count;
  }
  return Count ? Sum / static_cast<double>(Count) : 0.0;
}

void Grid::forEachInterval(
    const std::function<void(unsigned, const Interval &)> &Fn) const {
  for (unsigned Id = 0; Id < Nodes.size(); ++Id)
    for (const Interval &I : Nodes[Id].timeline().intervals())
      Fn(Id, I);
}

void Grid::releaseOwner(OwnerId Owner) {
  for (auto &N : Nodes)
    N.timeline().releaseOwner(Owner);
}

void Grid::clearTimelines() {
  for (auto &N : Nodes)
    N.timeline().clear();
}

Grid Grid::liveCopy(Tick Horizon) const {
  Grid Copy;
  Copy.assignLive(*this, Horizon);
  return Copy;
}

size_t Grid::assignLive(const Grid &From, Tick Horizon) {
  if (Nodes.size() > From.Nodes.size())
    Nodes.erase(Nodes.begin() + static_cast<ptrdiff_t>(From.Nodes.size()),
                Nodes.end());
  size_t Copied = 0;
  for (size_t I = 0; I < From.Nodes.size(); ++I) {
    const ProcessorNode &Src = From.Nodes[I];
    if (I == Nodes.size())
      Nodes.emplace_back(Src.id(), Src.relPerf(), Src.pricePerTick());
    Copied += Nodes[I].assignLive(Src, Horizon);
  }
  return Copied;
}

std::vector<BrokenSlot>
cws::collectBrokenSlots(const Grid &G, const std::vector<PlannedSlot> &Slots,
                        OwnerId Ignore, uint64_t *Scanned) {
  std::vector<BrokenSlot> Broken;
  for (size_t I = 0; I < Slots.size(); ++I) {
    const PlannedSlot &S = Slots[I];
    std::span<const Interval> Overlap =
        G.node(S.NodeId).timeline().overlapping(S.Begin, S.End);
    if (Scanned)
      *Scanned += Overlap.size();
    for (const Interval &Busy : Overlap) {
      if (Busy.Owner != Ignore) {
        Broken.push_back({I, Busy.Begin, Busy.End});
        break;
      }
    }
  }
  return Broken;
}
