//===-- metrics/Experiment.cpp - Figure experiment harness ----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "metrics/Experiment.h"
#include "flow/BackgroundLoad.h"
#include "flow/Metascheduler.h"
#include "resource/Network.h"
#include "support/Check.h"

#include <algorithm>
#include <utility>

using namespace cws;

size_t cws::preloadGrid(Grid &Env, Tick Horizon, double Lo, double Hi,
                        Tick DurLo, Tick DurHi, Prng &Rng) {
  CWS_CHECK(Horizon > 0, "pre-load horizon must be positive");
  CWS_CHECK(0.0 <= Lo && Lo <= Hi && Hi < 1.0, "invalid pre-load range");
  CWS_CHECK(DurLo >= 1 && DurLo <= DurHi, "invalid pre-load durations");
  size_t Placed = 0;
  for (auto &N : Env.nodes()) {
    double Target = Rng.uniformReal(Lo, Hi);
    Timeline &Line = N.timeline();
    // Drop random intervals until the busy fraction reaches the target;
    // bounded attempts keep degenerate configurations terminating.
    for (int Attempt = 0; Attempt < 1000; ++Attempt) {
      if (Line.utilization(0, Horizon) >= Target)
        break;
      Tick Dur = Rng.uniformInt(DurLo, DurHi);
      Tick Start = Rng.uniformInt(0, std::max<Tick>(0, Horizon - Dur));
      if (Line.reserve(Start, Start + Dur, BackgroundOwner))
        ++Placed;
    }
  }
  return Placed;
}

std::vector<Fig3Row> cws::runFig3(const Fig3Config &Config) {
  std::vector<Fig3Row> Rows;
  Rows.reserve(Config.Kinds.size());
  for (StrategyKind Kind : Config.Kinds) {
    Fig3Row Row;
    Row.Kind = Kind;
    Rows.push_back(Row);
  }

  Prng Root(Config.Seed);
  Network Net;
  JobGenerator Gen(Config.Workload, Root.next());
  Prng EnvRng = Root.fork();
  Prng LoadRng = Root.fork();

  for (size_t I = 0; I < Config.JobCount; ++I) {
    Job J = Gen.next(0);
    // A fresh random environment per experiment, pre-loaded with
    // independent jobs the application-level scheduler must dodge.
    Grid Env = Grid::makeRandom(Config.GridCfg, EnvRng);
    preloadGrid(Env, J.deadline(), Config.PreloadLo, Config.PreloadHi,
                Config.PreloadDurLo, Config.PreloadDurHi, LoadRng);

    OwnerId Owner = JobOwnerBase + J.id();
    for (auto &Row : Rows) {
      StrategyConfig SC = Config.StrategyCfg;
      SC.Kind = Row.Kind;
      Strategy S = Strategy::build(J, Env, Net, SC, Owner, 0);

      ++Row.Jobs;
      if (S.admissible())
        ++Row.Admissible;
      Row.MeanVariants += static_cast<double>(S.variants().size());
      Row.MeanFeasibleVariants += static_cast<double>(S.feasibleCount());

      for (const auto &V : S.variants()) {
        CollisionSplit Intra = splitCollisions(V.Result.Collisions, Env,
                                               Owner);
        CollisionSplit &Target = V.Bias == OptimizationBias::Cost
                                     ? Row.IntraCost
                                     : Row.IntraTime;
        Target.Fast += Intra.Fast;
        Target.Slow += Intra.Slow;
        CollisionSplit Everything =
            splitCollisions(V.Result.Collisions, Env, 0);
        Row.Background.Fast += Everything.Fast - Intra.Fast;
        Row.Background.Slow += Everything.Slow - Intra.Slow;
      }
    }
  }

  for (auto &Row : Rows) {
    if (Row.Jobs == 0)
      continue;
    Row.MeanVariants /= static_cast<double>(Row.Jobs);
    Row.MeanFeasibleVariants /= static_cast<double>(Row.Jobs);
  }
  return Rows;
}

VoConfig cws::makeFig4VoConfig() {
  VoConfig Vo;
  Vo.Workload.DeadlineSlack = 2.4;
  // The looser deadline tolerates larger coarse-grain macro-tasks.
  Vo.Strategy.CoarsenMaxRef = 18;
  Vo.Background.MeanGapFast = 30;
  Vo.Background.MeanGapMedium = 48;
  Vo.Background.MeanGapSlow = 70;
  Vo.NegotiationLo = 2;
  Vo.NegotiationHi = 10;
  return Vo;
}

std::vector<Fig4Row> cws::runFig4(const Fig4Config &Config) {
  std::vector<Fig4Row> Rows;
  Rows.reserve(Config.Kinds.size());
  for (StrategyKind Kind : Config.Kinds) {
    Fig4Row Row;
    Row.Run = runVirtualOrganization(Config.Vo, Kind, Config.Seed);
    Row.Agg = summarizeVo(Row.Run);
    Rows.push_back(std::move(Row));
  }
  return Rows;
}
