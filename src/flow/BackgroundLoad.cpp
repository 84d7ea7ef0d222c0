//===-- flow/BackgroundLoad.cpp - Independent local job flows -------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/BackgroundLoad.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/TimeSeries.h"
#include "support/Check.h"

using namespace cws;

BackgroundLoad::BackgroundLoad(Grid &Env, Simulator &Sim,
                               BackgroundConfig Config, Prng Rng)
    : Env(Env), Sim(Sim), Config(Config), Rng(Rng) {
  CWS_CHECK(Config.DurLo >= 1 && Config.DurLo <= Config.DurHi,
            "invalid background duration range");
  CWS_CHECK(Config.MeanGapFast >= 1 && Config.MeanGapMedium >= 1 &&
                Config.MeanGapSlow >= 1,
            "mean gaps must be positive");
}

Tick BackgroundLoad::meanGap(PerfGroup Group) const {
  switch (Group) {
  case PerfGroup::Fast:
    return Config.MeanGapFast;
  case PerfGroup::Medium:
    return Config.MeanGapMedium;
  case PerfGroup::Slow:
    return Config.MeanGapSlow;
  }
  CWS_UNREACHABLE("unknown performance group");
}

void BackgroundLoad::start(Tick Until) {
  for (const auto &N : Env.nodes())
    scheduleNext(N.id(), Until);
}

void BackgroundLoad::scheduleNext(unsigned NodeId, Tick Until) {
  Tick Mean = meanGap(Env.node(NodeId).group());
  Tick Gap = Rng.uniformInt(1, 2 * Mean - 1);
  Tick At = Sim.now() + Gap;
  if (At > Until)
    return;
  Sim.at(At, [this, NodeId, Until](Tick Now) {
    Tick Dur = Rng.uniformInt(Config.DurLo, Config.DurHi);
    Timeline &Line = Env.node(NodeId).timeline();
    Tick Start = Line.earliestFit(Now, Dur);
    if (Start - Now <= Config.MaxLookahead) {
      bool Ok = Line.reserve(Start, Start + Dur, BackgroundOwner);
      CWS_CHECK(Ok, "earliestFit returned an occupied slot");
      ++Placed;
      static obs::Counter &EnvChanges = obs::Registry::global().counter(
          "cws_env_changes_total",
          "background placements that changed the environment");
      EnvChanges.add();
      // Journal the change before the observer runs: invalidations it
      // finds then auto-attribute their trigger to this event.
      obs::Journal &Jn = obs::Journal::global();
      if (Jn.enabled())
        Jn.append(obs::JournalKind::EnvChange, -1, Now,
                  {{"node", NodeId},
                   {"start", Start},
                   {"end", Start + Dur}},
                  "background");
      if (Observer)
        Observer(Now);
      // Sample after the observer so the frame records the fallout
      // (invalidations, TTL closes) the change just caused.
      obs::TimeSeries::global().sampleEvent(Now, "env.change");
    }
    scheduleNext(NodeId, Until);
  });
}
