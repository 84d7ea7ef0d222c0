//===-- bench/reg_ablation_dispatch.cpp - Domain dispatch ablation --------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the metascheduler's job-flow distribution between
/// processor-node domains (Fig. 1): round-robin, least booked load,
/// EWMA load forecast (the Section-5 forecasting item) and an economic
/// tender where domains bid their cheapest admissible schedule. A
/// 300-job stream is committed greedily over three striped domains of
/// one identical world per policy.
///
/// Work counters: `jobs`, `grid_nodes` and `horizon` (the utilization
/// window [0, horizon)); per policy: `committed`, over committed jobs
/// `econ_cost_x100` and `makespan_sum`, `domain<i>.committed` per
/// domain (the imbalance is their sample stddev / mean), and
/// `busy_ticks` over every node in the window (utilization = busy_ticks
/// / (grid_nodes x horizon)).
///
//===----------------------------------------------------------------------===//

#include "flow/Dispatch.h"
#include "flow/Metascheduler.h"
#include "harness.h"
#include "job/Generator.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(ablation_dispatch, "ablation: domain dispatch policies",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 300;
  constexpr uint64_t Seed = 2009;
  constexpr size_t DomainCount = 3;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) +
                "\ndomains=" + std::to_string(DomainCount) + "\n");
  Ctx.setWork("jobs", Jobs);

  for (DispatchPolicy Policy :
       {DispatchPolicy::RoundRobin, DispatchPolicy::LeastLoaded,
        DispatchPolicy::LeastForecast, DispatchPolicy::CheapestBid}) {
    // Fresh, identical world per policy.
    Prng EnvRng(Seed);
    Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
    Network Net;
    WorkloadConfig W;
    W.DeadlineSlack = 1.7;
    JobGenerator Gen(W, Seed + 1);
    std::vector<Domain> Domains = partitionStriped(Env, DomainCount);
    DomainDispatcher Dispatcher(Env, Net, StrategyConfig{}, Domains, Policy);

    uint64_t Committed = 0, Makespan = 0;
    double Cost = 0;
    std::vector<uint64_t> PerDomain(Domains.size(), 0);
    Tick Now = 0;
    Tick LastObserve = 0;
    for (size_t I = 0; I < Jobs; ++I) {
      Now += 5;
      if (Policy == DispatchPolicy::LeastForecast && Now - LastObserve >= 48) {
        Dispatcher.observeLoad(Now, 48);
        LastObserve = Now;
      }
      Job J = Gen.next(Now);
      OwnerId Owner = Metascheduler::ownerOf(J.id());
      DispatchDecision D = Dispatcher.dispatch(J, Owner, Now);
      const ScheduleVariant *Pick = D.S.bestFitting(Env);
      if (!Pick || !Pick->Result.Dist.commit(Env, Owner))
        continue;
      ++Committed;
      ++PerDomain[D.DomainIdx];
      Cost += Pick->Result.Dist.economicCost();
      Makespan +=
          static_cast<uint64_t>(Pick->Result.Dist.makespan() - J.release());
    }

    uint64_t Busy = 0;
    for (const auto &N : Env.nodes())
      Busy += static_cast<uint64_t>(N.timeline().busyTicks(0, Now + 100));
    std::string Key = std::string(dispatchPolicyName(Policy)) + ".";
    Ctx.setWork(Key + "committed", Committed);
    Ctx.setWork(Key + "econ_cost_x100",
                static_cast<uint64_t>(std::llround(Cost * 100)));
    Ctx.setWork(Key + "makespan_sum", Makespan);
    for (size_t D = 0; D < PerDomain.size(); ++D)
      Ctx.setWork(Key + "domain" + std::to_string(D) + ".committed",
                  PerDomain[D]);
    Ctx.setWork(Key + "busy_ticks", Busy);
    Ctx.setWork("grid_nodes", Env.size());
    Ctx.setWork("horizon", static_cast<uint64_t>(Now + 100));
  }
}
