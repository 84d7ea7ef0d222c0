//===-- bench/reg_local_vs_global.cpp - Local policy vs global QoS --------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5's open question made measurable: how does the *local*
/// queue-management policy of the node managers interact with the QoS
/// of the *global* compound-job flow? Bursty local jobs are routed
/// through per-domain LocalManagers under two policies (aggressive gap
/// filling versus strict FCFS) and two look-ahead limits while 250
/// compound jobs are committed on the same grid.
///
/// Work counters: `jobs`, `grid_nodes` and `horizon` (the utilization
/// window [0, horizon)); per setup `<policy>/la=<n>`: `admitted`,
/// `econ_cost_x100` over admitted jobs, `busy_ticks` over every node in
/// the window, and the local managers' `local_placed`,
/// `local_wait_sum` (over placed local jobs) and `local_rejected`.
///
//===----------------------------------------------------------------------===//

#include "flow/BackgroundLoad.h"
#include "flow/LocalManager.h"
#include "flow/Metascheduler.h"
#include "harness.h"
#include "job/Generator.h"

#include <cmath>
#include <string>

using namespace cws;

CWS_BENCH(local_vs_global, "Section 5 study: local queue policy vs global "
                           "compound-job QoS",
          /*Reps=*/1, /*Warmup=*/0, /*Profile=*/true) {
  constexpr size_t Jobs = 250;
  constexpr uint64_t Seed = 2009;
  Ctx.setSeed(Seed);
  Ctx.setConfig("jobs=" + std::to_string(Jobs) + "\n");
  Ctx.setWork("jobs", Jobs);

  struct Setup {
    LocalQueuePolicy Policy;
    Tick Lookahead;
  };
  const Setup Setups[] = {
      {LocalQueuePolicy::Immediate, 400},
      {LocalQueuePolicy::StrictFcfs, 400},
      {LocalQueuePolicy::Immediate, 60},
      {LocalQueuePolicy::StrictFcfs, 60},
  };
  for (const auto &[Policy, Lookahead] : Setups) {
    // Identical world per policy.
    Prng EnvRng(Seed);
    Grid Env = Grid::makeRandom(GridConfig{}, EnvRng);
    Network Net;
    WorkloadConfig W;
    W.DeadlineSlack = 2.0;
    JobGenerator Gen(W, Seed + 1);
    Prng LocalRng(Seed + 2);

    std::vector<Domain> Domains = partitionByGroup(Env);
    std::vector<LocalManager> Managers;
    Managers.reserve(Domains.size());
    for (const auto &D : Domains)
      Managers.emplace_back(Env, D, Policy, Lookahead);

    uint64_t Admitted = 0;
    double Cost = 0;
    Tick Now = 0;
    for (size_t I = 0; I < Jobs; ++I) {
      Now += 8;
      // Local users of every domain submit between compound arrivals.
      // Demand is bursty: a steady trickle plus a periodic burst that
      // builds a genuine backlog — exactly where queue policies differ
      // (a backlog pushes the FCFS front past the fragmentation gaps
      // that Immediate keeps filling).
      for (auto &M : Managers) {
        for (size_t K = 0; K < M.domain().NodeIds.size(); ++K)
          if (LocalRng.bernoulli(0.25))
            M.submitLocal(Now, LocalRng.uniformInt(4, 12), BackgroundOwner);
        if (I % 10 == 0)
          for (size_t K = 0; K < 2 * M.domain().NodeIds.size(); ++K)
            M.submitLocal(Now, LocalRng.uniformInt(10, 30), BackgroundOwner);
      }

      Job J = Gen.next(Now);
      OwnerId Owner = Metascheduler::ownerOf(J.id());
      Strategy S = Strategy::build(J, Env, Net, StrategyConfig{}, Owner, Now);
      const ScheduleVariant *Pick = S.bestFitting(Env);
      if (!Pick || !Pick->Result.Dist.commit(Env, Owner))
        continue;
      ++Admitted;
      Cost += Pick->Result.Dist.economicCost();
    }
    uint64_t Busy = 0;
    for (const auto &N : Env.nodes())
      Busy += static_cast<uint64_t>(N.timeline().busyTicks(0, Now + 100));
    uint64_t Placed = 0, Rejected = 0, Wait = 0;
    for (const auto &M : Managers) {
      Placed += M.placed();
      Rejected += M.rejected();
      Wait += static_cast<uint64_t>(
          std::llround(M.meanLocalWait() * static_cast<double>(M.placed())));
    }

    std::string Key = std::string(localQueuePolicyName(Policy)) +
                      "/la=" + std::to_string(Lookahead) + ".";
    Ctx.setWork(Key + "admitted", Admitted);
    Ctx.setWork(Key + "econ_cost_x100",
                static_cast<uint64_t>(std::llround(Cost * 100)));
    Ctx.setWork(Key + "busy_ticks", Busy);
    Ctx.setWork(Key + "local_placed", Placed);
    Ctx.setWork(Key + "local_wait_sum", Wait);
    Ctx.setWork(Key + "local_rejected", Rejected);
    Ctx.setWork("grid_nodes", Env.size());
    Ctx.setWork("horizon", static_cast<uint64_t>(Now + 100));
  }
}
