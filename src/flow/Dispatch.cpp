//===-- flow/Dispatch.cpp - Job-flow distribution across domains ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/Dispatch.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/TimeSeries.h"
#include "obs/Trace.h"
#include "support/Check.h"

#include <limits>
#include <vector>

using namespace cws;

const char *cws::dispatchPolicyName(DispatchPolicy Policy) {
  switch (Policy) {
  case DispatchPolicy::RoundRobin:
    return "round-robin";
  case DispatchPolicy::LeastLoaded:
    return "least-loaded";
  case DispatchPolicy::LeastForecast:
    return "least-forecast";
  case DispatchPolicy::CheapestBid:
    return "cheapest-bid";
  }
  CWS_UNREACHABLE("unknown dispatch policy");
}

DomainDispatcher::DomainDispatcher(Grid &Env, const Network &Net,
                                   StrategyConfig Config,
                                   std::vector<Domain> Domains,
                                   DispatchPolicy Policy)
    : Env(Env), Net(Net), Config(std::move(Config)),
      Domains(std::move(Domains)), Policy(Policy), Forecaster(Env.size()) {
  CWS_CHECK(!this->Domains.empty(), "dispatcher needs domains");
  for (const auto &D : this->Domains)
    CWS_CHECK(!D.NodeIds.empty(), "dispatcher domains must be non-empty");
}

Strategy DomainDispatcher::buildOn(const Job &J, const Domain &D,
                                   OwnerId Owner, Tick Now) const {
  StrategyConfig Restricted = Config;
  Restricted.AllowedNodes = D.NodeIds;
  return Strategy::build(J, Env, Net, Restricted, Owner, Now);
}

void DomainDispatcher::observeLoad(Tick Now, Tick Window) {
  Forecaster.observe(Env, Now > Window ? Now - Window : 0,
                     std::max<Tick>(Now, 1));
}

DispatchDecision DomainDispatcher::dispatch(const Job &J, OwnerId Owner,
                                            Tick Now) {
  static obs::Counter &Dispatches = obs::Registry::global().counter(
      "cws_dispatch_total", "jobs routed to a domain by the dispatcher");
  Dispatches.add();
  obs::Span DispatchSpan("flow", "dispatch", "job",
                         static_cast<int64_t>(J.id()));
  DispatchDecision Decision;
  switch (Policy) {
  case DispatchPolicy::RoundRobin:
    Decision.DomainIdx = NextRoundRobin;
    NextRoundRobin = (NextRoundRobin + 1) % Domains.size();
    break;

  case DispatchPolicy::LeastLoaded: {
    double Best = std::numeric_limits<double>::max();
    for (size_t I = 0; I < Domains.size(); ++I) {
      double Load = domainBookedLoad(Env, Domains[I], Now,
                                     std::max(J.deadline(), Now + 1));
      if (Load < Best) {
        Best = Load;
        Decision.DomainIdx = I;
      }
    }
    break;
  }

  case DispatchPolicy::LeastForecast: {
    double Best = std::numeric_limits<double>::max();
    for (size_t I = 0; I < Domains.size(); ++I) {
      double Load = Forecaster.domainForecast(Domains[I]);
      if (Load < Best) {
        Best = Load;
        Decision.DomainIdx = I;
      }
    }
    break;
  }

  case DispatchPolicy::CheapestBid: {
    // Economic tender: every node manager offers its cheapest
    // admissible supporting schedule; the metascheduler takes the
    // lowest bid. The winner's strategy is reused, so losing domains
    // cost only their generation time. The domains bid in order, and a
    // tie keeps the earlier domain. Domain 0 holds until a lower bid,
    // so with no admissible bid anywhere the caller still sees its
    // (inadmissible) strategy.
    double BestBid = std::numeric_limits<double>::infinity();
    for (size_t I = 0; I < Domains.size(); ++I) {
      Strategy S = buildOn(J, Domains[I], Owner, Now);
      double Bid = std::numeric_limits<double>::infinity();
      if (const ScheduleVariant *Best = S.bestByCost())
        Bid = Best->Result.Dist.economicCost();
      Decision.Bids.push_back(Bid);
      if (I == 0 || Bid < BestBid) {
        BestBid = Bid;
        Decision.DomainIdx = I;
        Decision.S = std::move(S);
      }
    }
    break;
  }
  }

  if (Policy != DispatchPolicy::CheapestBid)
    Decision.S = buildOn(J, Domains[Decision.DomainIdx], Owner, Now);
  DispatchSpan.arg("domain", static_cast<int64_t>(Decision.DomainIdx));
  journalDecision(J, Decision, Now);
  return Decision;
}

void DomainDispatcher::journalDecision(const Job &J,
                                       const DispatchDecision &Decision,
                                       Tick Now) const {
  obs::TimeSeries::global().sampleEvent(Now, "dispatch");
  obs::Journal &Jn = obs::Journal::global();
  if (Jn.enabled())
    Jn.append(obs::JournalKind::Dispatch, J.id(), Now,
              {{"domain", static_cast<int64_t>(Decision.DomainIdx)},
               {"bids", static_cast<int64_t>(Decision.Bids.size())}},
              dispatchPolicyName(Policy));
}
