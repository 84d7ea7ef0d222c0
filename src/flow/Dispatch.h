//===-- flow/Dispatch.h - Job-flow distribution across domains --*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metascheduler's domain dispatch: "users submit jobs to the
/// metascheduler which distributes job-flows between processor node
/// domains according to the selected scheduling and resource
/// co-allocation strategy". Four policies: round-robin, least booked
/// load, least forecast load (Section-5 forecasting), and an economic
/// tender where every domain bids its cheapest admissible schedule.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_FLOW_DISPATCH_H
#define CWS_FLOW_DISPATCH_H

#include "core/Strategy.h"
#include "flow/Domain.h"
#include "flow/Forecast.h"
#include "resource/Network.h"

#include <cstddef>
#include <optional>
#include <vector>

namespace cws {

/// How the metascheduler picks a domain for a job.
enum class DispatchPolicy {
  /// Cycle through domains regardless of state.
  RoundRobin,
  /// Least booked utilization over the job's deadline window.
  LeastLoaded,
  /// Least EWMA-forecast load (requires feeding the forecaster).
  LeastForecast,
  /// Every domain bids; cheapest admissible strategy wins.
  CheapestBid,
};

/// Short name ("round-robin", ...).
const char *dispatchPolicyName(DispatchPolicy Policy);

/// One dispatch outcome: the chosen domain and the strategy built on
/// it (admissible or not).
struct DispatchDecision {
  size_t DomainIdx = 0;
  Strategy S;
  /// Per-domain cheapest admissible cost collected by CheapestBid
  /// (empty for other policies; infinity marks inadmissible bids).
  std::vector<double> Bids;
};

/// Distributes jobs of one flow across the domains of a grid.
class DomainDispatcher {
public:
  DomainDispatcher(Grid &Env, const Network &Net, StrategyConfig Config,
                   std::vector<Domain> Domains, DispatchPolicy Policy);

  /// Picks a domain for \p J at \p Now and builds the flow's strategy
  /// restricted to it. For CheapestBid this builds one strategy per
  /// domain and returns the winner's, or domain 0's when no domain bids.
  DispatchDecision dispatch(const Job &J, OwnerId Owner, Tick Now);

  /// Feeds the forecaster with the utilization window ending at \p Now
  /// (call periodically when using LeastForecast).
  void observeLoad(Tick Now, Tick Window = 50);

  const std::vector<Domain> &domains() const { return Domains; }
  DispatchPolicy policy() const { return Policy; }
  const LoadForecaster &forecaster() const { return Forecaster; }

private:
  Strategy buildOn(const Job &J, const Domain &D, OwnerId Owner,
                   Tick Now) const;

  /// Journals the routing decision (domain, bid count, policy).
  void journalDecision(const Job &J, const DispatchDecision &Decision,
                       Tick Now) const;

  Grid &Env;
  const Network &Net;
  StrategyConfig Config;
  std::vector<Domain> Domains;
  DispatchPolicy Policy;
  LoadForecaster Forecaster;
  size_t NextRoundRobin = 0;
};

} // namespace cws

#endif // CWS_FLOW_DISPATCH_H
