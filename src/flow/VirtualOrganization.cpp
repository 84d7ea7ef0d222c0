//===-- flow/VirtualOrganization.cpp - Two-level VO simulation ------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "flow/Economy.h"
#include "flow/Metascheduler.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TimeSeries.h"
#include "resource/Network.h"
#include "sim/Simulator.h"
#include "support/Check.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

using namespace cws;

namespace {

/// Batching instrumentation of the job-flow level
/// (docs/OBSERVABILITY.md). Registered once; values reset with the
/// registry. The `cws_shard_` prefix is historical; the benchmark reads
/// these names.
struct BatchMetrics {
  obs::Counter &AdmissionBatches = obs::Registry::global().counter(
      "cws_shard_admission_batches_total",
      "per-tick admission batches drained");
  obs::Counter &AdmissionJobs = obs::Registry::global().counter(
      "cws_shard_admission_jobs_total",
      "jobs ingested through batched admission");
  obs::Histogram &AdmissionBatchJobs = obs::Registry::global().histogram(
      "cws_shard_admission_batch_jobs", {1, 2, 4, 8, 16, 32, 64},
      "jobs per admission batch");
  obs::Histogram &CommitBatchJobs = obs::Registry::global().histogram(
      "cws_shard_commit_batch_jobs", {1, 2, 4, 8, 16, 32, 64},
      "negotiations per commit-pipeline drain");
};

BatchMetrics &batchMetrics() {
  static BatchMetrics M;
  return M;
}

} // namespace

size_t cws::resolveShardCount(size_t) { return 1; }

std::vector<VoRunResult>
cws::runMultiFlowVo(const VoConfig &Config,
                    const std::vector<StrategyKind> &Kinds, uint64_t Seed) {
  CWS_CHECK(!Kinds.empty(), "need at least one flow");
  const size_t NumFlows = Kinds.size();
  Prng Root(Seed);
  Grid Env = Grid::makeRandom(Config.GridCfg, Root);
  Network Net;
  Economy Econ;

  // One metascheduler strategy profile, one quota account and one job
  // manager per flow.
  std::vector<std::unique_ptr<Metascheduler>> Metas;
  std::vector<std::unique_ptr<JobManager>> Managers;
  for (size_t F = 0; F < NumFlows; ++F) {
    StrategyConfig SC = Config.Strategy;
    SC.Kind = Kinds[F];
    unsigned User = Econ.addUser(Config.UserQuota);
    Metas.push_back(std::make_unique<Metascheduler>(Env, Net, Econ, SC));
    Metas.back()->setReallocationMode(Config.Reallocation);
    Metas.back()->setRepairOracle(Config.RepairOracle);
    Managers.push_back(
        std::make_unique<JobManager>(*Metas.back(), User, static_cast<int>(F)));
  }
  BatchMetrics &BM = batchMetrics();

  Simulator Sim;
  if (Config.ExecuteWithDeviations)
    for (auto &M : Managers)
      M->enableExecution(Config.Execution, Root.fork().next());
  Prng ArrivalRng = Root.fork();
  Prng NegotiationRng = Root.fork();
  Prng BackgroundRng = Root.fork();
  JobGenerator Gen(Config.Workload, Root.next());

  // The arrival ticks come first, from their own stream, so the arrival
  // schedule is independent of the strategy types under test; each job
  // is drawn from the generator when it arrives (see the arrival events
  // below).
  std::vector<Tick> Arrivals;
  Arrivals.reserve(Config.JobCount);
  Tick At = 0;
  for (size_t I = 0; I < Config.JobCount; ++I) {
    At += ArrivalRng.uniformInt(Config.InterarrivalLo,
                                Config.InterarrivalHi);
    Arrivals.push_back(At);
  }
  Tick LastArrival = Arrivals.empty() ? 0 : Arrivals.back();

  // Background flows run past the last arrival so every strategy's TTL
  // has a chance to close.
  Tick BackgroundUntil = LastArrival + 600;
  BackgroundLoad Background(Env, Sim, Config.Background, BackgroundRng);
  // Every flow's manager re-validates in flow order; each journals its
  // invalidations in ascending job id.
  Background.setObserver([&Managers](Tick Now) {
    obs::Span Invalidate("sim", "env.invalidate");
    uint64_t Placements = 0;
    for (auto &M : Managers)
      Placements += M->onEnvironmentChange(Now);
    // Only a change that re-validated something attaches the counter,
    // so a run that never re-validated has no `placements` key.
    if (Placements)
      Invalidate.work("placements", Placements);
  });
  Background.start(BackgroundUntil);

  // Wire the telemetry sampler to this run's grid and managers.
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  const bool Sampling = Ts.enabled();
  if (Sampling) {
    Ts.addDefaultProbes(obs::Registry::global());
    Ts.setFlowProvider(flowLabels(Kinds), [&Managers] {
      std::vector<obs::FlowSample> Out;
      Out.reserve(Managers.size());
      for (const auto &M : Managers)
        Out.push_back({static_cast<int64_t>(M->queuedCount()),
                       static_cast<int64_t>(M->inFlightCount())});
      return Out;
    });
    const Tick Lookahead = Ts.config().ReservedLookahead;
    Ts.setOccupancyProvider([&Env, Lookahead](Tick Prev, Tick Now) {
      std::vector<obs::NodeOccupancy> Out;
      Out.reserve(Env.size());
      for (const auto &N : Env.nodes()) {
        const Timeline &L = N.timeline();
        obs::NodeOccupancy O;
        if (Now > Prev) {
          double W = static_cast<double>(Now - Prev);
          O.Busy = static_cast<double>(L.busyTicksOf(
                       Prev, Now, JobOwnerBase,
                       std::numeric_limits<OwnerId>::max())) /
                   W;
          O.Background = static_cast<double>(L.busyTicksOf(
                             Prev, Now, BackgroundOwner, BackgroundOwner)) /
                         W;
        }
        O.Reserved = L.utilization(Now, Now + Lookahead);
        Out.push_back(O);
      }
      return Out;
    });
  }

  // Deal jobs to the flows round-robin. Arrival and negotiation events
  // only *enqueue* work; the first enqueue of a tick arms one
  // end-of-tick drain that processes the whole tick's batch in
  // ascending job id. That order defines the results: it fixes the
  // order in which grid reservations, quota charges and journal events
  // land, whatever order the same-tick events fired in.
  struct PendingArrival {
    JobManager *Manager;
    Job J;
    Tick Delay;
  };
  struct PendingNegotiation {
    JobManager *Manager;
    unsigned JobId;
  };
  std::vector<PendingArrival> ArrivalBatch;
  std::vector<PendingNegotiation> NegotiationBatch;
  bool DrainArmed = false;
  std::function<void(Tick)> Drain;
  auto Arm = [&Sim, &DrainArmed, &Drain](Tick) {
    if (DrainArmed)
      return;
    DrainArmed = true;
    Sim.atEndOfTick([&Drain](Tick Now) { Drain(Now); });
  };
  Drain = [&](Tick Now) {
    // Reset first: a zero-delay negotiation scheduled below lands on
    // this same tick and must re-arm a fresh drain behind itself.
    DrainArmed = false;
    // Admission: build and admit each of the tick's arrivals.
    if (!ArrivalBatch.empty()) {
      obs::Span Admission("flow", "meta.admission");
      std::vector<PendingArrival> Batch;
      Batch.swap(ArrivalBatch);
      std::sort(Batch.begin(), Batch.end(),
                [](const PendingArrival &A, const PendingArrival &B) {
                  return A.J.id() < B.J.id();
                });
      BM.AdmissionBatches.add();
      BM.AdmissionJobs.add(Batch.size());
      BM.AdmissionBatchJobs.observe(static_cast<double>(Batch.size()));
      Admission.work("jobs", Batch.size());
      for (const PendingArrival &PA : Batch) {
        if (!PA.Manager->onArrival(PA.J, Now))
          continue;
        PendingNegotiation PN{PA.Manager, PA.J.id()};
        Sim.after(PA.Delay, [&NegotiationBatch, &Arm, PN](Tick NegotiationNow) {
          NegotiationBatch.push_back(PN);
          Arm(NegotiationNow);
        });
      }
    }
    // Commit: negotiate each of the tick's tenders.
    if (!NegotiationBatch.empty()) {
      std::vector<PendingNegotiation> Ready;
      Ready.swap(NegotiationBatch);
      std::sort(Ready.begin(), Ready.end(),
                [](const PendingNegotiation &A, const PendingNegotiation &B) {
                  return A.JobId < B.JobId;
                });
      BM.CommitBatchJobs.observe(static_cast<double>(Ready.size()));
      obs::Span Apply("flow", "commit.apply");
      Apply.work("tenders", Ready.size());
      uint64_t Scanned = 0;
      for (const PendingNegotiation &PN : Ready)
        if (std::optional<Tick> Completion =
                PN.Manager->onNegotiation(PN.JobId, Now, &Scanned))
          Sim.at(*Completion,
                 [PN](Tick CNow) { PN.Manager->onCompletion(PN.JobId, CNow); });
      Apply.work("intervals_scanned", Scanned);
    }
  };

  // Arrival events fire in (tick, insertion) order, which is job order,
  // and nothing else draws from Gen: the job each one draws is the one
  // the generator would have produced for that index up front. The
  // pending batch owns the job until its manager has copied it.
  std::vector<size_t> FlowOf(Config.JobCount, 0);
  auto Arrive = [&](size_t I, Tick Release, Tick Delay, Tick Now) {
    Job J = Gen.next(Release);
    CWS_CHECK(J.id() == I, "a job was drawn out of arrival order");
    ArrivalBatch.push_back({Managers[FlowOf[I]].get(), std::move(J), Delay});
    Arm(Now);
  };
  for (size_t I = 0; I < Arrivals.size(); ++I) {
    FlowOf[I] = I % NumFlows;
    Tick Delay = NegotiationRng.uniformInt(Config.NegotiationLo,
                                           Config.NegotiationHi);
    Tick Release = Arrivals[I];
    Sim.at(Release, [&Arrive, I, Release, Delay](Tick Now) {
      Arrive(I, Release, Delay, Now);
    });
  }

  Sim.run();

  if (Sampling) {
    // A final frame, then the per-node occupancy tracks: every surviving
    // reservation becomes a slice in the merged trace, classed by owner.
    Ts.sampleEvent(Sim.now(), "run.end");
    Env.forEachInterval([&Ts](unsigned Node, const Interval &I) {
      const char *Kind = I.Owner >= JobOwnerBase      ? "job"
                         : I.Owner == BackgroundOwner ? "background"
                                                      : "other";
      Ts.addOccupancySlice(Node, I.Begin, I.End, Kind, I.Owner);
    });
    // The providers capture this frame's grid and managers; drop them
    // before those go out of scope. Recorded frames stay exportable.
    Ts.clearProviders();
  }

  std::vector<VoRunResult> Results(Kinds.size());
  Tick Horizon = Sim.now();
  for (size_t F = 0; F < NumFlows; ++F) {
    Results[F].Kind = Kinds[F];
    Results[F].BackgroundJobs = Background.placed();
    Results[F].RepairOracle = Metas[F]->repairOracle();
    // A manager records its jobs in admission order, which is
    // ascending job id.
    Results[F].Jobs = Managers[F]->takeStats();
    for (const auto &St : Results[F].Jobs)
      Horizon = std::max(Horizon, St.Completion);
  }
  Horizon = std::max<Tick>(Horizon, 1);

  // Attribute node occupancy per flow via the owner ids.
  size_t GroupNodes[3] = {0, 0, 0};
  std::vector<std::array<Tick, 3>> JobTicks(Kinds.size(), {0, 0, 0});
  Tick BackgroundTicks[3] = {0, 0, 0};
  for (const auto &N : Env.nodes()) {
    auto G = static_cast<size_t>(N.group());
    ++GroupNodes[G];
    for (const auto &I : N.timeline().intervals()) {
      Tick Len =
          std::min(I.End, Horizon) - std::min(I.Begin, Horizon);
      if (I.Owner >= JobOwnerBase) {
        auto JobId = static_cast<size_t>(I.Owner - JobOwnerBase);
        CWS_CHECK(JobId < FlowOf.size(), "unknown job owner");
        JobTicks[FlowOf[JobId]][G] += Len;
      } else if (I.Owner == BackgroundOwner) {
        BackgroundTicks[G] += Len;
      }
    }
  }
  for (size_t F = 0; F < Kinds.size(); ++F) {
    Results[F].Horizon = Horizon;
    for (size_t G = 0; G < 3; ++G) {
      if (GroupNodes[G] == 0)
        continue;
      double Denom = static_cast<double>(GroupNodes[G]) *
                     static_cast<double>(Horizon);
      Results[F].JobLoadPercent[G] =
          100.0 * static_cast<double>(JobTicks[F][G]) / Denom;
      Results[F].BackgroundLoadPercent[G] =
          100.0 * static_cast<double>(BackgroundTicks[G]) / Denom;
    }
  }
  return Results;
}

VoRunResult cws::runVirtualOrganization(const VoConfig &Config,
                                        StrategyKind Kind, uint64_t Seed) {
  std::vector<VoRunResult> Results = runMultiFlowVo(Config, {Kind}, Seed);
  return std::move(Results.front());
}

std::string cws::voConfigCanonical(const VoConfig &Config, StrategyKind Kind) {
  // Fixed `key=value` order; every field that changes scheduling
  // decisions appears. %g keeps the text stable across locales and
  // trailing-zero noise.
  std::string Out;
  char Buf[64];
  auto Num = [&](const char *Key, double Value) {
    std::snprintf(Buf, sizeof(Buf), "%s=%g ", Key, Value);
    Out += Buf;
  };
  auto Int = [&](const char *Key, long long Value) {
    std::snprintf(Buf, sizeof(Buf), "%s=%lld ", Key, Value);
    Out += Buf;
  };
  Out += std::string("strategy=") + strategyName(Kind) + " ";

  const GridConfig &G = Config.GridCfg;
  Int("grid.min_nodes", G.MinNodes);
  Int("grid.max_nodes", G.MaxNodes);
  Num("grid.fast_share", G.FastShare);
  Num("grid.medium_share", G.MediumShare);
  Num("grid.fast_lo", G.FastLo);
  Num("grid.fast_hi", G.FastHi);
  Num("grid.medium_lo", G.MediumLo);
  Num("grid.medium_hi", G.MediumHi);
  Num("grid.slow_perf", G.SlowPerf);
  Num("grid.price_base", G.PriceBase);
  Num("grid.price_exponent", G.PriceExponent);

  const WorkloadConfig &W = Config.Workload;
  Int("work.min_tasks", W.MinTasks);
  Int("work.max_tasks", W.MaxTasks);
  Int("work.max_width", W.MaxWidth);
  Int("work.ref_lo", W.RefTicksLo);
  Int("work.ref_hi", W.RefTicksHi);
  Num("work.volume_per_ref", W.VolumePerRefTick);
  Int("work.transfer_lo", W.TransferLo);
  Int("work.transfer_hi", W.TransferHi);
  Num("work.edge_density", W.EdgeDensity);
  Num("work.deadline_slack", W.DeadlineSlack);

  const StrategyConfig &S = Config.Strategy;
  Int("strat.max_levels", static_cast<long long>(S.MaxLevels));
  Num("strat.coarse_penalty", S.CoarsePenalty);
  Int("strat.coarsen_rounds", S.CoarsenSiblingRounds);
  Int("strat.coarsen_max_ref", S.CoarsenMaxRef);
  Num("strat.replication_factor", S.DataConfig.ReplicationFactor);
  Num("strat.static_penalty", S.DataConfig.StaticPenalty);
  Num("strat.replication_billing", S.DataConfig.ReplicationBilling);
  Num("strat.transfer_cost", S.Costs.TransferCostPerTick);
  Int("strat.max_front", static_cast<long long>(S.MaxFrontSize));
  // AllowedNodes is deliberately absent: the tools never restrict node
  // domains at the VO level.

  const BackgroundConfig &B = Config.Background;
  Int("bg.gap_fast", B.MeanGapFast);
  Int("bg.gap_medium", B.MeanGapMedium);
  Int("bg.gap_slow", B.MeanGapSlow);
  Int("bg.dur_lo", B.DurLo);
  Int("bg.dur_hi", B.DurHi);
  Int("bg.lookahead", B.MaxLookahead);

  Int("vo.jobs", static_cast<long long>(Config.JobCount));
  Int("vo.arrive_lo", Config.InterarrivalLo);
  Int("vo.arrive_hi", Config.InterarrivalHi);
  Int("vo.negotiate_lo", Config.NegotiationLo);
  Int("vo.negotiate_hi", Config.NegotiationHi);
  Num("vo.quota", Config.UserQuota);
  Int("vo.execute", Config.ExecuteWithDeviations ? 1 : 0);
  Num("vo.exec_factor_lo", Config.Execution.FactorLo);
  Num("vo.exec_factor_hi", Config.Execution.FactorHi);
  Int("vo.exec_extension", Config.Execution.MaxExtension);
  // VoConfig::Invalidation and the repair oracle are absent too: the
  // first is ignored, the second is a side-effect-free check (like the
  // journal toggle), so neither changes what a run simulates.
  Out += std::string("vo.reallocation=") +
         reallocationModeName(Config.Reallocation);
  return Out;
}

std::vector<std::string>
cws::flowLabels(const std::vector<StrategyKind> &Kinds) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < Kinds.size(); ++I) {
    std::string Label = strategyName(Kinds[I]);
    for (size_t P = 0; P < I; ++P)
      if (Kinds[P] == Kinds[I]) {
        Label += "#" + std::to_string(I);
        break;
      }
    Out.push_back(std::move(Label));
  }
  return Out;
}
