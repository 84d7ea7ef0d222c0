//===-- flow/VirtualOrganization.cpp - Two-level VO simulation ------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "flow/VirtualOrganization.h"
#include "flow/Economy.h"
#include "flow/Metascheduler.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/TimeSeries.h"
#include "resource/Network.h"
#include "sim/Simulator.h"
#include "support/Check.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>

using namespace cws;

namespace {

/// Shard-pipeline instrumentation (docs/OBSERVABILITY.md). Registered
/// once; values reset with the registry. The drain-latency histogram is
/// wall-clock and therefore nondeterministic — it is exposed for the
/// scaling bench and never byte-compared (the telemetry CSV samples an
/// explicit probe list that excludes it).
struct ShardPipelineMetrics {
  obs::Gauge &Count = obs::Registry::global().gauge(
      "cws_shard_count", "worker shards of the job-flow level");
  obs::Counter &AdmissionBatches = obs::Registry::global().counter(
      "cws_shard_admission_batches_total",
      "per-tick admission batches drained");
  obs::Counter &AdmissionJobs = obs::Registry::global().counter(
      "cws_shard_admission_jobs_total",
      "jobs ingested through batched admission");
  obs::Histogram &AdmissionBatchJobs = obs::Registry::global().histogram(
      "cws_shard_admission_batch_jobs", {1, 2, 4, 8, 16, 32, 64},
      "jobs per admission batch");
  obs::Counter &CommitBatches = obs::Registry::global().counter(
      "cws_shard_commit_batches_total", "commit-pipeline drains");
  obs::Counter &CommitJobs = obs::Registry::global().counter(
      "cws_shard_commit_jobs_total",
      "negotiations applied by the commit pipeline");
  obs::Histogram &CommitBatchJobs = obs::Registry::global().histogram(
      "cws_shard_commit_batch_jobs", {1, 2, 4, 8, 16, 32, 64},
      "negotiations per commit-pipeline drain");
  obs::Histogram &CommitDrainMicros = obs::Registry::global().histogram(
      "cws_shard_commit_drain_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000},
      "wall-clock microseconds per commit-pipeline drain");
};

ShardPipelineMetrics &shardMetrics() {
  static ShardPipelineMetrics M;
  return M;
}

} // namespace

size_t cws::resolveShardCount(size_t Configured) {
  size_t Resolved = Configured;
  if (Resolved == 0) {
    if (const char *Env = std::getenv("CWS_SHARDS")) {
      char *End = nullptr;
      long V = std::strtol(Env, &End, 10);
      if (End != Env && *End == '\0' && V > 0)
        Resolved = static_cast<size_t>(V);
    }
  }
  if (Resolved == 0)
    Resolved = 1;
  return std::min<size_t>(Resolved, 64);
}

std::vector<VoRunResult>
cws::runMultiFlowVo(const VoConfig &Config,
                    const std::vector<StrategyKind> &Kinds, uint64_t Seed) {
  CWS_CHECK(!Kinds.empty(), "need at least one flow");
  const size_t NumFlows = Kinds.size();
  const size_t ShardCount = resolveShardCount(Config.Shards);
  Prng Root(Seed);
  Grid Env = Grid::makeRandom(Config.GridCfg, Root);
  Network Net;
  Economy Econ;

  // One metascheduler strategy profile and one quota account per flow;
  // ShardCount job managers per flow (Managers[F * ShardCount + S]),
  // each owning the stripe of job ids congruent to its shard index
  // (Metascheduler::shardOfJob) — owner ids themselves stay pure in the
  // job id, so journals and timelines cannot see the shard count. The
  // env-change log is shared: commits by any flow and background
  // placements both occupy slots that other flows' open strategies may
  // have planned on, and each (flow, shard) manager drains the log with
  // its own cursor.
  EnvChangeLog ChangeLog;
  std::vector<std::unique_ptr<Metascheduler>> Metas;
  std::vector<std::unique_ptr<JobManager>> Managers;
  for (size_t F = 0; F < NumFlows; ++F) {
    StrategyConfig SC = Config.Strategy;
    SC.Kind = Kinds[F];
    unsigned User = Econ.addUser(Config.UserQuota);
    Metas.push_back(std::make_unique<Metascheduler>(Env, Net, Econ, SC));
    Metas.back()->setEnvChangeLog(&ChangeLog);
    Metas.back()->setReallocationMode(Config.Reallocation);
    Metas.back()->setRepairOracle(Config.RepairOracle);
    for (size_t S = 0; S < ShardCount; ++S) {
      Managers.push_back(std::make_unique<JobManager>(
          *Metas.back(), User, static_cast<int>(F)));
      Managers.back()->setInvalidationMode(Config.Invalidation);
    }
  }
  // Commit charges drain through per-shard ledgers folded at each tick
  // barrier, so the economy's float accumulation order is canonical
  // (ascending job id) at any shard count.
  Econ.beginLedgers(ShardCount);
  ShardPipelineMetrics &SM = shardMetrics();
  SM.Count.set(static_cast<int64_t>(ShardCount));

  Simulator Sim;
  if (Config.ExecuteWithDeviations)
    for (size_t F = 0; F < NumFlows; ++F) {
      // One fork per *flow* (not per shard manager) keeps the root
      // stream's draw count — and thus every downstream seed — equal at
      // any shard count; the per-job seed derivation inside the
      // managers does the rest.
      uint64_t ExecSeed = Root.fork().next();
      for (size_t S = 0; S < ShardCount; ++S)
        Managers[F * ShardCount + S]->enableExecution(Config.Execution,
                                                      ExecSeed);
    }
  Prng ArrivalRng = Root.fork();
  Prng NegotiationRng = Root.fork();
  Prng BackgroundRng = Root.fork();
  JobGenerator Gen(Config.Workload, Root.next());

  // Pre-generate the flow so the arrival schedule is independent of the
  // strategy types under test.
  std::vector<Job> Flow;
  Flow.reserve(Config.JobCount);
  Tick At = 0;
  for (size_t I = 0; I < Config.JobCount; ++I) {
    At += ArrivalRng.uniformInt(Config.InterarrivalLo,
                                Config.InterarrivalHi);
    Flow.push_back(Gen.next(At));
  }
  Tick LastArrival = Flow.empty() ? 0 : Flow.back().release();

  // Background flows run past the last arrival so every strategy's TTL
  // has a chance to close.
  Tick BackgroundUntil = LastArrival + 600;
  BackgroundLoad Background(Env, Sim, Config.Background, BackgroundRng);
  Background.setEnvChangeLog(&ChangeLog);
  // Every (flow, shard) manager runs its invalidation pass in parallel
  // (one lane per shard), journaling into a per-manager capture buffer;
  // the buffers are replayed flow-major, merged by ascending job id
  // within each flow — exactly the order a serial 1-shard pass appends
  // in, so the journal is byte-identical at any shard count.
  Background.setObserver([&Managers, NumFlows, ShardCount](Tick Now) {
    // One profiler scope per environment change on the calling thread;
    // the per-manager re-validation work joins it by name from the
    // worker lanes, so counts and work stay shard-invariant.
    CWS_PHASE("env.invalidate");
    obs::Journal &Jn = obs::Journal::global();
    std::vector<obs::JournalBuffer> Buffers(Managers.size());
    ThreadPool::global().parallelFor(
        Managers.size(),
        [&](size_t I) {
          obs::JournalCaptureScope Capture(Jn, &Buffers[I]);
          Managers[I]->onEnvironmentChange(Now);
        },
        /*MaxLanes=*/ShardCount);
    for (size_t F = 0; F < NumFlows; ++F) {
      std::vector<obs::JournalBuffer *> FlowBuffers;
      FlowBuffers.reserve(ShardCount);
      for (size_t S = 0; S < ShardCount; ++S)
        FlowBuffers.push_back(&Buffers[F * ShardCount + S]);
      Jn.appendBufferedByJob(FlowBuffers);
    }
  });
  Background.start(BackgroundUntil);

  // Wire the telemetry sampler to this run's grid and managers.
  obs::TimeSeries &Ts = obs::TimeSeries::global();
  const bool Sampling = Ts.enabled();
  if (Sampling) {
    Ts.addDefaultProbes(obs::Registry::global());
    std::vector<std::string> FlowNames = flowLabels(Kinds);
    // Sharded runs also expose one pseudo-flow track per shard (the
    // same totals sliced the other way); single-shard runs emit the
    // flow tracks alone, so the default telemetry CSV is byte-stable.
    if (ShardCount > 1)
      for (size_t S = 0; S < ShardCount; ++S)
        FlowNames.push_back("shard" + std::to_string(S));
    Ts.setFlowProvider(std::move(FlowNames), [&Managers, NumFlows,
                                              ShardCount] {
      std::vector<obs::FlowSample> Out;
      Out.reserve(NumFlows + (ShardCount > 1 ? ShardCount : 0));
      for (size_t F = 0; F < NumFlows; ++F) {
        int64_t Queued = 0, InFlight = 0;
        for (size_t S = 0; S < ShardCount; ++S) {
          const JobManager &M = *Managers[F * ShardCount + S];
          Queued += static_cast<int64_t>(M.queuedCount());
          InFlight += static_cast<int64_t>(M.inFlightCount());
        }
        Out.push_back({Queued, InFlight});
      }
      if (ShardCount > 1)
        for (size_t S = 0; S < ShardCount; ++S) {
          int64_t Queued = 0, InFlight = 0;
          for (size_t F = 0; F < NumFlows; ++F) {
            const JobManager &M = *Managers[F * ShardCount + S];
            Queued += static_cast<int64_t>(M.queuedCount());
            InFlight += static_cast<int64_t>(M.inFlightCount());
          }
          Out.push_back({Queued, InFlight});
        }
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

  // Deal jobs to the flows round-robin and to shard managers by job
  // id. Arrival and negotiation events only *enqueue* work; the first
  // enqueue of a tick arms one end-of-tick drain that processes the
  // whole tick's batch — the expensive halves (strategy builds, tender
  // evaluation) run in parallel across shards against the tick-start
  // snapshot, the mutating halves apply serially in canonical ascending
  // job-id order. The batched pipeline is the semantics at *every*
  // shard count, 1 included: that is what makes journals, stats and
  // timelines independent of the shard count and thread interleaving.
  struct PendingArrival {
    size_t ManagerIdx;
    const Job *J;
    Tick Delay;
  };
  struct PendingNegotiation {
    size_t ManagerIdx;
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
  ThreadPool &Pool = ThreadPool::global();
  Drain = [&](Tick Now) {
    // Reset first: a zero-delay negotiation scheduled below lands on
    // this same tick and must re-arm a fresh drain behind itself.
    DrainArmed = false;
    // Admission: sort the tick's arrivals into canonical order, build
    // every strategy in parallel (one lane per shard, journal events
    // captured per job), then admit serially in ascending job id.
    if (!ArrivalBatch.empty()) {
      obs::PhaseScope AdmissionPhase("meta.admission");
      std::vector<PendingArrival> Batch;
      Batch.swap(ArrivalBatch);
      std::sort(Batch.begin(), Batch.end(),
                [](const PendingArrival &A, const PendingArrival &B) {
                  return A.J->id() < B.J->id();
                });
      SM.AdmissionBatches.add();
      SM.AdmissionJobs.add(Batch.size());
      SM.AdmissionBatchJobs.observe(static_cast<double>(Batch.size()));
      AdmissionPhase.work("jobs", Batch.size());
      std::vector<std::optional<JobManager::PreparedArrival>> Prepared(
          Batch.size());
      Pool.submitRange(
          0, Batch.size(),
          [&](size_t I) {
            Prepared[I].emplace(Managers[Batch[I].ManagerIdx]->prepareArrival(
                *Batch[I].J, Now));
          },
          /*MaxLanes=*/ShardCount);
      for (size_t I = 0; I < Batch.size(); ++I) {
        const PendingArrival &PA = Batch[I];
        if (!Managers[PA.ManagerIdx]->finishArrival(std::move(*Prepared[I]),
                                                    Now))
          continue;
        size_t ManagerIdx = PA.ManagerIdx;
        unsigned JobId = PA.J->id();
        Sim.after(PA.Delay, [&NegotiationBatch, &Arm, ManagerIdx,
                             JobId](Tick NegotiationNow) {
          NegotiationBatch.push_back({ManagerIdx, JobId});
          Arm(NegotiationNow);
        });
      }
    }
    // Commit pipeline: evaluate every tender against the tick-start
    // snapshot in parallel, then apply in ascending job id — grid
    // reservations and economy charges land in canonical order
    // regardless of shard count or thread interleaving.
    if (!NegotiationBatch.empty()) {
      auto DrainStart = std::chrono::steady_clock::now();
      std::vector<PendingNegotiation> Ready;
      Ready.swap(NegotiationBatch);
      std::sort(Ready.begin(), Ready.end(),
                [](const PendingNegotiation &A, const PendingNegotiation &B) {
                  return A.JobId < B.JobId;
                });
      SM.CommitBatches.add();
      SM.CommitJobs.add(Ready.size());
      SM.CommitBatchJobs.observe(static_cast<double>(Ready.size()));
      std::vector<size_t> Hints(Ready.size());
      {
        obs::PhaseScope PreparePhase("commit.prepare");
        PreparePhase.work("tenders", Ready.size());
        Pool.submitRange(
            0, Ready.size(),
            [&](size_t I) {
              Hints[I] = Managers[Ready[I].ManagerIdx]->prepareNegotiation(
                  Ready[I].JobId);
            },
            /*MaxLanes=*/ShardCount);
      }
      {
        obs::PhaseScope ApplyPhase("commit.apply");
        ApplyPhase.work("tenders", Ready.size());
        for (size_t I = 0; I < Ready.size(); ++I) {
          const PendingNegotiation &PN = Ready[I];
          Econ.setActiveShard(Metascheduler::shardOfJob(PN.JobId, ShardCount),
                              PN.JobId);
          std::optional<Tick> Completion =
              Managers[PN.ManagerIdx]->onNegotiation(PN.JobId, Now, Hints[I]);
          if (Completion) {
            size_t ManagerIdx = PN.ManagerIdx;
            unsigned JobId = PN.JobId;
            Sim.at(*Completion, [&Managers, ManagerIdx, JobId](Tick CNow) {
              Managers[ManagerIdx]->onCompletion(JobId, CNow);
            });
          }
        }
      }
      // Tick barrier: fold the per-shard charge ledgers canonically.
      Econ.mergeLedgers();
      SM.CommitDrainMicros.observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - DrainStart)
              .count()));
    }
  };

  std::vector<size_t> FlowOf(Config.JobCount, 0);
  for (size_t I = 0; I < Flow.size(); ++I) {
    size_t F = I % NumFlows;
    FlowOf[Flow[I].id()] = F;
    const Job *J = &Flow[I];
    Tick Delay = NegotiationRng.uniformInt(Config.NegotiationLo,
                                           Config.NegotiationHi);
    size_t ManagerIdx =
        F * ShardCount + Metascheduler::shardOfJob(J->id(), ShardCount);
    Sim.at(J->release(),
           [&ArrivalBatch, &Arm, ManagerIdx, J, Delay](Tick Now) {
             ArrivalBatch.push_back({ManagerIdx, J, Delay});
             Arm(Now);
           });
  }

  Sim.run();
  Econ.mergeLedgers();

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
    std::vector<VoJobStats> Merged;
    for (size_t S = 0; S < ShardCount; ++S) {
      std::vector<VoJobStats> Part = Managers[F * ShardCount + S]->takeStats();
      Merged.insert(Merged.end(), std::make_move_iterator(Part.begin()),
                    std::make_move_iterator(Part.end()));
    }
    // Each shard records its jobs in admission (ascending id) order;
    // the flow-level merge restores the canonical order a 1-shard run
    // produces directly.
    std::stable_sort(Merged.begin(), Merged.end(),
                     [](const VoJobStats &A, const VoJobStats &B) {
                       return A.JobId < B.JobId;
                     });
    Results[F].Jobs = std::move(Merged);
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
  // BuildThreads and AllowedNodes are deliberately absent: thread count
  // never changes results (pinned by determinism tests), and the tools
  // never restrict node domains at the VO level.

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
  // The shard count is deliberately absent, like BuildThreads: results
  // are shard-invariant (pinned by tests), so two runs of one
  // configuration at different shard counts must share a hash. The
  // resolved count still reaches the provenance stamp as its own
  // `shards` field, which `cws-diff` compares selectively.
  Out += std::string("vo.invalidation=") +
         (Config.Invalidation == InvalidationMode::Index ? "index" : "scan");
  // The repair oracle is absent too: it is a side-effect-free check
  // (like the journal toggle), so an oracle run simulates the same
  // configuration as a plain one.
  Out += std::string(" vo.reallocation=") +
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
