//===-- flow/Metascheduler.h - Job-flow metascheduler -----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metascheduler at the top of the hierarchical framework (Fig. 1):
/// it builds strategies for incoming jobs against the current
/// environment, owns the owner-id space that ties reservations to jobs,
/// commits chosen supporting schedules (charging the quota economy) and
/// serves reallocation requests when a job's strategy goes stale.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_FLOW_METASCHEDULER_H
#define CWS_FLOW_METASCHEDULER_H

#include "core/Repair.h"
#include "core/Strategy.h"
#include "flow/Economy.h"
#include "job/Job.h"
#include "resource/Grid.h"
#include "resource/Network.h"

#include <unordered_set>

namespace cws {

/// How the metascheduler serves a reallocation request.
enum class ReallocationMode {
  /// Unconditional full rebuild — the pre-repair behavior, kept as the
  /// differential oracle behind `--reallocation=rebuild`.
  Rebuild,
  /// Escalating staged repair: single-slot shift, then partial chain-DP
  /// re-run, then the full rebuild (the default).
  Repair,
};

/// Short name ("rebuild" / "repair") — the CLI and canonical-config
/// vocabulary.
const char *reallocationModeName(ReallocationMode M);

/// Outcome of one reallocation request: the replacement strategy plus
/// the stage that produced it. Stage Failed means even the rebuild came
/// back inadmissible — the strategy is not admissible and the caller
/// keeps the old one (its reservations were left untouched).
struct ReallocationResult {
  Strategy S;
  RepairStage Stage = RepairStage::Failed;
  bool admissible() const { return S.admissible(); }
};

/// Tallies of the repair differential oracle: with the oracle enabled,
/// every staged repair is checked against the full rebuild it replaced.
struct RepairOracleStats {
  /// Staged repairs compared against a reference rebuild.
  uint64_t Checked = 0;
  /// Repaired best variant covers the job, fits the live grid and meets
  /// the deadline.
  uint64_t Feasible = 0;
  /// Repaired best variant is affordable under the user's quota.
  uint64_t Affordable = 0;
  /// Repaired best cost <= rebuilt best cost under the active (cost)
  /// bias, or the rebuild itself came back inadmissible.
  uint64_t NotWorse = 0;
  /// Summed best-variant economic costs of both sides (rebuild side
  /// only over checks where both sides were admissible).
  double RepairCost = 0, RebuildCost = 0;

  void accumulate(const RepairOracleStats &O) {
    Checked += O.Checked;
    Feasible += O.Feasible;
    Affordable += O.Affordable;
    NotWorse += O.NotWorse;
    RepairCost += O.RepairCost;
    RebuildCost += O.RebuildCost;
  }
};

/// First owner id handed to compound jobs; background load and other
/// reserved owners live below it.
inline constexpr OwnerId JobOwnerBase = 1000;

/// Top-level dispatcher of the scheduling framework.
class Metascheduler {
public:
  Metascheduler(Grid &Env, const Network &Net, Economy &Econ,
                StrategyConfig Config)
      : Env(Env), Net(Net), Econ(Econ), Config(Config) {}

  /// Owner id a job's reservations use. Pure in the job id, because
  /// owner ids appear in journals and timelines.
  static OwnerId ownerOf(unsigned JobId) { return JobOwnerBase + JobId; }

  /// Builds the flow's strategy for \p J against the current load.
  Strategy buildStrategy(const Job &J, Tick Now) const {
    return Strategy::build(J, Env, Net, Config, ownerOf(J.id()), Now);
  }

  /// Commits \p Variant's distribution for \p J if user \p UserId can
  /// pay and every slot is still free; charges the economy on success.
  /// \p Now is the decision tick (journaled, not used for scheduling).
  bool commit(const Job &J, const ScheduleVariant &Variant, unsigned UserId,
              Tick Now = 0);

  /// Commits an explicit distribution (e.g. a shifted supporting
  /// schedule produced by the negotiation layer) under the same rules.
  bool commitDistribution(const Job &J, const Distribution &D,
                          unsigned UserId, Tick Now = 0);

  /// Reallocation: replaces \p J's stale strategy \p Stale. In repair
  /// mode the stages escalate — shift the one broken reservation,
  /// re-run the DP for the broken critical works, full rebuild; in
  /// rebuild mode the rebuild runs unconditionally. Build-then-swap:
  /// reservations \p J holds are released only once an admissible
  /// replacement exists, so a failed reallocation leaves the old state
  /// intact. Only a commit's reservations are released: a job that was
  /// never committed leaves the grid as it is. \p UserId is the paying
  /// user (repairs must stay within quota).
  ReallocationResult reallocate(const Job &J, const Strategy &Stale,
                                unsigned UserId, Tick Now);

  ReallocationMode reallocationMode() const { return ReallocMode; }
  void setReallocationMode(ReallocationMode M) { ReallocMode = M; }

  /// Toggles the repair differential oracle: every staged repair is
  /// re-derived by a side-effect-free reference rebuild and compared.
  /// Diagnostic-priced; the check never changes the run's trajectory.
  void setRepairOracle(bool Enabled) { OracleEnabled = Enabled; }
  const RepairOracleStats &repairOracle() const { return Oracle; }

  Grid &grid() { return Env; }
  const Grid &grid() const { return Env; }
  const StrategyConfig &strategyConfig() const { return Config; }

private:
  /// The grid a rebuild of \p Owner's job at \p Now starts from: the
  /// reservations of the environment that end after \p Now, less the
  /// job's own. Adds the reservations it copied to \p Copied.
  Grid rebuildGrid(OwnerId Owner, Tick Now, uint64_t &Copied) const;

  /// Releases \p Owner's reservations in the environment if a commit
  /// made them.
  void releaseCommitted(OwnerId Owner);

  /// Compares one staged repair against a reference rebuild (journal
  /// events swallowed, grid copied) and tallies into Oracle; adds the
  /// reservations the rebuild's grid copied to \p Copied.
  void checkRepairOracle(const Job &J, const Strategy &Repaired,
                         unsigned UserId, OwnerId Owner, Tick Now,
                         uint64_t &Copied);

  Grid &Env;
  const Network &Net;
  Economy &Econ;
  StrategyConfig Config;
  ReallocationMode ReallocMode = ReallocationMode::Repair;
  bool OracleEnabled = false;
  RepairOracleStats Oracle;
  /// The owners whose committed reservations a reallocation has not
  /// released yet.
  std::unordered_set<OwnerId> Committed;
};

} // namespace cws

#endif // CWS_FLOW_METASCHEDULER_H
