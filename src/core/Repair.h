//===-- core/Repair.h - Staged repair of stale strategies -------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Escalating staged repair of a stale scheduling strategy. When an
/// environment change breaks a supporting schedule, a full rebuild
/// discards every still-valid placement; the repair stages recover
/// monotonically more of the strategy's structure at monotonically
/// higher cost:
///
///  - **stage 1** (`repairVariantByShift`): exactly one planned
///    reservation is broken — re-fit it inside its admissible window on
///    the same node, the single-slot analogue of the whole-schedule
///    `minimalFeasibleShift` recovery. The economic cost is invariant
///    (node cost depends on node and duration only, never on start
///    time), so the repaired variant prices identically to the stale
///    optimum.
///  - **stage 2** (`repairVariantByDp`): re-run the chain DP
///    (`ChainAllocator`) for only the critical works whose placements
///    were invalidated, pinning every surviving placement as fixed
///    occupancy in a scratch grid.
///  - **stage 3** is the full `Strategy::build` rebuild; the
///    metascheduler escalates to it when both repairs decline.
///
/// Both repairs are pure with respect to the live environment: they
/// read \p Env, validate the candidate against it, and hand the caller
/// a repaired variant to swap in — reservations move only at commit.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_REPAIR_H
#define CWS_CORE_REPAIR_H

#include "core/Strategy.h"
#include "resource/Timeline.h"
#include "sim/Time.h"

#include <cstdint>
#include <optional>

namespace cws {

class Grid;
class Job;
class Network;

/// Which stage of the escalating repair resolved a reallocation.
enum class RepairStage : uint8_t {
  /// Stage 1: the one broken reservation was shifted in place.
  Shift,
  /// Stage 2: the broken critical works were re-run through the DP
  /// against the pinned survivors.
  Dp,
  /// Stage 3: full strategy rebuild.
  Rebuild,
  /// Even the rebuild came back inadmissible; the caller keeps the old
  /// strategy.
  Failed,
};

/// Short name ("shift" / "dp" / "rebuild" / "failed") — the journal
/// `repair.stage` detail vocabulary.
const char *repairStageName(RepairStage S);

/// Everything a variant repair needs from the metascheduler.
struct RepairInputs {
  const Grid &Env;
  const Network &Net;
  const StrategyConfig &Config;
  OwnerId Owner = 0;
  Tick Now = 0;
  /// When set, each stage-2 attempt adds the reservations it copied into
  /// its scratch grid.
  uint64_t *IntervalsCopied = nullptr;
  /// When set, stages 1 and 2 add the reservations their overlap scans
  /// of `Env` read.
  uint64_t *IntervalsScanned = nullptr;
};

/// A successfully repaired supporting schedule plus how it was won.
struct VariantRepair {
  ScheduleVariant Repaired;
  RepairStage Stage = RepairStage::Failed;
  /// Stage 1: how far the broken reservation moved.
  Tick ShiftDelta = 0;
  /// Stage 2: critical works re-run through the DP.
  uint64_t WorksRerun = 0;
  /// Stage 2: surviving placements pinned as fixed occupancy.
  uint64_t PlacementsPinned = 0;
};

/// Stage 1. Declines (nullopt) unless \p V is feasible, exactly one of
/// its placements is broken in \p Env, and that placement can shift
/// forward on its node into a window that keeps the deadline and every
/// placed successor's transfer gap intact. The shifted placement keeps
/// its node, duration and economic cost.
std::optional<VariantRepair> repairVariantByShift(const Job &Scheduled,
                                                  const ScheduleVariant &V,
                                                  const RepairInputs &In);

/// Stage 2. Declines unless \p V is feasible, at least one but not all
/// of its critical works lost a placement, and the phase partition is
/// clean (collision repair during the original build may re-extract a
/// task into a later work; such variants escalate to the rebuild). The
/// surviving works' placements are reserved in a scratch grid and the
/// broken works re-run through `ChainAllocator` under the variant's
/// level candidates and bias.
std::optional<VariantRepair> repairVariantByDp(const Job &Scheduled,
                                               const ScheduleVariant &V,
                                               const RepairInputs &In);

} // namespace cws

#endif // CWS_CORE_REPAIR_H
