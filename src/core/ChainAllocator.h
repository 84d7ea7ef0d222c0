//===-- core/ChainAllocator.h - DP allocation of one chain ------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-programming allocator of the critical works method: given
/// one critical work (a chain of tasks), the current partial
/// distribution and the node timelines, it searches "the best
/// combination of available resources" by a DP over (chain position,
/// node) states keeping a Pareto front of (finish time, economic cost)
/// labels — minimizing cost subject to the job's fixed completion time,
/// or minimizing finish time under the Time bias.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_CORE_CHAINALLOCATOR_H
#define CWS_CORE_CHAINALLOCATOR_H

#include "core/Collision.h"
#include "core/CostModel.h"
#include "core/CriticalWork.h"
#include "core/Distribution.h"
#include "core/ParetoFront.h"
#include "obs/Trace.h"
#include "resource/DataPolicy.h"
#include "sim/Time.h"
#include "support/SmallVector.h"

#include <array>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace cws {

class Grid;
class Job;

/// What the DP optimizes, subject to the deadline either way.
enum class OptimizationBias {
  /// Minimize economic cost; finish time breaks ties.
  Cost,
  /// Minimize finish time; economic cost breaks ties.
  Time,
};

/// Short name ("cost" / "time").
const char *optimizationBiasName(OptimizationBias Bias);

/// Knobs of one allocation run.
struct AllocatorPolicy {
  /// Node ids the variant may use (the "environment event" it covers).
  std::vector<unsigned> CandidateNodes;
  /// The candidates a label can land on, in candidate order: the forward
  /// pass and the terminal pick search only these. A caller may leave
  /// out a candidate only when no placement of the job can use it in
  /// any scratch state of the run (`Strategy::build` leaves out its
  /// *full* nodes). The Cost bias's `Moved` scan still walks every
  /// candidate, since a cheaper full node is the contended node it
  /// reports. Unset: every candidate is searched. Empty: every chain
  /// fails, as a pass over the candidates would find no label.
  std::optional<std::vector<unsigned>> SearchNodes;
  OptimizationBias Bias = OptimizationBias::Cost;
  /// Economic penalty for placing consecutive chain tasks on different
  /// nodes. Coarse-grain strategies (S3) set this high, gluing chains to
  /// a single node and minimizing data exchanges.
  double NodeSwitchPenalty = 0.0;
  /// Pareto front size cap per (position, node) state.
  size_t MaxFrontSize = 8;
};

/// The collision log of each bias one chain placement serves, indexed
/// by `OptimizationBias`; null for a bias it does not serve.
using BiasLogs = std::array<std::vector<CollisionRecord> *, 2>;

/// One step of a chosen chain path.
struct ChainStep {
  unsigned NodeId;
  Tick Start;
  Tick Finish;
};

/// Where a chain placement serving both biases stopped: the attempt at
/// which the Cost and the Time pick first differed, the readiness bumps
/// of the reruns before it, and each bias's path (indexed by bias).
struct ChainSplit {
  int Attempt = 0;
  std::vector<Tick> ExtraReady;
  std::array<std::vector<ChainStep>, 2> Paths;
};

/// The deterministic work of chain placements: Pareto labels kept (at
/// the last position: labels that changed a front's extremes),
/// earliest-fit queries issued, window-violation reruns, forward passes
/// that found no path before building a front, fronts a pass did not
/// build although their task fits its window there, and last positions
/// rebuilt with full fronts after a near cost tie or a skip next to the
/// band.
struct DpWork {
  uint64_t Labels = 0;
  uint64_t FitQueries = 0;
  uint64_t Reruns = 0;
  uint64_t PassesUnreachable = 0;
  uint64_t FrontsSkipped = 0;
  uint64_t TieFallbacks = 0;

  DpWork &operator+=(const DpWork &Other);
  DpWork &operator-=(const DpWork &Other);
};

/// How a chain placement ended.
enum class ChainOutcome {
  Placed,
  /// No path met the windows; the state is untouched.
  Failed,
  /// The Cost and the Time pick differ; the state is untouched and the
  /// caller continues each bias on its own copy with `resume`.
  Split,
};

/// Allocates critical works into a scratch grid.
///
/// The allocator mutates the grid's timelines (reserving each placement
/// for the given owner) and the data policy's replica memory; callers
/// own both and typically operate on copies while generating a strategy.
///
/// The forward DP never reads the bias: only the terminal pick and the
/// Cost-only `Moved` scan do. So one placement can serve Cost and Time
/// at once on one state, while their picks agree.
///
/// The forward pass searches `Params.SearchNodes` (every candidate when
/// unset). It first decides, from the per-node terms alone, which fronts
/// can hold a label that reaches the last position, and builds only
/// those: a chain no path can place builds no front. At the last
/// position, which only the pick reads, each front keeps only its
/// earliest-finish and its cheapest label, and skips the candidates that
/// the fronts the pick reads before it already beat for both picks,
/// unless a candidate's cost nearly ties a front's cheapest one or lies
/// in the band next to the Cost pick's best: then the pass rebuilds that
/// position with full fronts (see docs/ARCHITECTURE.md, "What the pick
/// reads"). Its scratch state
/// (the fronts, the per-node terms and the placed neighbours of the
/// current task) lives in buffers that every allocator on a thread
/// shares, so a pass allocates nothing once the buffers have grown to
/// the largest chain the thread has placed, and it publishes its label
/// and eviction counts to the metrics registry once, at its end. An
/// allocator is used on the thread that made it.
class ChainAllocator {
public:
  ChainAllocator(const Job &J, Grid &ScratchGrid, DataPolicy &Policy,
                 const CostModel &Cost, const AllocatorPolicy &Params);

  /// Places every task of \p Work under `Params.Bias`. On success the
  /// placements are appended to \p Dist, reserved in the grid under
  /// \p Owner, and any contention is recorded in \p Collisions. Returns
  /// false (leaving all state untouched) when the chain cannot meet its
  /// windows.
  bool allocate(const CriticalWork &Work, Distribution &Dist, Tick Release,
                Tick Deadline, OwnerId Owner,
                std::vector<CollisionRecord> &Collisions);

  /// Places every task of \p Work for each bias with a log in \p Logs.
  /// While the picks agree one reservation serves both: `Shifted`
  /// records go to every log, the `Moved` scan's records to Cost's
  /// only. `Params.Bias` is not read.
  ChainOutcome allocate(const CriticalWork &Work, Distribution &Dist,
                        Tick Release, Tick Deadline, OwnerId Owner,
                        BiasLogs Logs, ChainSplit &Split);

  /// Continues a split placement for \p Bias from its pick in \p Split,
  /// on a state equal to the one the split left.
  bool resume(const CriticalWork &Work, const ChainSplit &Split,
              OptimizationBias Bias, Distribution &Dist, Tick Release,
              Tick Deadline, OwnerId Owner,
              std::vector<CollisionRecord> &Collisions);

  /// The cumulative DP work of this allocator. A `ChainDpPhase` around
  /// a placement attributes that placement's share to `chain.dp`.
  const DpWork &work() const { return Done; }

private:
  struct Label {
    Tick Finish;
    double Cost;
    /// Start of this task on this node (Finish - reservation).
    Tick Start;
    /// Back-pointers: candidate-node index and label index at the
    /// previous position; -1 at position 0.
    int32_t PrevNode;
    int32_t PrevLabel;
  };

  /// One (position, node) state's Pareto front. The inline capacity
  /// matches the default `AllocatorPolicy::MaxFrontSize`, and a capped
  /// front never exceeds its cap, so with default knobs front
  /// maintenance never touches the heap.
  using LabelFront = SmallVector<Label, 8>;

  /// The terms of placing one chain position's task on one searched
  /// node that do not depend on the previous chain task's label, and
  /// what the pass decided about the (position, node) front from them.
  struct NodeTerms {
    /// The node's reservations.
    const Timeline *Line;
    /// Execution ticks on the node.
    Tick Dur;
    /// Ready time from placed predecessors and rerun bumps.
    Tick Ready;
    /// Latest feasible finish.
    Tick Lft;
    /// earliestFit(Ready, Dur), when Ready + Dur meets Lft.
    Tick FirstFit;
    /// A lower bound on the finish of every label the front can hold, or
    /// `NoLabel` when it can hold none. The remaining terms are set only
    /// when it can hold one.
    Tick EarliestFinish;
    /// Whether the pass builds the front: it can hold a label that
    /// reaches the last position.
    bool Build;
    /// Billed inbound ticks from placed predecessors other than the
    /// previous chain task.
    Tick Inbound;
    double ExecCost;
    /// Chain-edge transfer ticks and step cost from a previous chain
    /// task on this node ([0], where the transfer is free) and on any
    /// other node ([1]).
    Tick ChainTr[2];
    double StepCost[2];
  };

  /// `NodeTerms::EarliestFinish` of a front that can hold no label.
  static constexpr Tick NoLabel = std::numeric_limits<Tick>::max();

  /// An edge from a placed predecessor of the current task: the
  /// producer's finish, and what the transfer costs on a node where it
  /// is not free (`Buffers::PredFree`). `Billed` is 0 on the edges from
  /// the previous chain task, which the chain edge bills.
  struct PlacedPred {
    Tick End;
    Tick Wait;
    Tick Billed;
  };

  /// An edge to a placed successor of the current task: the consumer's
  /// node and start, and the ticks the transfer takes from any other
  /// node (0 when the consumer's node holds a replica of the task's
  /// data).
  struct PlacedSucc {
    unsigned Node;
    Tick Start;
    Tick Wait;
  };

  /// What the gathered predecessors impose on the task on one node.
  struct PlacedTerms {
    /// Ready time, the release included.
    Tick Ready;
    /// Billed inbound ticks from predecessors other than the previous
    /// chain task.
    Tick Inbound;
  };

  /// The verify-and-rerun loop of one chain placement, from attempt
  /// `Try.Attempt`. With \p Given it starts by verifying that path;
  /// otherwise it starts with a forward pass.
  ChainOutcome run(const CriticalWork &Work, Distribution &Dist,
                   Tick Release, Tick Deadline, OwnerId Owner, BiasLogs Logs,
                   ChainSplit &Try, const std::vector<ChainStep> *Given);

  /// Fills `Fronts` for \p Chain: the forward DP over (position,
  /// candidate node).
  void forward(const std::vector<unsigned> &Chain, const Distribution &Dist,
               Tick Release, Tick Deadline,
               const std::vector<Tick> &ExtraReady);

  /// Fills row \p Pos of `Terms`, the earliest finishes included, from
  /// the row before it; returns whether some front of the row can hold
  /// a label.
  bool computeTerms(size_t Pos, const std::vector<unsigned> &Chain,
                    const Distribution &Dist, Tick Release, Tick Deadline,
                    const std::vector<Tick> &ExtraReady);

  /// Marks the fronts to build, from the last position backwards.
  void markBuilt(size_t K);

  /// Fills the built fronts of row \p Pos from row `Pos - 1`. With
  /// \p Extremes each front keeps only its earliest-finish and its
  /// cheapest label and skips the candidates the fronts before it beat
  /// for both picks; then it stops and returns false at the first
  /// candidate whose cost nearly ties a front's cheapest label, and at a
  /// front that skipped a candidate and saw one in the band.
  template <bool Extremes> bool buildRow(size_t Pos);

  /// The path of the best terminal label under \p Bias; false when the
  /// last position has no label.
  bool pick(OptimizationBias Bias, const std::vector<unsigned> &Chain,
            std::vector<ChainStep> &Path) const;

  /// Derives the transfer terms of position \p Pos's task once, from
  /// the placed neighbours in \p Dist, the chain edge and the replicas
  /// the policy holds now: `Preds` and `PredFree`, `Succs`, and the
  /// chain edge's. None of them depends on the node the task would run
  /// on, so each node then needs only bit tests, maxes and adds.
  void gatherPlaced(size_t Pos, const std::vector<unsigned> &Chain,
                    const Distribution &Dist);

  /// The gathered predecessors' terms on node \p NodeId. The previous
  /// chain task's transfer is added by the DP transition.
  PlacedTerms placedOn(unsigned NodeId, Tick Release) const;

  /// The scratch state of one chain placement. Every allocator on a
  /// thread shares one set: a placement fills each buffer before it
  /// reads it, and two placements on one thread never overlap.
  struct Buffers {
    /// The fronts of the last forward pass, position-major: `K * N`
    /// entries for a chain of K tasks over N searched nodes.
    std::vector<LabelFront> Fronts;
    /// The terms of the last forward pass, position-major like `Fronts`.
    std::vector<NodeTerms> Terms;
    std::vector<PlacedPred> Preds;
    /// `PredFree[I]`: the nodes where `Preds[I]`'s transfer is free, the
    /// producer's and those holding a replica of its data. It may be
    /// longer than `Preds`; the rest is stale.
    std::vector<NodeSet> PredFree;
    std::vector<PlacedSucc> Succs;
    /// The chain edge into the current task: its cost from another node,
    /// and the nodes holding a replica of the previous task's data, where
    /// it is free. At position 0 it costs nothing.
    DataPolicy::FarTicks ChainFar;
    NodeSet ChainReplicas;
    /// The nodes holding a replica of the current task's data.
    NodeSet OwnReplicas;
    /// Chain position of each task of the job, for the precedence check.
    std::vector<size_t> PosOf;
  };

  /// The calling thread's buffers.
  static Buffers &threadBuffers();

  const Job &J;
  Grid &G;
  DataPolicy &Policy;
  const CostModel &Cost;
  const AllocatorPolicy &Params;
  /// The node ids the forward pass searches.
  const std::vector<unsigned> &Search;
  Buffers &Buf;
  DpWork Done;
  uint64_t EvictedLabels = 0;
};

/// The `chain.dp` span, open while the object lives. It carries the
/// chain's length and whether it was placed to the trace, and when it
/// closes it attaches the work its allocator did meanwhile, plus the
/// work handed to `add`, to the phase. The scheduler and the stage-2
/// repair run each chain placement inside one.
class ChainDpPhase {
public:
  ChainDpPhase(const ChainAllocator &Allocator, const CriticalWork &Chain);
  ~ChainDpPhase();

  /// Also attaches \p Work: that of an allocator made inside the phase.
  void add(const DpWork &Work) { Added += Work; }
  /// Records whether the chain was placed.
  void placed(bool Placed) { Scope.arg("placed", Placed); }

  ChainDpPhase(const ChainDpPhase &) = delete;
  ChainDpPhase &operator=(const ChainDpPhase &) = delete;

private:
  obs::Span Scope;
  const ChainAllocator &Allocator;
  DpWork Start;
  DpWork Added;
};

} // namespace cws

#endif // CWS_CORE_CHAINALLOCATOR_H
