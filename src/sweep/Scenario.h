//===-- sweep/Scenario.h - Declarative scenario grids -----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declarative scenario-grid format behind `cws-sweep` and its
/// expansion into concrete runs. A grid file names sweep axes and the
/// replication depth:
///
///   # comments and blank lines are ignored
///   axis arrival_scale 1.0 1.5 2.0
///   axis strategy S1 S2 MS1
///   axis fast_share 0.20 0.33
///   seeds 5          # seed replicas per scenario
///   base_seed 42     # replica seeds are base_seed, base_seed+1, ...
///   jobs 60          # optional fixed knobs forwarded to every run
///   slack 2.0
///
/// Expansion is the cartesian product of the axis values in declaration
/// order (later axes cycle fastest), times the seed replicas. Every
/// scenario gets a token-shaped id like `arrival_scale=1.0+strategy=S1`
/// that survives CSV columns and provenance stamps unquoted.
///
/// Axes map 1:1 onto `cws-sim` flags (see `sweepAxisFlag`); the
/// simulator itself applies them, so a sweep-spawned run and a direct
/// `cws-sim` invocation with the same flags are the same run.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SWEEP_SCENARIO_H
#define CWS_SWEEP_SCENARIO_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cws {
namespace sweep {

/// One sweep axis: a named knob and the values it takes.
struct SweepAxis {
  std::string Name;
  std::vector<std::string> Values;
};

/// A parsed scenario grid.
struct SweepGrid {
  std::vector<SweepAxis> Axes;
  /// Seed replicas per scenario.
  uint64_t Seeds = 5;
  /// Seed of the first replica; replica r runs with BaseSeed + r.
  uint64_t BaseSeed = 42;
  /// Fixed knobs forwarded to every run (0 / negative = tool default).
  int64_t Jobs = 0;
  double Slack = 0.0;
  int64_t SampleEvery = 0;
};

/// The `cws-sim` flag an axis name drives ("arrival_scale" ->
/// "--arrival-scale"), empty for unknown axes. Known axes:
/// arrival_scale, background_scale, fast_share, strategy, slack, jobs,
/// exec.
std::string sweepAxisFlag(const std::string &Axis);

/// Parses a grid file. Returns false and sets \p Error (with a 1-based
/// line number) on malformed input, unknown axes, duplicate axes,
/// non-token values, or an empty grid.
bool parseSweepGrid(const std::string &Text, SweepGrid &Out,
                    std::string &Error);

/// One concrete run of an expanded grid.
struct SweepRunSpec {
  /// Index into the expanded scenario list.
  size_t ScenarioIndex = 0;
  /// Token-shaped scenario id ("arrival_scale=1.0+strategy=S1").
  std::string ScenarioId;
  /// Axis name -> value, in grid declaration order.
  std::vector<std::pair<std::string, std::string>> Axes;
  /// This replica's seed.
  uint64_t Seed = 0;
  /// Replica index within the scenario (0-based).
  uint64_t Replica = 0;
  /// `cws-sim` flags realizing the scenario (axis flags plus the grid's
  /// fixed knobs, seed and scenario id; artifact paths are the
  /// runner's).
  std::vector<std::string> SimArgs;
};

/// Expands \p Grid into runs: scenarios in cartesian-product order,
/// each with `Grid.Seeds` consecutive replicas — run index =
/// scenario index * Seeds + replica. Deterministic.
std::vector<SweepRunSpec> expandSweepGrid(const SweepGrid &Grid);

/// Number of scenarios `expandSweepGrid` produces (product of axis
/// sizes; 1 for an axis-free grid).
size_t sweepScenarioCount(const SweepGrid &Grid);

} // namespace sweep
} // namespace cws

#endif // CWS_SWEEP_SCENARIO_H
