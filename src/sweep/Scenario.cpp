//===-- sweep/Scenario.cpp - Declarative scenario grids -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sweep/Scenario.h"
#include "job/Generator.h"
#include "obs/Metrics.h"
#include "support/Text.h"

#include <algorithm>

using namespace cws;
using namespace cws::sweep;

std::string cws::sweep::sweepAxisFlag(const std::string &Axis) {
  static const std::pair<const char *, const char *> Map[] = {
      {"arrival_scale", "--arrival-scale"},
      {"background_scale", "--background-scale"},
      {"fast_share", "--fast-share"},
      {"strategy", "--strategy"},
      {"slack", "--slack"},
      {"jobs", "--jobs"},
      {"exec", "--exec"},
  };
  for (const auto &[Name, Flag] : Map)
    if (Axis == Name)
      return Flag;
  return std::string();
}

/// Axis values land in scenario ids, CSV columns and provenance stamps
/// unquoted, so they must be plain tokens.
static bool tokenShaped(const std::string &Value) {
  if (Value.empty())
    return false;
  for (char C : Value)
    if (C == ',' || C == ';' || C == '=' || C == '+' || C == ' ' ||
        C == '\t' || C == '"')
      return false;
  return true;
}

/// What is wrong with \p Value on axis \p Axis, as cws-sim would reject
/// it in the flag the axis becomes, or "": `strategy` takes S1, S2, S3 or
/// MS1, `jobs` an integer >= 0, `exec` 0 or 1, and the rest a finite
/// number: `slack` in (0, maxDeadlineSlack()], `arrival_scale` and
/// `background_scale` above 0, `fast_share` at most 1.
static std::string axisValueError(const std::string &Axis,
                                  const std::string &Value) {
  if (Axis == "strategy")
    return Value == "S1" || Value == "S2" || Value == "S3" || Value == "MS1"
               ? ""
               : "must be S1, S2, S3 or MS1";
  if (Axis == "jobs" || Axis == "exec") {
    int64_t V = 0;
    if (!parseInt(Value, V))
      return "must be an integer";
    if (Axis == "exec")
      return V == 0 || V == 1 ? "" : "must be 0 or 1";
    return V >= 0 ? "" : "must be >= 0";
  }
  double V = 0.0;
  if (!parseReal(Value, V))
    return "must be a finite number";
  if (Axis == "slack") {
    double Max = WorkloadConfig().maxDeadlineSlack();
    return V > 0 && V <= Max
               ? ""
               : "must be in (0, " + obs::renderNumber(Max) + "]";
  }
  if (Axis == "fast_share")
    return V <= 1 ? "" : "must be <= 1";
  return V > 0 ? "" : "must be > 0";
}

/// The most runs a grid may expand to. expandSweepGrid reserves and
/// builds every run spec before the first run starts, about 1.2 KB each
/// with three axes, so this cap keeps the specs near 125 MB; a larger
/// study runs as several grids over disjoint base_seed ranges.
static constexpr uint64_t MaxRuns = 100000;
/// The largest value of a cws-sim integer flag.
static constexpr uint64_t MaxFlagInt = INT64_MAX;

bool cws::sweep::parseSweepGrid(const std::string &Text, SweepGrid &Out,
                                std::string &Error) {
  Out = SweepGrid{};
  LineReader In(Text);
  while (In.next()) {
    std::vector<std::string> Words =
        splitFields(In.line().substr(0, In.line().find('#')), " \t",
                    /*SkipEmpty=*/true);
    if (Words.empty())
      continue;
    const std::string &Key = Words[0];
    auto Err = [&](const std::string &What) {
      Error = In.error(What);
      return false;
    };
    if (Key == "axis") {
      if (Words.size() < 3)
        return Err("axis needs a name and at least one value");
      SweepAxis Axis;
      Axis.Name = Words[1];
      if (sweepAxisFlag(Axis.Name).empty())
        return Err("unknown axis '" + Axis.Name +
                   "' (arrival_scale, background_scale, fast_share, "
                   "strategy, slack, jobs, exec)");
      for (const SweepAxis &Prior : Out.Axes)
        if (Prior.Name == Axis.Name)
          return Err("duplicate axis '" + Axis.Name + "'");
      for (size_t I = 2; I < Words.size(); ++I) {
        if (!tokenShaped(Words[I]))
          return Err("axis value '" + Words[I] +
                     "' is not token-shaped (no , ; = + or quotes)");
        for (size_t J = 2; J < I; ++J)
          if (Words[J] == Words[I])
            return Err("duplicate value '" + Words[I] + "' on axis '" +
                       Axis.Name + "'");
        if (std::string Why = axisValueError(Axis.Name, Words[I]);
            !Why.empty())
          return Err("axis " + Axis.Name + " value '" + Words[I] + "' " +
                     Why);
        Axis.Values.push_back(Words[I]);
      }
      Out.Axes.push_back(std::move(Axis));
      continue;
    }
    if (Words.size() != 2)
      return Err("expected '" + Key + " <value>'");
    // The fixed knobs become cws-sim flags, so each takes the range its
    // flag accepts; cws-sim's integer flags are signed 64-bit.
    auto Uint = [&](uint64_t Lo, uint64_t Hi, uint64_t &V) {
      return (parseUint(Words[1], V) && V >= Lo && V <= Hi) ||
             Err(Key + " must be an integer in [" + std::to_string(Lo) +
                 ", " + std::to_string(Hi) + "]");
    };
    uint64_t V = 0;
    if (Key == "seeds") {
      if (!Uint(1, MaxRuns, Out.Seeds))
        return false;
    } else if (Key == "base_seed") {
      if (!Uint(0, MaxFlagInt, Out.BaseSeed))
        return false;
    } else if (Key == "jobs") {
      if (!Uint(1, MaxFlagInt, V))
        return false;
      Out.Jobs = static_cast<int64_t>(V);
    } else if (Key == "slack") {
      if (!parseReal(Words[1], Out.Slack) || Out.Slack <= 0 ||
          Out.Slack > WorkloadConfig().maxDeadlineSlack())
        return Err("bad slack '" + Words[1] + "'");
    } else if (Key == "sample_every") {
      if (!Uint(1, MaxFlagInt, V))
        return false;
      Out.SampleEvery = static_cast<int64_t>(V);
    } else {
      return Err("unknown directive '" + Key +
                 "' (axis, seeds, base_seed, jobs, slack, sample_every)");
    }
  }
  if (Out.BaseSeed > MaxFlagInt - (Out.Seeds - 1)) {
    Error = "the last replica seed, base_seed + seeds - 1, exceeds " +
            std::to_string(MaxFlagInt);
    return false;
  }
  uint64_t Runs = Out.Seeds;
  for (const SweepAxis &Axis : Out.Axes) {
    if (Runs > MaxRuns / Axis.Values.size()) {
      Error = "the grid expands to more than " + std::to_string(MaxRuns) +
              " runs";
      return false;
    }
    Runs *= Axis.Values.size();
  }
  return true;
}

size_t cws::sweep::sweepScenarioCount(const SweepGrid &Grid) {
  size_t Count = 1;
  for (const SweepAxis &Axis : Grid.Axes)
    Count *= Axis.Values.size();
  return Count;
}

std::vector<SweepRunSpec> cws::sweep::expandSweepGrid(const SweepGrid &Grid) {
  std::vector<SweepRunSpec> Runs;
  size_t Scenarios = sweepScenarioCount(Grid);
  Runs.reserve(Scenarios * Grid.Seeds);
  // Odometer over the axes: the last-declared axis cycles fastest.
  for (size_t S = 0; S < Scenarios; ++S) {
    SweepRunSpec Base;
    Base.ScenarioIndex = S;
    size_t Rem = S;
    for (size_t A = Grid.Axes.size(); A-- > 0;) {
      const SweepAxis &Axis = Grid.Axes[A];
      size_t Idx = Rem % Axis.Values.size();
      Rem /= Axis.Values.size();
      Base.Axes.emplace_back(Axis.Name, Axis.Values[Idx]);
    }
    // The odometer walked axes back-to-front; ids and flags keep
    // declaration order.
    std::reverse(Base.Axes.begin(), Base.Axes.end());
    for (const auto &[Name, Value] : Base.Axes) {
      if (!Base.ScenarioId.empty())
        Base.ScenarioId += '+';
      Base.ScenarioId += Name + "=" + Value;
      Base.SimArgs.push_back(sweepAxisFlag(Name));
      Base.SimArgs.push_back(Value);
    }
    if (Base.ScenarioId.empty())
      Base.ScenarioId = "default";
    auto HasAxis = [&Base](const char *Name) {
      for (const auto &[Axis, Value] : Base.Axes)
        if (Axis == Name)
          return true;
      return false;
    };
    if (Grid.Jobs > 0 && !HasAxis("jobs")) {
      Base.SimArgs.push_back("--jobs");
      Base.SimArgs.push_back(std::to_string(Grid.Jobs));
    }
    if (Grid.Slack > 0 && !HasAxis("slack")) {
      Base.SimArgs.push_back("--slack");
      Base.SimArgs.push_back(obs::renderNumber(Grid.Slack));
    }
    if (Grid.SampleEvery > 0) {
      Base.SimArgs.push_back("--sample-every");
      Base.SimArgs.push_back(std::to_string(Grid.SampleEvery));
    }
    Base.SimArgs.push_back("--scenario");
    Base.SimArgs.push_back(Base.ScenarioId);
    for (uint64_t R = 0; R < Grid.Seeds; ++R) {
      SweepRunSpec Run = Base;
      Run.Replica = R;
      Run.Seed = Grid.BaseSeed + R;
      Run.SimArgs.push_back("--seed");
      Run.SimArgs.push_back(std::to_string(Run.Seed));
      Runs.push_back(std::move(Run));
    }
  }
  return Runs;
}
