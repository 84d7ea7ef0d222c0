//===-- sweep/Scenario.cpp - Declarative scenario grids -------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sweep/Scenario.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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

static std::vector<std::string> splitWords(const std::string &Line) {
  std::vector<std::string> Words;
  size_t Pos = 0;
  while (Pos < Line.size()) {
    while (Pos < Line.size() && (Line[Pos] == ' ' || Line[Pos] == '\t'))
      ++Pos;
    size_t Start = Pos;
    while (Pos < Line.size() && Line[Pos] != ' ' && Line[Pos] != '\t')
      ++Pos;
    if (Pos > Start)
      Words.push_back(Line.substr(Start, Pos - Start));
  }
  return Words;
}

static bool parseUint(const std::string &Word, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Word.c_str(), &End, 10);
  return End != Word.c_str() && !*End;
}

bool cws::sweep::parseSweepGrid(const std::string &Text, SweepGrid &Out,
                                std::string &Error) {
  Out = SweepGrid{};
  size_t Pos = 0, LineNo = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::vector<std::string> Words = splitWords(Line);
    if (Words.empty())
      continue;
    const std::string &Key = Words[0];
    auto Err = [&](const std::string &What) {
      Error = "line " + std::to_string(LineNo) + ": " + What;
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
        Axis.Values.push_back(Words[I]);
      }
      Out.Axes.push_back(std::move(Axis));
      continue;
    }
    if (Words.size() != 2)
      return Err("expected '" + Key + " <value>'");
    if (Key == "seeds") {
      if (!parseUint(Words[1], Out.Seeds) || Out.Seeds == 0)
        return Err("seeds must be a positive integer");
    } else if (Key == "base_seed") {
      if (!parseUint(Words[1], Out.BaseSeed))
        return Err("bad base_seed '" + Words[1] + "'");
    } else if (Key == "jobs") {
      uint64_t Jobs = 0;
      if (!parseUint(Words[1], Jobs) || Jobs == 0)
        return Err("jobs must be a positive integer");
      Out.Jobs = static_cast<int64_t>(Jobs);
    } else if (Key == "slack") {
      char *End = nullptr;
      Out.Slack = std::strtod(Words[1].c_str(), &End);
      if (End == Words[1].c_str() || *End || Out.Slack <= 0)
        return Err("bad slack '" + Words[1] + "'");
    } else if (Key == "sample_every") {
      uint64_t Every = 0;
      if (!parseUint(Words[1], Every) || Every == 0)
        return Err("sample_every must be a positive integer");
      Out.SampleEvery = static_cast<int64_t>(Every);
    } else {
      return Err("unknown directive '" + Key +
                 "' (axis, seeds, base_seed, jobs, slack, sample_every)");
    }
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
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%g", Grid.Slack);
      Base.SimArgs.push_back("--slack");
      Base.SimArgs.push_back(Buf);
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
