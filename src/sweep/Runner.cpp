//===-- sweep/Runner.cpp - Worker-process sweep execution -----------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sweep/Runner.h"
#include "support/File.h"
#include "sweep/Stats.h"

#include <cerrno>
#include <cstring>
#include <map>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace cws;
using namespace cws::sweep;

/// mkdir -p: creates \p Path and any missing parents.
static bool makeDirs(const std::string &Path, std::string &Error) {
  std::string Partial;
  size_t Pos = 0;
  while (Pos <= Path.size()) {
    size_t Slash = Path.find('/', Pos);
    if (Slash == std::string::npos)
      Slash = Path.size();
    Partial = Path.substr(0, Slash);
    Pos = Slash + 1;
    if (Partial.empty() || Partial == ".")
      continue;
    if (mkdir(Partial.c_str(), 0755) != 0 && errno != EEXIST) {
      Error = "cannot create directory '" + Partial +
              "': " + std::strerror(errno);
      return false;
    }
  }
  return true;
}

namespace {
/// Paths and exec state of one run.
struct RunState {
  std::string Journal;
  std::string Series;
  std::string Log;
  pid_t Pid = -1;
  int ExitStatus = -1;
  bool Done = false;
};
} // namespace

/// Spawns `cws-sim` for run \p R of \p Spec: stdout/stderr go to the
/// run log, artifacts to the run paths. Returns false on fork failure.
static bool spawnRun(const SweepOptions &Opts, const SweepRunSpec &Spec,
                     RunState &State, std::string &Error) {
  std::vector<std::string> Args;
  Args.push_back(Opts.SimBinary);
  for (const std::string &A : Spec.SimArgs)
    Args.push_back(A);
  Args.push_back("--journal");
  Args.push_back(State.Journal);
  Args.push_back("--timeseries");
  Args.push_back(State.Series);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  pid_t Pid = fork();
  if (Pid < 0) {
    Error = std::string("fork failed: ") + std::strerror(errno);
    return false;
  }
  if (Pid == 0) {
    int Fd = open(State.Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      dup2(Fd, STDOUT_FILENO);
      dup2(Fd, STDERR_FILENO);
      if (Fd > STDERR_FILENO)
        close(Fd);
    }
    execv(Argv[0], Argv.data());
    // Only reached when exec fails; 127 is the shell's "not found".
    _exit(127);
  }
  State.Pid = Pid;
  return true;
}

bool cws::sweep::runSweep(const SweepGrid &Grid, const SweepOptions &Opts,
                          obs::SweepStore &Out, std::string &Error) {
  std::vector<SweepRunSpec> Specs = expandSweepGrid(Grid);
  if (Specs.empty()) {
    Error = "the grid expands to no runs";
    return false;
  }
  if (Opts.SimBinary.empty()) {
    Error = "no simulator binary configured";
    return false;
  }
  if (!makeDirs(Opts.RunsDir, Error))
    return false;

  std::vector<RunState> States(Specs.size());
  for (size_t R = 0; R < Specs.size(); ++R) {
    std::string Stem = Opts.RunsDir + "/run-" + std::to_string(R);
    States[R].Journal = Stem + ".journal.jsonl";
    States[R].Series = Stem + ".ts.csv";
    States[R].Log = Stem + ".log";
  }

  //===--- Fan out: at most Workers children at once ---------------------===//
  unsigned Workers = Opts.Workers ? Opts.Workers : 1;
  size_t Next = 0, Running = 0, Completed = 0;
  std::map<pid_t, size_t> ByPid;
  bool SpawnFailed = false;
  while ((Next < Specs.size() && !SpawnFailed) || Running > 0) {
    while (!SpawnFailed && Next < Specs.size() && Running < Workers) {
      if (!spawnRun(Opts, Specs[Next], States[Next], Error)) {
        SpawnFailed = true;
        break;
      }
      ByPid.emplace(States[Next].Pid, Next);
      ++Next;
      ++Running;
    }
    if (Running == 0)
      break;
    int Status = 0;
    pid_t Pid = waitpid(-1, &Status, 0);
    if (Pid < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("waitpid failed: ") + std::strerror(errno);
      return false;
    }
    auto It = ByPid.find(Pid);
    if (It == ByPid.end())
      continue;
    size_t R = It->second;
    ByPid.erase(It);
    --Running;
    ++Completed;
    States[R].Done = true;
    States[R].ExitStatus =
        WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
    if (Opts.Progress)
      Opts.Progress("run " + std::to_string(Completed) + "/" +
                    std::to_string(Specs.size()) + " done: " +
                    Specs[R].ScenarioId + " seed " +
                    std::to_string(Specs[R].Seed));
  }
  if (SpawnFailed)
    return false;

  //===--- Pool in run-index order ---------------------------------------===//
  size_t Scenarios = sweepScenarioCount(Grid);
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, std::string>>>>
      ScenarioList(Scenarios);
  for (const SweepRunSpec &Spec : Specs)
    if (ScenarioList[Spec.ScenarioIndex].first.empty())
      ScenarioList[Spec.ScenarioIndex] = {Spec.ScenarioId, Spec.Axes};
  SweepAccumulator Acc(std::move(ScenarioList), Grid.Seeds);

  // One config hash per scenario; the first replica sets it.
  std::vector<std::string> ScenarioHash(Scenarios);
  for (size_t R = 0; R < Specs.size(); ++R) {
    const SweepRunSpec &Spec = Specs[R];
    const RunState &State = States[R];
    auto Fail = [&](const std::string &What) {
      Error = "run " + std::to_string(R) + " (" + Spec.ScenarioId +
              " seed " + std::to_string(Spec.Seed) + "): " + What +
              " (see " + State.Log + ")";
      return false;
    };
    if (State.ExitStatus != 0)
      return Fail("cws-sim exited with status " +
                  std::to_string(State.ExitStatus));

    std::string Text;
    if (!readFile(State.Journal, Text))
      return Fail("cannot read journal '" + State.Journal + "'");
    obs::ParsedJournal J;
    std::string ParseError;
    if (!obs::parseJournalJsonl(Text, J, ParseError))
      return Fail("journal: " + ParseError);
    obs::ParsedTimeSeries Ts;
    if (!readFile(State.Series, Text))
      return Fail("cannot read time series '" + State.Series + "'");
    if (!obs::parseTimeSeriesCsv(Text, Ts, ParseError))
      return Fail("time series: " + ParseError);

    // Provenance gate: pooled statistics must never mix scenarios,
    // configs or unexpected seeds.
    if (!J.Prov.valid() || !Ts.Prov.valid())
      return Fail("artifact carries no provenance stamp");
    if (J.Prov.Seed != Spec.Seed)
      return Fail("journal stamped with seed " +
                  std::to_string(J.Prov.Seed) + ", expected " +
                  std::to_string(Spec.Seed));
    if (J.Prov.ScenarioId != Spec.ScenarioId)
      return Fail("journal stamped with scenario '" + J.Prov.ScenarioId +
                  "'");
    if (!J.Prov.sameScenario(Ts.Prov) || J.Prov.Seed != Ts.Prov.Seed)
      return Fail("journal and time-series stamps disagree");
    std::string &Hash = ScenarioHash[Spec.ScenarioIndex];
    if (Hash.empty())
      Hash = J.Prov.ConfigHash;
    else if (Hash != J.Prov.ConfigHash)
      return Fail("config hash " + J.Prov.ConfigHash +
                  " diverges from the scenario's " + Hash);
    // A journal that lost its head leaves every journal indicator
    // undefined; pooling the run would drop it from their statistics.
    if (J.Dropped > 0)
      return Fail("journal ring dropped " + std::to_string(J.Dropped) +
                  " events");

    Acc.addRun(Spec.ScenarioIndex, obs::computeIndicators(J, Ts));
  }

  Out = Acc.finalize();

  if (!Opts.KeepRuns) {
    for (const RunState &State : States) {
      unlink(State.Journal.c_str());
      unlink(State.Series.c_str());
      unlink(State.Log.c_str());
    }
    rmdir(Opts.RunsDir.c_str()); // only removes it when now empty
  }
  return true;
}
