//===-- examples/describe_and_run.cpp - Textual job descriptions ----------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end from a textual resource query: parse a job description
/// file (the role JDL / ClassAds play in the paper's discussion),
/// schedule it with the critical works method, and render the
/// distribution as an ASCII Gantt chart. Pass a file path, or run
/// without arguments to use the built-in sample.
///
//===----------------------------------------------------------------------===//

#include "core/Gantt.h"
#include "core/Scheduler.h"
#include "lang/Parser.h"
#include "resource/Network.h"
#include "support/File.h"

#include <cstdio>
#include <iostream>

using namespace cws;

static const char SampleDescription[] = R"(
job "inline-sample" deadline 30
task prepare  ref 2 vol 20
task simulate ref 5 vol 50
task render   ref 2 vol 20
edge prepare -> simulate transfer 1
edge simulate -> render  transfer 2
node perf 1.0
node perf 0.5
node perf 0.33
)";

int main(int Argc, char **Argv) {
  std::string Text = SampleDescription;
  if (Argc > 1 && !readFile(Argv[1], Text)) {
    std::fprintf(stderr, "cannot open '%s'\n", Argv[1]);
    return 1;
  }

  ParseResult R = parseJobDescription(Text);
  if (!R.ok()) {
    std::fprintf(stderr, "description has errors:\n%s",
                 formatDiagnostics(R.Errors).c_str());
    return 1;
  }
  if (!R.HasEnv) {
    std::fprintf(stderr, "description declares no nodes\n");
    return 1;
  }

  std::printf("parsed job with %zu tasks, %zu transfers, deadline %lld; "
              "%zu nodes\n\n",
              R.TheJob.taskCount(), R.TheJob.edgeCount(),
              static_cast<long long>(R.TheJob.deadline()), R.Env.size());

  Network Net;
  ScheduleResult Schedule =
      scheduleJob(R.TheJob, R.Env, Net, SchedulerConfig{}, /*Owner=*/1);
  if (!Schedule.Feasible) {
    std::printf("the job cannot meet its deadline on the declared nodes\n");
    return 1;
  }

  std::printf("makespan %lld, economic cost %.1f, CF %lld, %zu collisions\n\n",
              static_cast<long long>(Schedule.Dist.makespan()),
              Schedule.Dist.economicCost(),
              static_cast<long long>(Schedule.Dist.costFunction(R.TheJob)),
              Schedule.Collisions.size());

  GanttOptions Options;
  Options.ShowIdleNodes = true;
  std::cout << renderGantt(R.TheJob, R.Env, Schedule.Dist, Options);
  return 0;
}
