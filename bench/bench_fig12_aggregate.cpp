//===- bench_fig12_aggregate.cpp - Reproduces Fig. 12 -----------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Fig. 12: aggregate results over the SDV corpus for SI-Inv / DI-Inv /
// SI+Inv / DI+Inv: #TO (timeouts + resource-outs), #Bugs, average number of
// procedures inlined on completed instances, and cumulative time split into
// bug / no-bug instances.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <cstdio>
#include <map>

using namespace rmt;
using namespace rmt::bench;

int main() {
  double Timeout = envTimeout(5);
  unsigned Count = envCount(24);

  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/2015, Count, /*BugFraction=*/110);
  std::vector<EngineConfig> Configs = standardConfigs();
  std::vector<RunRow> Rows = runCorpus(Corpus, Configs, Timeout);

  struct Agg {
    unsigned Timeouts = 0;
    unsigned Bugs = 0;
    size_t InlinedSum = 0;
    unsigned Finished = 0;
    double BugTime = 0;
    double NoBugTime = 0;
  };
  std::map<std::string, Agg> ByConfig;
  unsigned Disagreements = countDisagreements(Rows);

  for (const RunRow &Row : Rows) {
    Agg &A = ByConfig[Row.Config];
    switch (Row.Outcome) {
    case Verdict::Timeout:
    case Verdict::ResourceOut:
    case Verdict::Unknown:
      ++A.Timeouts;
      break;
    case Verdict::Bug:
      ++A.Bugs;
      ++A.Finished;
      A.InlinedSum += Row.Inlined;
      A.BugTime += Row.Seconds;
      break;
    case Verdict::Safe:
      ++A.Finished;
      A.InlinedSum += Row.Inlined;
      A.NoBugTime += Row.Seconds;
      break;
    }
  }

  std::printf("Fig. 12 — aggregate over %u SDV-like instances, timeout "
              "%.0fs\n\n",
              Count, Timeout);
  Table T({"Algorithm", "#TO", "#Bugs", "#Inlined(avg)", "Time bug(s)",
           "Time no-bug(s)"});
  for (const EngineConfig &C : Configs) {
    const Agg &A = ByConfig[C.Name];
    T.row();
    T.cell(C.Name);
    T.cell(static_cast<int64_t>(A.Timeouts));
    T.cell(static_cast<int64_t>(A.Bugs));
    T.cell(A.Finished ? static_cast<double>(A.InlinedSum) / A.Finished : 0.0,
           1);
    T.cell(A.BugTime, 1);
    T.cell(A.NoBugTime, 1);
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("verdict disagreements across configurations: %u (paper: "
              "always 0)\n",
              Disagreements);
  std::printf("Paper shape: DI has fewer timeouts, more bugs, ~3x fewer "
              "inlined instances and ~2x less time than SI; +Inv helps "
              "both.\n");
  return Disagreements == 0 ? 0 : 1;
}
