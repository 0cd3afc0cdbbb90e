//===- bench_merge_overhead.cpp - Section 4's merge-lookup overhead ---------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Section 4: "We also measured the total time spent inside the routine that
// looks for a candidate to merge ... it is 0.4% of the total time taken by
// DI. This implies that one can invest in more aggressive merging
// techniques without adding an overhead." This bench reports, per instance
// and aggregated: total DI time, time inside strategy picks, and the number
// of Disj_blk lookups.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

int main() {
  double Timeout = envTimeout(5);
  unsigned Count = envCount(12);

  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/99, Count, /*BugFraction=*/110);

  std::printf("Merge-candidate lookup overhead inside DI (paper: 0.4%% of "
              "total time)\n\n");
  Table T({"instance", "verdict", "total(s)", "lookup(s)", "overhead%"});
  double TotalAll = 0, LookupAll = 0;
  EngineConfig DI = makeConfig("DI-Inv", MergeStrategyKind::First);
  for (const SdvInstance &Inst : Corpus) {
    RunRow Row = runInstance(Inst.Name, sdvMaker(Inst.Params), DI, Timeout);
    TotalAll += Row.Seconds;
    LookupAll += Row.MergeLookupSeconds;
    T.row();
    T.cell(Inst.Name);
    T.cell(std::string(verdictName(Row.Outcome)));
    T.cell(Row.Seconds, 3);
    T.cell(Row.MergeLookupSeconds, 4);
    T.cell(Row.Seconds > 0 ? 100.0 * Row.MergeLookupSeconds / Row.Seconds
                           : 0.0,
           2);
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("aggregate: %.3fs total, %.4fs in merge lookup = %.2f%% "
              "(paper: 0.4%%)\n",
              TotalAll, LookupAll,
              TotalAll > 0 ? 100.0 * LookupAll / TotalAll : 0.0);
  return 0;
}
