//===- bench_fig13_scatter.cpp - Reproduces Figs. 13 and 14 ----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Figs. 13/14: per-instance scatter of SI vs DI running time, with (Fig. 13)
// and without (Fig. 14) invariants. Each row is one point (x = SI seconds,
// y = DI seconds); timeouts sit on the T/O line. We also report the
// speedup-distribution summaries quoted in Section 4 ("DI+Inv was an order
// of magnitude faster on 5% of the instances ... 5x faster on 14%").
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace rmt;
using namespace rmt::bench;

namespace {

void scatter(const char *Title, const std::vector<RunRow> &Rows,
             const std::string &XConfig, const std::string &YConfig,
             double Timeout) {
  std::map<std::string, std::pair<const RunRow *, const RunRow *>> Points;
  for (const RunRow &Row : Rows) {
    if (Row.Config == XConfig)
      Points[Row.Instance].first = &Row;
    else if (Row.Config == YConfig)
      Points[Row.Instance].second = &Row;
  }

  std::printf("%s — one point per instance (x=%s, y=%s), timeout %.0fs\n\n",
              Title, XConfig.c_str(), YConfig.c_str(), Timeout);
  Table T({"instance", XConfig + "(s)", YConfig + "(s)", "speedup"});
  unsigned Both = 0, Faster5x = 0, Faster10x = 0;
  for (const auto &[Name, PR] : Points) {
    if (!PR.first || !PR.second)
      continue;
    T.row();
    T.cell(Name);
    T.cell(PR.first->timeCell(2));
    T.cell(PR.second->timeCell(2));
    if (PR.first->decided() && PR.second->decided()) {
      ++Both;
      double Speedup = PR.second->Seconds > 0
                           ? PR.first->Seconds / PR.second->Seconds
                           : 0;
      if (Speedup >= 5)
        ++Faster5x;
      if (Speedup >= 10)
        ++Faster10x;
      T.cell(Speedup, 2);
    } else {
      T.cell(std::string("-"));
    }
  }
  std::printf("%s\n", T.str().c_str());
  if (Both) {
    std::printf("on instances both finished: %s >=5x faster on %.0f%%, "
                ">=10x faster on %.0f%% (paper: 14%% and 5%% for +Inv)\n\n",
                YConfig.c_str(), 100.0 * Faster5x / Both,
                100.0 * Faster10x / Both);
  }
}

} // namespace

int main() {
  double Timeout = envTimeout(5);
  unsigned Count = envCount(20);
  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/77, Count, /*BugFraction=*/110);
  std::vector<RunRow> Rows = runCorpus(Corpus, standardConfigs(), Timeout);

  scatter("Fig. 13 — scatter SI+Inv vs DI+Inv", Rows, "SI+Inv", "DI+Inv",
          Timeout);
  scatter("Fig. 14 — scatter SI-Inv vs DI-Inv", Rows, "SI-Inv", "DI-Inv",
          Timeout);
  std::printf("Paper shape: the mass of points sits below the diagonal "
              "(DI faster), with some instances above it (heuristic, "
              "footnote 1).\n");
  return 0;
}
