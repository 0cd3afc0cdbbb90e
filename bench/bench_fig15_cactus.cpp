//===- bench_fig15_cactus.cpp - Reproduces Figs. 15 and 16 -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Figs. 15/16: cactus plots — for each technique, sort its per-instance
// solve times ascending and print the cumulative curve (x = number of
// instances solved, y = per-instance time budget needed). "DI solves more
// instances than SI irrespective of the timeout value chosen."
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

void cactus(const char *Title, const std::vector<RunRow> &Rows,
            const std::string &A, const std::string &B, double Timeout) {
  std::map<std::string, std::vector<const RunRow *>> Solved;
  for (const RunRow &Row : Rows)
    if ((Row.Config == A || Row.Config == B) && Row.decided())
      Solved[Row.Config].push_back(&Row);
  for (auto &[Config, Runs] : Solved)
    std::sort(Runs.begin(), Runs.end(),
              [](const RunRow *X, const RunRow *Y) {
                return X->Seconds < Y->Seconds;
              });

  std::printf("%s — time needed (s) to solve the first k instances, "
              "timeout %.0fs\n\n",
              Title, Timeout);
  size_t MaxSolved = std::max(Solved[A].size(), Solved[B].size());
  Table T({"k", A + "(s)", B + "(s)"});
  const RunRow Unsolved;
  for (size_t K = 1; K <= MaxSolved; ++K) {
    T.row();
    T.cell(static_cast<uint64_t>(K));
    for (const std::string &Config : {A, B}) {
      const auto &V = Solved[Config];
      T.cell((K <= V.size() ? *V[K - 1] : Unsolved).timeCell(2));
    }
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("instances solved: %s=%zu, %s=%zu\n\n", A.c_str(),
              Solved[A].size(), B.c_str(), Solved[B].size());
}

} // namespace

int main() {
  double Timeout = envTimeout(5);
  unsigned Count = envCount(20);
  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/123, Count, /*BugFraction=*/110);
  std::vector<RunRow> Rows = runCorpus(Corpus, standardConfigs(), Timeout);

  cactus("Fig. 15 — cactus SI+Inv vs DI+Inv", Rows, "SI+Inv", "DI+Inv",
         Timeout);
  cactus("Fig. 16 — cactus SI-Inv vs DI-Inv", Rows, "SI-Inv", "DI-Inv",
         Timeout);
  std::printf("Paper shape: the DI curve dominates (more instances solved "
              "at every timeout).\n");
  return 0;
}
