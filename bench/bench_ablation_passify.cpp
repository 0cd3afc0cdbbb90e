//===- bench_ablation_passify.cpp - pVC-generation ablation -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// DESIGN.md ablation: the paper's Gen_pVC (Fig. 8) mints two constants per
// (label, variable) and frame equalities per statement; production VC
// generators (Boogie) passify first. This bench runs DI with both pVC modes
// over the corpus and reports constants minted, clauses, and solve time —
// quantifying how much of the observed running time is the literal
// formulation rather than DAG inlining itself.
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
      makeSdvCorpus(/*Seed=*/314, Count, /*BugFraction=*/110);

  std::printf("Ablation — DI with the paper's literal Gen_pVC vs the "
              "passified pVC generator (timeout %.0fs)\n\n",
              Timeout);
  Table T({"instance", "paper(s)", "passified(s)", "speedup", "verdicts"});
  EngineConfig Configs[2] = {makeConfig("paper", MergeStrategyKind::First),
                             makeConfig("passified", MergeStrategyKind::First)};
  // Set both modes explicitly: the engines default to the passified pVC.
  Configs[0].Opts.Engine.Pvc = PvcMode::Paper;
  Configs[1].Opts.Engine.Pvc = PvcMode::Passified;
  unsigned Solved[2] = {0, 0};
  double Time[2] = {0, 0};
  std::vector<RunRow> Rows;
  for (const SdvInstance &Inst : Corpus) {
    RunRow Run[2];
    for (unsigned I = 0; I < 2; ++I) {
      Run[I] =
          runInstance(Inst.Name, sdvMaker(Inst.Params), Configs[I], Timeout);
      if (Run[I].decided()) {
        ++Solved[I];
        Time[I] += Run[I].Seconds;
      }
      Rows.push_back(Run[I]);
    }
    const RunRow &Paper = Run[0], &Pass = Run[1];
    std::fprintf(stderr, "  %-12s paper=%s passified=%s\n",
                 Inst.Name.c_str(), Paper.timeCell(2).c_str(),
                 Pass.timeCell(2).c_str());
    T.row();
    T.cell(Inst.Name);
    T.cell(Paper.timeCell(2));
    T.cell(Pass.timeCell(2));
    if (Paper.decided() && Pass.decided() && Pass.Seconds > 0)
      T.cell(Paper.Seconds / Pass.Seconds, 2);
    else
      T.cell(std::string("-"));
    T.cell(std::string(verdictName(Paper.Outcome)) + "/" +
           verdictName(Pass.Outcome));
  }
  std::printf("%s\n", T.str().c_str());
  unsigned Mismatch = countDisagreements(Rows);
  std::printf("solved: paper=%u (%.1fs), passified=%u (%.1fs); verdict "
              "mismatches: %u (must be 0)\n",
              Solved[0], Time[0], Solved[1], Time[1], Mismatch);
  return Mismatch == 0 ? 0 : 1;
}
