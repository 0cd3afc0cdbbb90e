//===- bench_fig4_sizes.cpp - Reproduces Fig. 4 -----------------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Fig. 4: number of procedures inlined by full tree inlining vs full DAG
// inlining across the benchmark corpus (log-scale Y in the paper; DAG
// compression of up to ~200x). We fully inline each SDV-like instance with
// strategy NONE (tree) and FIRST (DAG) and report both sizes sorted by tree
// size, plus the compression statistics.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

/// Runs the verifier's front end on \p Params, then fully inlines with
/// \p Kind. A result above \p MaxInlined means the cap hit.
size_t fullyInlinedSize(const SdvParams &Params, MergeStrategyKind Kind,
                        size_t MaxInlined) {
  AstContext Ctx;
  Program P = makeSdvProgram(Ctx, Params);
  EngineConfig Config = makeConfig(strategyName(Kind), Kind);
  VerifierRunResult Front;
  LoweredInstance L =
      lowerInstance(Ctx, P, Ctx.sym("main"), Config.Opts, Front);
  TermArena Arena;
  Inliner In(Ctx, L.Cfg, L.Entry, Arena, Config.Opts.Engine.Strategy);
  In.inlineAll(MaxInlined);
  return In.vc().numInlined();
}

} // namespace

int main() {
  unsigned Count = envCount(30);
  size_t Cap = 300000;

  std::vector<SdvInstance> Corpus = makeSdvCorpus(/*Seed=*/41, Count,
                                                  /*BugFraction=*/0);

  struct Sizes {
    std::string Name;
    size_t Tree;
    size_t Dag;
  };
  std::vector<Sizes> Rows;
  for (const SdvInstance &Inst : Corpus) {
    Sizes S;
    S.Name = Inst.Name;
    S.Tree = fullyInlinedSize(Inst.Params, MergeStrategyKind::None, Cap);
    S.Dag = fullyInlinedSize(Inst.Params, MergeStrategyKind::First, Cap);
    std::fprintf(stderr, "  %-12s tree=%zu dag=%zu\n", S.Name.c_str(),
                 S.Tree, S.Dag);
    Rows.push_back(std::move(S));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const Sizes &A, const Sizes &B) { return A.Tree < B.Tree; });

  std::printf("Fig. 4 — procedures inlined: full tree vs full DAG "
              "(instances sorted by tree size; >= %zu means the tree hit "
              "the instance cap)\n\n",
              Cap);
  Table T({"benchmark", "tree", "dag", "compression"});
  double MaxRatio = 0, SumRatio = 0;
  for (const Sizes &S : Rows) {
    double Ratio = S.Dag ? static_cast<double>(S.Tree) / S.Dag : 0;
    MaxRatio = std::max(MaxRatio, Ratio);
    SumRatio += Ratio;
    T.row();
    T.cell(S.Name);
    T.cell(static_cast<uint64_t>(S.Tree));
    T.cell(static_cast<uint64_t>(S.Dag));
    T.cell(Ratio, 1);
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("mean compression %.1fx, max compression %.1fx over %zu "
              "instances\n",
              Rows.empty() ? 0 : SumRatio / Rows.size(), MaxRatio,
              Rows.size());
  std::printf("Paper shape: tree sizes reach millions while DAG sizes stay "
              "in the hundreds/thousands (up to ~200x compression).\n");
  return 0;
}
