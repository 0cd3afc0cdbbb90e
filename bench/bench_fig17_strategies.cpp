//===- bench_fig17_strategies.cpp - Reproduces Fig. 17 ----------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Fig. 17: number of procedures inlined by the merging strategies when all
// dynamic instances must be inlined. Columns: full tree size, then DAG
// sizes under OPT / FIRST / MAXC / RANDOM / RANDOMPICK. The randomized
// strategies are averaged over five runs, as in the paper. The last row is
// each strategy's average deviation from OPT.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Strategies.h"
#include "support/Table.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

struct Prepared {
  AstContext Ctx;
  LoweredInstance Inst;
};

/// The driver as the verifier's front end lowers it at bound 1, without the
/// prepass.
std::unique_ptr<Prepared> prepare(const SdvParams &Params) {
  auto P = std::make_unique<Prepared>();
  Program Prog = makeSdvProgram(P->Ctx, Params);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.UsePrepass = false;
  VerifierRunResult Front;
  P->Inst = lowerInstance(P->Ctx, Prog, P->Ctx.sym("main"), Opts, Front);
  return P;
}

/// Fully inlines with \p Kind; returns #instances (0 on cap overflow =
/// the paper's T/O).
size_t inlinedSize(Prepared &P, MergeStrategyKind Kind, uint64_t Seed,
                   size_t Cap) {
  TermArena Arena;
  StrategyOptions Opts;
  Opts.Kind = Kind;
  Opts.Seed = Seed;
  Inliner In(P.Ctx, P.Inst.Cfg, P.Inst.Entry, Arena, Opts);
  return In.inlineAll(Cap) ? In.vc().numInlined() : 0;
}

size_t treeSize(const Prepared &P) {
  std::vector<ProcId> Work{P.Inst.Entry};
  size_t Count = 0;
  while (!Work.empty()) {
    ProcId Q = Work.back();
    Work.pop_back();
    ++Count;
    for (ProcId C : P.Inst.Cfg.calleesOf(Q))
      Work.push_back(C);
  }
  return Count;
}

std::string cell(size_t V) { return V ? std::to_string(V) : "T/O"; }

} // namespace

int main() {
  unsigned Count = envCount(10);
  size_t Cap = 400000;

  std::vector<SdvInstance> Corpus = makeSdvCorpus(/*Seed=*/17, Count,
                                                  /*BugFraction=*/0);

  std::printf("Fig. 17 — procedures inlined when everything must be "
              "inlined, per merging strategy (RANDOM/RANDOMPICK averaged "
              "over 5 seeds)\n\n");
  Table T({"Tree", "Opt", "First", "MaxC", "Random", "RandomPick"});

  double DevFirst = 0, DevMaxC = 0, DevRandom = 0, DevRandomPick = 0;
  unsigned Counted = 0;

  for (const SdvInstance &Inst : Corpus) {
    auto P = prepare(Inst.Params);
    size_t Tree = treeSize(*P);
    // The paper's OPT column is the size of Do, the minimum colouring of
    // the conflict graphs ("colour it with minimum colours possible").
    // Note this is a lower bound: an arbitrary colouring need not be
    // realizable as a deterministic-edge inlining DAG, so the greedy
    // strategies can legitimately sit somewhat above it.
    DisjointAnalysis Disj(P->Inst.Cfg);
    OptPrecomputeStats OptStats =
        precomputeOptDag(P->Inst.Cfg, Disj, P->Inst.Entry, Cap);
    size_t Opt = OptStats.Succeeded ? OptStats.DagSize : 0;
    size_t First = inlinedSize(*P, MergeStrategyKind::First, 1, Cap);
    size_t MaxC = inlinedSize(*P, MergeStrategyKind::MaxC, 1, Cap);
    auto Avg5 = [&](MergeStrategyKind Kind) -> size_t {
      size_t Sum = 0;
      for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
        size_t V = inlinedSize(*P, Kind, Seed, Cap);
        if (!V)
          return 0;
        Sum += V;
      }
      return Sum / 5;
    };
    size_t Random = Avg5(MergeStrategyKind::Random);
    size_t RandomPick = Avg5(MergeStrategyKind::RandomPick);

    std::fprintf(stderr, "  %-12s tree=%zu opt=%zu first=%zu\n",
                 Inst.Name.c_str(), Tree, Opt, First);
    T.row();
    T.cell(static_cast<uint64_t>(Tree));
    T.cell(cell(Opt));
    T.cell(cell(First));
    T.cell(cell(MaxC));
    T.cell(cell(Random));
    T.cell(cell(RandomPick));

    if (Opt && First && MaxC && Random && RandomPick) {
      ++Counted;
      auto Dev = [&](size_t V) {
        return 100.0 * (static_cast<double>(V) - Opt) / Opt;
      };
      DevFirst += Dev(First);
      DevMaxC += Dev(MaxC);
      DevRandom += Dev(Random);
      DevRandomPick += Dev(RandomPick);
    }
  }
  if (Counted) {
    T.row();
    T.cell(std::string("Dev:"));
    T.cell(std::string("-"));
    T.cell(DevFirst / Counted, 0);
    T.cell(DevMaxC / Counted, 0);
    T.cell(DevRandom / Counted, 0);
    T.cell(DevRandomPick / Counted, 0);
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("Paper shape: FIRST within ~8%% of OPT, MAXC close behind, "
              "RANDOM worst (129%%), RANDOMPICK in between (21%%).\n");
  return 0;
}
