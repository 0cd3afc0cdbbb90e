//===- strategies_test.cpp - Merging strategies (Section 3.4) ---------------===//

#include "TestSupport.h"
#include "core/Engine.h"
#include "workload/Chain.h"
#include "workload/SdvGen.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

/// Fully inlines from \p Root (the Fig. 17 regime: "keep inlining until
/// all dynamic instances get inlined") and checks the DAG is consistent
/// (Def. 2). Returns #nodes.
size_t fullyInline(const AstContext &Ctx, const CfgProgram &Cfg, ProcId Root,
                   const StrategyOptions &Opts) {
  TermArena Arena;
  Inliner In(Ctx, Cfg, Root, Arena, Opts);
  EXPECT_TRUE(In.inlineAll(1u << 20));
  EXPECT_TRUE(In.checker().isConsistentFull());
  return In.vc().numInlined();
}

struct ChainFixture {
  AstContext Ctx;
  CfgProgram Cfg;
  ProcId Root = InvalidProc;
  Symbol ErrVar;

  explicit ChainFixture(unsigned N) {
    Cfg = lower(Ctx, makeChainProgram(Ctx, N), Root, ErrVar, 1);
  }
};

size_t fullTreeSize(const CfgProgram &Cfg, ProcId Root) {
  // #instances of the fully unrolled call tree.
  std::vector<ProcId> Work{Root};
  size_t Count = 0;
  while (!Work.empty()) {
    ProcId P = Work.back();
    Work.pop_back();
    ++Count;
    for (ProcId C : Cfg.calleesOf(P))
      Work.push_back(C);
  }
  return Count;
}

} // namespace

TEST(StrategyKinds, ParseAndNames) {
  EXPECT_EQ(parseStrategyKind("first"), MergeStrategyKind::First);
  EXPECT_EQ(parseStrategyKind("opt"), MergeStrategyKind::Opt);
  EXPECT_EQ(parseStrategyKind("nope"), std::nullopt);
  EXPECT_STREQ(strategyName(MergeStrategyKind::MaxC), "maxc");
  EXPECT_STREQ(strategyName(MergeStrategyKind::RandomPick), "randompick");
}

TEST(NoneStrategy, ProducesTheFullTree) {
  ChainFixture F(4);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::None;
  // A single merge would leave fewer nodes than the tree has.
  EXPECT_EQ(fullyInline(F.Ctx, F.Cfg, F.Root, Opts),
            fullTreeSize(F.Cfg, F.Root));
}

TEST(FirstStrategy, ChainCompressesToLinear) {
  // Fig. 2 / Fig. 3: tree is 2^(N+2)-1-ish, the DAG is N+2 nodes.
  ChainFixture F(6);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::First;
  size_t Nodes = fullyInline(F.Ctx, F.Cfg, F.Root, Opts);
  EXPECT_EQ(Nodes, 8u); // main, P0..P6
  EXPECT_GT(fullTreeSize(F.Cfg, F.Root), 100u);
}

TEST(MaxCStrategy, AlsoLinearOnChain) {
  ChainFixture F(6);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::MaxC;
  EXPECT_EQ(fullyInline(F.Ctx, F.Cfg, F.Root, Opts), 8u);
}

TEST(OptStrategy, MatchesFirstOnChain) {
  ChainFixture F(5);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::Opt;
  EXPECT_EQ(fullyInline(F.Ctx, F.Cfg, F.Root, Opts), 7u);
}

TEST(OptStrategy, PrecomputeSizesOnChain) {
  ChainFixture F(5);
  DisjointAnalysis Disj(F.Cfg);
  OptPrecomputeStats S = precomputeOptDag(F.Cfg, Disj, F.Root, 1u << 20);
  EXPECT_TRUE(S.Succeeded);
  EXPECT_EQ(S.TreeSize, fullTreeSize(F.Cfg, F.Root));
  EXPECT_EQ(S.DagSize, 7u);
}

TEST(OptStrategy, OverflowFallsBackGracefully) {
  ChainFixture F(10);
  DisjointAnalysis Disj(F.Cfg);
  OptPrecomputeStats S = precomputeOptDag(F.Cfg, Disj, F.Root, 100);
  EXPECT_FALSE(S.Succeeded); // the paper's OPT T/O row
  // The strategy still works (FIRST fallback).
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::Opt;
  Opts.MaxTreeNodes = 100;
  EXPECT_EQ(fullyInline(F.Ctx, F.Cfg, F.Root, Opts), 12u);
}

TEST(RandomStrategies, ValidAndDeterministicPerSeed) {
  for (MergeStrategyKind Kind :
       {MergeStrategyKind::Random, MergeStrategyKind::RandomPick}) {
    size_t First = 0;
    for (int Round = 0; Round < 2; ++Round) {
      ChainFixture F(5);
      StrategyOptions Opts;
      Opts.Kind = Kind;
      Opts.Seed = 99;
      size_t Nodes = fullyInline(F.Ctx, F.Cfg, F.Root, Opts);
      if (Round == 0)
        First = Nodes;
      else
        EXPECT_EQ(Nodes, First) << strategyName(Kind);
    }
  }
}

TEST(RandomPick, NeverWorseThanTreeNeverBetterThanOpt) {
  ChainFixture F(5);
  DisjointAnalysis Disj(F.Cfg);
  OptPrecomputeStats Opt = precomputeOptDag(F.Cfg, Disj, F.Root, 1u << 20);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::RandomPick;
  Opts.Seed = 5;
  size_t Nodes = fullyInline(F.Ctx, F.Cfg, F.Root, Opts);
  EXPECT_LE(Nodes, Opt.TreeSize);
  EXPECT_GE(Nodes, Opt.DagSize);
}

TEST(StrategyOrdering, PaperFig17ShapeOnDriver) {
  // On an SDV-like instance: none (tree) >= random >= randompick >= first,
  // and first is within a small factor of opt. (The exact paper deviations
  // are corpus-dependent; the ordering is the reproducible shape.)
  AstContext Ctx;
  SdvParams Params;
  Params.Seed = 7;
  Params.NumHandlers = 3;
  Params.NumUtils = 3;
  Params.UtilDepth = 4;
  ProcId Root = InvalidProc;
  Symbol ErrVar;
  CfgProgram Cfg = lower(Ctx, makeSdvProgram(Ctx, Params), Root, ErrVar, 1);

  auto SizeWith = [&](MergeStrategyKind Kind) {
    StrategyOptions Opts;
    Opts.Kind = Kind;
    Opts.Seed = 3;
    return fullyInline(Ctx, Cfg, Root, Opts);
  };

  size_t Tree = SizeWith(MergeStrategyKind::None);
  size_t First = SizeWith(MergeStrategyKind::First);
  size_t Rand = SizeWith(MergeStrategyKind::RandomPick);
  size_t Opt = SizeWith(MergeStrategyKind::Opt);

  EXPECT_GT(Tree, First);
  EXPECT_LE(Opt, First * 2); // first stays close to opt
  EXPECT_LE(First, Rand * 2 + 8);
  EXPECT_LE(Rand, Tree);
}

TEST(Inliner, InlineAllStopsPastTheNodeCap) {
  ChainFixture F(5);
  StrategyOptions Opts;
  Opts.Kind = MergeStrategyKind::None;
  EXPECT_EQ(fullyInline(F.Ctx, F.Cfg, F.Root, Opts), 127u);

  TermArena Arena;
  Inliner In(F.Ctx, F.Cfg, F.Root, Arena, Opts);
  EXPECT_FALSE(In.inlineAll(100));
  EXPECT_EQ(In.vc().numInlined(), 101u);
  EXPECT_FALSE(In.vc().openEdges().empty());
}

TEST(Inliner, ResolveReportsMerges) {
  // examples/programs/fig1_sharing.hbpl: foo is reached through bar or
  // baz, never both, so FIRST binds the second foo call to the first.
  const char *Src = R"(
    var g: int;
    procedure main() {
      g := 0;
      if (*) { call bar(); } else { call baz(); }
      assert g >= 1 && g <= 3;
    }
    procedure bar() { g := g + 1; call foo(); }
    procedure baz() { g := g + 2; call foo(); }
    procedure foo() { g := g + 1; }
  )";
  Lowered F(Src, 1);
  ASSERT_TRUE(F);
  ProcId Foo = F.Cfg.findProc(F.Ctx.sym("foo"));

  for (MergeStrategyKind Kind :
       {MergeStrategyKind::First, MergeStrategyKind::None}) {
    StrategyOptions Opts;
    Opts.Kind = Kind;
    TermArena Arena;
    Inliner In(F.Ctx, F.Cfg, F.Root, Arena, Opts);
    std::vector<Inliner::Binding> FooBindings;
    while (!In.vc().openEdges().empty()) {
      EdgeId E = In.vc().openEdges().front();
      bool ToFoo = In.vc().edge(E).Callee == Foo;
      Inliner::Binding Bound = In.resolve(E);
      EXPECT_EQ(In.vc().edge(E).Dest, Bound.Node);
      if (ToFoo)
        FooBindings.push_back(Bound);
      else
        EXPECT_FALSE(Bound.Merged) << strategyName(Kind);
    }
    ASSERT_EQ(FooBindings.size(), 2u);
    EXPECT_FALSE(FooBindings[0].Merged);
    if (Kind == MergeStrategyKind::First) {
      EXPECT_TRUE(FooBindings[1].Merged);
      EXPECT_EQ(FooBindings[1].Node, FooBindings[0].Node);
      EXPECT_GT(FooBindings[1].DisjQueries, 0u);
    } else {
      EXPECT_FALSE(FooBindings[1].Merged);
    }
    EXPECT_TRUE(In.checker().isConsistentFull());
  }
}
