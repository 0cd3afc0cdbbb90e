//===- verifier_test.cpp - Facade: iterative deepening, DOT export ----------===//

#include "cfg/Lower.h"
#include "core/DotExport.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "transform/Transforms.h"
#include "workload/Chain.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

std::optional<Program> parseOk(const char *Src, AstContext &Ctx) {
  DiagEngine Diags;
  auto P = parseAndCheck(Src, Ctx, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return P;
}

const char *DeepBugSrc = R"(
  var total: int;
  procedure main() {
    var i: int;
    i := 0;
    total := 0;
    while (i < 5) { i := i + 1; total := total + 2; }
    assert total != 10;   // needs 5 iterations to refute
  }
)";

} // namespace

//===----------------------------------------------------------------------===//
// Prepass configuration
//===----------------------------------------------------------------------===//

TEST(VerifierPrepass, InvariantsWithoutPrepassRunThroughThePipeline) {
  // --no-prepass --inv is the one-pass spec `inv`: it is timed like any
  // pass, and the engine solves the program with the injected labels.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 3, /*Buggy=*/false);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.UsePrepass = false;
  Opts.UseInvariants = true;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_TRUE(R.Prepass.ok());
  EXPECT_GT(R.InvariantConjuncts, 0u);
  EXPECT_GT(R.NumLabelsSolved, R.NumLabels);
  EXPECT_EQ(R.Prepass.LabelsAfter, R.NumLabelsSolved);
  EXPECT_EQ(R.PrepassStats.get("pass.inv.runs"), 1);
  EXPECT_EQ(R.PrepassStats.get("pass.gvn.runs"), 0);
}

//===----------------------------------------------------------------------===//
// Iterative deepening
//===----------------------------------------------------------------------===//

TEST(Deepening, EscalatesToTheBugBound) {
  AstContext Ctx;
  auto P = parseOk(DeepBugSrc, Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  Opts.Engine.TimeoutSeconds = 120;
  DeepeningResult R =
      verifyIterativeDeepening(Ctx, *P, Ctx.sym("main"), Opts, 16);
  EXPECT_EQ(R.Last.Result.Outcome, Verdict::Bug);
  // Ladder 1, 2, 4, 8: the bug needs >= 5 iterations, so it lands at 8.
  std::vector<unsigned> Expected = {1, 2, 4, 8};
  EXPECT_EQ(R.BoundsTried, Expected);
  EXPECT_EQ(R.ReachedBound, 8u);
}

TEST(Deepening, SafeUpToMaxBound) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      var i: int;
      i := 0;
      g := 0;
      while (i < 3) { i := i + 1; g := g + 1; }
      assert g <= 3;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  Opts.Engine.TimeoutSeconds = 120;
  DeepeningResult R =
      verifyIterativeDeepening(Ctx, *P, Ctx.sym("main"), Opts, 6);
  EXPECT_EQ(R.Last.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(R.ReachedBound, 6u);
  std::vector<unsigned> Expected = {1, 2, 4, 6}; // clamped to MaxBound
  EXPECT_EQ(R.BoundsTried, Expected);
}

TEST(Deepening, SharedBudgetTimesOut) {
  AstContext Ctx;
  auto P = parseOk(DeepBugSrc, Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::None;
  Opts.Engine.TimeoutSeconds = 0.05;
  Stopwatch W;
  DeepeningResult R =
      verifyIterativeDeepening(Ctx, *P, Ctx.sym("main"), Opts, 64);
  EXPECT_EQ(R.Last.Result.Outcome, Verdict::Timeout);
  EXPECT_LT(W.seconds(), 30.0);
}

//===----------------------------------------------------------------------===//
// DOT export
//===----------------------------------------------------------------------===//

namespace {

/// A program's inlining DAG under FIRST, holding only the root until
/// inlineAll.
struct DagFixture {
  AstContext Ctx;
  CfgProgram Cfg;
  TermArena Arena;
  std::unique_ptr<Inliner> In;

  explicit DagFixture(const char *Src) {
    DiagEngine Diags;
    auto P = parseAndCheck(Src, Ctx, Diags);
    EXPECT_TRUE(P) << Diags.str();
    BoundedInstance B = prepareBounded(Ctx, *P, Ctx.sym("main"), 1);
    Cfg = lowerToCfg(Ctx, B.Prog);
    In = std::make_unique<Inliner>(Ctx, Cfg, Cfg.findProc(Ctx.sym("main")),
                                   Arena, StrategyOptions());
  }
};

const char *Fig1Src = R"(
  var g: int;
  procedure foo() { g := g + 1; }
  procedure bar() { call foo(); }
  procedure baz() { call foo(); }
  procedure main() {
    g := 0;
    if (*) { call bar(); } else { call baz(); }
    assert g == 1;
  }
)";

} // namespace

TEST(DotExport, InliningDagShowsMergedFoo) {
  DagFixture F(Fig1Src);
  EXPECT_TRUE(F.In->inlineAll(100));
  std::string Dot = inliningDagToDot(F.Ctx, F.In->vc());
  EXPECT_NE(Dot.find("digraph inlining_dag"), std::string::npos);
  EXPECT_NE(Dot.find("foo"), std::string::npos);
  // The shared foo instance (two parents) is highlighted.
  EXPECT_NE(Dot.find("fillcolor=lightblue"), std::string::npos);
  // Balanced braces, no open-edge stubs after full inlining.
  EXPECT_EQ(Dot.find("style=dashed"), std::string::npos);
}

TEST(DotExport, OpenEdgesRenderedDashed) {
  DagFixture F(Fig1Src);
  std::string Dot = inliningDagToDot(F.Ctx, F.In->vc());
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("open: "), std::string::npos);
}

TEST(DotExport, CallGraphWithMultiplicity) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure f() { }
    procedure main() { call f(); call f(); }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  CfgProgram Cfg = lowerToCfg(Ctx, *P);
  std::string Dot = callGraphToDot(Ctx, Cfg);
  EXPECT_NE(Dot.find("digraph call_graph"), std::string::npos);
  EXPECT_NE(Dot.find("x2"), std::string::npos); // two call sites
}

TEST(DotExport, CfgRendersLabelsAndExits) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() { if (*) { g := 1; } else { g := 2; } }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  CfgProgram Cfg = lowerToCfg(Ctx, *P);
  std::string Dot = cfgToDot(Ctx, Cfg, 0);
  EXPECT_NE(Dot.find("g := 1"), std::string::npos);
  EXPECT_NE(Dot.find("peripheries=2"), std::string::npos); // exit label
  EXPECT_NE(Dot.find("style=bold"), std::string::npos);    // entry label
}
