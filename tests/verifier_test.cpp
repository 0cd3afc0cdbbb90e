//===- verifier_test.cpp - Facade: iterative deepening, DOT export ----------===//

#include "TestSupport.h"
#include "core/DotExport.h"
#include "support/Trace.h"
#include "workload/Chain.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

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

TEST(Verifier, LowerInstanceIsWhatTheEngineSolves) {
  // The front end alone yields the program verifyProgram hands the engine,
  // with the default prepass and with +Inv.
  for (bool Inv : {false, true}) {
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 4);
    VerifierOptions Opts;
    Opts.Bound = 1;
    Opts.Prepass.Invariants = Inv;
    VerifierRunResult Front;
    LoweredInstance L = lowerInstance(Ctx, P, Ctx.sym("main"), Opts, Front);
    ASSERT_TRUE(Front.Prepass.ok());
    VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Verdict::Safe) << "inv=" << Inv;
    EXPECT_EQ(L.Cfg.Labels.size(), R.NumLabelsSolved) << "inv=" << Inv;
    EXPECT_EQ(Front.NumLabelsSolved, R.NumLabelsSolved) << "inv=" << Inv;
  }

  // A front-end refusal leaves a program that must not be solved.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 4);
  VerifierOptions Opts;
  Opts.Bound = 1;
  VerifierRunResult Front;
  lowerInstance(Ctx, P, Ctx.sym("nosuch"), Opts, Front);
  EXPECT_FALSE(Front.Prepass.ok());
  EXPECT_EQ(verifyProgram(Ctx, P, Ctx.sym("nosuch"), Opts).Result.Outcome,
            Verdict::Unknown);
}

TEST(VerifierPrepass, NoPrepassRunsNoPassUnderDefaultInvariants) {
  // UsePrepass = false leaves the program exactly as lowered, `inv`
  // included, even though +Inv is the default.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 3, /*Buggy=*/true);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.UsePrepass = false;
  ASSERT_TRUE(Opts.Prepass.Invariants);
  VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
  EXPECT_EQ(R.NumLabelsSolved, R.NumLabels);
  EXPECT_EQ(R.Prepass.InvariantConjuncts, 0u);
  EXPECT_TRUE(R.PrepassStats.counters().empty());

  // Forcing +Inv does not bring back a prepass that is off.
  Opts.UseInvariants = true;
  R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
  EXPECT_EQ(R.NumLabelsSolved, R.NumLabels);
  EXPECT_TRUE(R.PrepassStats.counters().empty());
}

TEST(Verifier, TimeBudgetCoversTheFrontEnd) {
  // Bounding, lowering and the prepass run on the verdict's clock: a budget
  // they spend ends the run as a Timeout before any solver check.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 12);
  Trace T;
  T.setEnabled(true);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.TimeoutSeconds = 1e-9;
  Opts.Telemetry = &T;
  VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Timeout);
  EXPECT_EQ(R.Result.Reason, "time budget exhausted");
  EXPECT_EQ(R.Result.NumSolverChecks, 0u);
  EXPECT_EQ(R.PrepassStats.get("pass.inv.runs"), 1); // the front end ran
  EXPECT_GT(R.Result.Seconds, 0.0);
  // The engine never started: no solver was created.
  for (size_t I = 0; I < T.numEvents(); ++I)
    EXPECT_NE(T.event(I).Name, "engine.run");

  // A budget the front end leaves room in reaches a verdict.
  Opts.Telemetry = nullptr;
  Opts.Engine.TimeoutSeconds = 60;
  EXPECT_EQ(verifyProgram(Ctx, P, Ctx.sym("main"), Opts).Result.Outcome,
            Verdict::Safe);
}

TEST(Verifier, InvariantProofSkipsTheEngine) {
  // On the safe chain the root's interval exit summary pins $err to false,
  // so the verdict is Safe with no engine run: no solver context, no check,
  // no instance. Without +Inv (either way off) the engine decides it.
  auto Run = [](bool Buggy, bool Inv, bool Prepass, bool &RanEngine) {
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 8, Buggy);
    Trace T;
    T.setEnabled(true);
    VerifierOptions Opts;
    Opts.Bound = 1;
    Opts.Prepass.Invariants = Inv;
    Opts.UsePrepass = Prepass;
    Opts.Telemetry = &T;
    VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    RanEngine = false;
    for (size_t I = 0; I < T.numEvents(); ++I)
      RanEngine |= T.event(I).Name == "engine.run";
    return R;
  };
  bool RanEngine = true;
  VerifierRunResult Proved = Run(false, true, true, RanEngine);
  EXPECT_EQ(Proved.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(Proved.Result.Proof, "invariants");
  EXPECT_TRUE(Proved.Prepass.InvariantsProveQuery);
  EXPECT_EQ(Proved.Result.NumSolverChecks, 0u);
  EXPECT_EQ(Proved.Result.NumInlined, 0u);
  EXPECT_EQ(Proved.Result.NumIterations, 0u);
  EXPECT_FALSE(RanEngine);

  for (auto [Inv, Prepass] : {std::pair{false, true}, std::pair{true, false}}) {
    SCOPED_TRACE(Inv ? "--no-prepass" : "--no-inv");
    VerifierRunResult R = Run(false, Inv, Prepass, RanEngine);
    EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
    EXPECT_NE(R.Result.Proof, "invariants");
    EXPECT_FALSE(R.Prepass.InvariantsProveQuery);
    EXPECT_GT(R.Result.NumSolverChecks, 0u);
    EXPECT_TRUE(RanEngine);
  }

  // The buggy chain is not proved: the engine finds the bug.
  VerifierRunResult Bug = Run(true, true, true, RanEngine);
  EXPECT_EQ(Bug.Result.Outcome, Verdict::Bug);
  EXPECT_FALSE(Bug.Prepass.InvariantsProveQuery);
  EXPECT_TRUE(Bug.Result.Proof.empty());
  EXPECT_TRUE(RanEngine);
}

TEST(Verifier, BoundZeroIsRefusedAsUnknown) {
  // Unfolding keeps no copy of a recursive procedure at bound 0, so there is
  // no program to lower: the front end reports an error instead.
  const char *Src = R"(
    procedure down(n: int) returns (r: int) {
      if (n <= 0) { r := 0; } else { call r := down(n - 1); }
    }
    procedure main() {
      var r: int;
      call r := down(3);
      assert r == 0;
    }
  )";
  AstContext Ctx;
  auto P = parseOk(Src, Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  Opts.Bound = 0;
  VerifierRunResult Front;
  lowerInstance(Ctx, *P, Ctx.sym("main"), Opts, Front);
  ASSERT_EQ(Front.Prepass.PipelineErrors.size(), 1u);
  EXPECT_EQ(Front.Prepass.PipelineErrors[0], "bound must be at least 1");
  VerifyResult Refused = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts).Result;
  EXPECT_EQ(Refused.Outcome, Verdict::Unknown);
  EXPECT_EQ(Refused.Reason, "prepass: bound must be at least 1");
  Opts.Bound = 1;
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), Opts).Result.Outcome,
            Verdict::Safe);
}

TEST(Verifier, UnknownEntryIsRefusedAsUnknown) {
  // An entry the program does not define has nothing to bound or lower:
  // the front end refuses it like bound 0, before any pass runs.
  AstContext Ctx;
  auto P = parseOk("procedure main() { assert true; }", Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  VerifierRunResult Front;
  LoweredInstance L = lowerInstance(Ctx, *P, Ctx.sym("nosuch"), Opts, Front);
  ASSERT_EQ(Front.Prepass.PipelineErrors.size(), 1u);
  EXPECT_EQ(Front.Prepass.PipelineErrors[0], "no procedure named 'nosuch'");
  EXPECT_TRUE(L.Cfg.Procs.empty());
  EXPECT_EQ(L.Entry, InvalidProc);
  VerifierRunResult R = verifyProgram(Ctx, *P, Ctx.sym("nosuch"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Unknown);
  EXPECT_EQ(R.Result.Reason, "prepass: no procedure named 'nosuch'");
  EXPECT_TRUE(R.PrepassStats.counters().empty());
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), Opts).Result.Outcome,
            Verdict::Safe);
}

TEST(Verifier, UnreachedFailingAssertIsSafe) {
  // Reachability is asked of the entry: a failing assert in a procedure it
  // never calls is no bug, and is one when that procedure is the entry.
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure unused() { assert false; }
    procedure main() { assert true; }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  VerifierRunResult Main = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
  EXPECT_EQ(Main.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(Main.NumAsserts, 1u);
  EXPECT_EQ(Main.NumProcsUnreached, 1u);
  EXPECT_EQ(Main.NumProcs, 1u);
  VerifierRunResult Unused = verifyProgram(Ctx, *P, Ctx.sym("unused"), Opts);
  EXPECT_EQ(Unused.Result.Outcome, Verdict::Bug);
  EXPECT_EQ(Unused.NumProcsUnreached, 1u);
  Opts.UsePrepass = false;
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), Opts).Result.Outcome,
            Verdict::Safe);
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
  // Safe at every bound, but at bound R the recursion reaches depth R on
  // 2^R paths, and tree inlining must close every one of them: bound 16
  // alone needs 65536 instances. g == h is relational, so the intervals
  // cannot prove it and every bound runs the engine. So the ladder cannot
  // reach its top within the one budget on any host, and that budget must
  // end it.
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    var h: int;
    procedure step() {
      g := g + 1;
      h := h + 1;
      if (*) {
        if (*) { call step(); } else { call step(); }
      }
    }
    procedure main() {
      g := 0;
      h := 0;
      call step();
      assert g == h;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::None;
  Opts.Engine.TimeoutSeconds = 0.05;
  Stopwatch W;
  DeepeningResult R =
      verifyIterativeDeepening(Ctx, *P, Ctx.sym("main"), Opts, 64);
  EXPECT_EQ(R.Last.Result.Outcome, Verdict::Timeout);
  EXPECT_LT(R.BoundsTried.back(), 64u);
  EXPECT_LT(W.seconds(), 30.0);
}

//===----------------------------------------------------------------------===//
// DOT export
//===----------------------------------------------------------------------===//

namespace {

/// A program's inlining DAG under FIRST, holding only the root until
/// inlineAll.
struct DagFixture : Lowered {
  TermArena Arena;
  Inliner In;

  explicit DagFixture(const char *Src)
      : Lowered(Src, 1), In(Ctx, Cfg, Root, Arena, StrategyOptions()) {}
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
  EXPECT_TRUE(F.In.inlineAll(100));
  std::string Dot = inliningDagToDot(F.Ctx, F.In.vc());
  EXPECT_NE(Dot.find("digraph inlining_dag"), std::string::npos);
  EXPECT_NE(Dot.find("foo"), std::string::npos);
  // The shared foo instance (two parents) is highlighted.
  EXPECT_NE(Dot.find("fillcolor=lightblue"), std::string::npos);
  // Balanced braces, no open-edge stubs after full inlining.
  EXPECT_EQ(Dot.find("style=dashed"), std::string::npos);
}

TEST(DotExport, OpenEdgesRenderedDashed) {
  DagFixture F(Fig1Src);
  std::string Dot = inliningDagToDot(F.Ctx, F.In.vc());
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
