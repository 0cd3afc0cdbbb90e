//===- engine_test.cpp - Eager / SI / DI engines ----------------------------===//

#include "cfg/Lower.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "workload/Chain.h"
#include "workload/SdvGen.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace rmt;

namespace {

VerifierRunResult run(const char *Src, const VerifierOptions &Opts,
                      const char *Entry = "main") {
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Src, Ctx, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return verifyProgram(Ctx, *P, Ctx.sym(Entry), Opts);
}

VerifierOptions diOpts() {
  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  Opts.Engine.TimeoutSeconds = 60;
  return Opts;
}

/// DI without invariants: the engine's own search, which +Inv's call-site
/// summaries would otherwise cut short (a safe chain ends after main).
VerifierOptions diNoInvOpts() {
  VerifierOptions Opts = diOpts();
  Opts.Prepass.Invariants = false;
  return Opts;
}

} // namespace

TEST(Engine, SafeStraightLine) {
  auto R = run(R"(
    var g: int;
    procedure main() { g := 1; assert g == 1; }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(R.NumAsserts, 1u);
}

TEST(Engine, BuggyStraightLine) {
  auto R = run(R"(
    var g: int;
    procedure main() { g := 1; assert g == 2; }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
  EXPECT_FALSE(R.TraceText.empty());
}

TEST(Engine, HavocMakesAssertFail) {
  auto R = run(R"(
    var g: int;
    procedure main() { havoc g; assert g != 42; }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
}

TEST(Engine, AssumeGuardsAssert) {
  auto R = run(R"(
    var g: int;
    procedure main() { havoc g; assume g > 10; assert g != 5; }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
}

TEST(Engine, AssertAfterFailureIrrelevant) {
  // Once a bug exists, later (even contradictory) code must not mask it:
  // the error-bit bail-out pattern.
  auto R = run(R"(
    var g: int;
    procedure main() { g := 0; assert g == 1; assume false; }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
}

TEST(Engine, MultipleAssertsAnyCanFire) {
  auto R = run(R"(
    var g: int;
    procedure check(x: int) { assert x < 100; }
    procedure main() {
      havoc g;
      assume g >= 0;
      call check(g);
    }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
}

TEST(Engine, ParametersAndReturnsFlow) {
  auto R = run(R"(
    procedure add(a: int, b: int) returns (s: int) { s := a + b; }
    procedure main() {
      var x: int;
      call x := add(20, 22);
      assert x == 42;
    }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
}

TEST(Engine, ArraysThroughCalls) {
  auto R = run(R"(
    var store: [int]int;
    procedure put(k: int, v: int) { store[k] := v; }
    procedure main() {
      var k: int;
      havoc k;
      call put(k, 7);
      assert store[k] == 7;
    }
  )",
               diOpts());
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
}

TEST(Engine, BoundSemantics) {
  // Bug needs 4 iterations; invisible at bound 3.
  const char *Src = R"(
    var g: int;
    procedure main() {
      var i: int;
      i := 0;
      g := 0;
      while (i < 4) { i := i + 1; g := g + 1; }
      assert g != 4;
    }
  )";
  VerifierOptions Opts = diOpts();
  Opts.Bound = 3;
  EXPECT_EQ(run(Src, Opts).Result.Outcome, Verdict::Safe);
  Opts.Bound = 4;
  EXPECT_EQ(run(Src, Opts).Result.Outcome, Verdict::Bug);
}

TEST(Engine, RecursionBoundSemantics) {
  const char *Src = R"(
    var depth: int;
    procedure dig(d: int) {
      if (d > 0) { depth := depth + 1; call dig(d - 1); }
    }
    procedure main() {
      depth := 0;
      call dig(5);
      assert depth != 5;
    }
  )";
  VerifierOptions Opts = diOpts();
  Opts.Bound = 3; // cannot reach depth 5
  EXPECT_EQ(run(Src, Opts).Result.Outcome, Verdict::Safe);
  Opts.Bound = 6;
  EXPECT_EQ(run(Src, Opts).Result.Outcome, Verdict::Bug);
}

TEST(Engine, EnginesAgreeOnFig1Program) {
  const char *Src = R"(
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
  for (bool Eager : {false, true}) {
    for (MergeStrategyKind Kind :
         {MergeStrategyKind::None, MergeStrategyKind::First,
          MergeStrategyKind::MaxC, MergeStrategyKind::Opt,
          MergeStrategyKind::RandomPick, MergeStrategyKind::Random}) {
      VerifierOptions Opts = diOpts();
      Opts.Engine.Eager = Eager;
      Opts.Engine.Strategy.Kind = Kind;
      auto R = run(Src, Opts);
      EXPECT_EQ(R.Result.Outcome, Verdict::Safe)
          << "eager=" << Eager << " strategy=" << strategyName(Kind);
    }
  }
}

TEST(Engine, ChainSafeAndBuggyWithDI) {
  for (bool Buggy : {false, true}) {
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 6, Buggy);
    VerifierOptions Opts = diNoInvOpts();
    auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Buggy ? Verdict::Bug : Verdict::Safe);
    // DAG inlining: linear in N (main + P0..P6).
    EXPECT_EQ(R.Result.NumInlined, 8u);
  }
}

TEST(Engine, ChainDIBeatsSIInInstanceCount) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 5);
  VerifierOptions SI = diNoInvOpts();
  SI.Engine.Strategy.Kind = MergeStrategyKind::None;
  auto RSI = verifyProgram(Ctx, P, Ctx.sym("main"), SI);
  AstContext Ctx2;
  Program P2 = makeChainProgram(Ctx2, 5);
  auto RDI = verifyProgram(Ctx2, P2, Ctx2.sym("main"), diNoInvOpts());
  ASSERT_EQ(RSI.Result.Outcome, Verdict::Safe);
  ASSERT_EQ(RDI.Result.Outcome, Verdict::Safe);
  EXPECT_LT(RDI.Result.NumInlined, RSI.Result.NumInlined);
  EXPECT_GT(RDI.Result.NumMerged, 0u);
}

TEST(Engine, TimeoutVerdict) {
  // A deliberately hard instance and a microscopic budget.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 14);
  VerifierOptions Opts;
  Opts.Prepass.Invariants = false; // +Inv would decide it at the root
  Opts.Engine.Strategy.Kind = MergeStrategyKind::None; // tree: exponential
  Opts.Engine.TimeoutSeconds = 0.2;
  Stopwatch W;
  auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Timeout);
  EXPECT_LT(W.seconds(), 30.0) << "timeout must be honored promptly";
}

TEST(Engine, EmptyCoreProvesSafeWithoutOverCheck) {
  // The root alone is unsat, so the under-approximate check's core blames
  // no blocked edge and the run ends Safe with the call still open. Without
  // the prepass the dead call survives as an open edge.
  VerifierOptions Opts = diOpts();
  Opts.UsePrepass = false;
  auto R = run(R"(
    var g: int;
    procedure f() { g := g + 1; assert g != 3; }
    procedure main() { assume false; call f(); }
  )",
               Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(R.Result.NumUnderChecks, 1u);
  EXPECT_EQ(R.Result.NumOverChecks, 0u);
  EXPECT_EQ(R.Result.NumInlined, 1u);
  EXPECT_EQ(R.Result.NumCoreEdges, 0u);
}

TEST(Engine, ResourceOutVerdict) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 10);
  VerifierOptions Opts;
  Opts.Prepass.Invariants = false; // +Inv would decide it at the root
  Opts.Engine.Strategy.Kind = MergeStrategyKind::None;
  Opts.Engine.TimeoutSeconds = 60;
  Opts.Engine.MaxInlined = 16; // the paper's spaceout, as an instance cap
  auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::ResourceOut);
}

TEST(Engine, UndecidedVerdictsSayWhy) {
  // An exhausted budget and an inline limit of 1 each leave the run
  // undecided, and the result says why; a decided run gives no reason.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 10);
  VerifierOptions Opts;
  Opts.Prepass.Invariants = false; // +Inv would decide it at the root
  Opts.Engine.TimeoutSeconds = 1e-9;
  auto Late = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(Late.Result.Outcome, Verdict::Timeout);
  EXPECT_EQ(Late.Result.Reason, "time budget exhausted");

  Opts.Engine.TimeoutSeconds = 60;
  Opts.Engine.MaxInlined = 1;
  auto Capped = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(Capped.Result.Outcome, Verdict::ResourceOut);
  EXPECT_EQ(Capped.Result.Reason, "inline limit of 1 instances exceeded");

  Opts.Engine.MaxInlined = EngineOptions().MaxInlined;
  auto Decided = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(Decided.Result.Outcome, Verdict::Safe);
  EXPECT_TRUE(Decided.Result.Reason.empty());
}

TEST(Engine, EagerMatchesStratified) {
  const char *Src = R"(
    var g: int;
    procedure f(x: int) returns (y: int) {
      if (x > 0) { y := x; } else { y := -x; }
    }
    procedure main() {
      var a: int;
      var r: int;
      havoc a;
      call r := f(a);
      assert r >= 0;
    }
  )";
  VerifierOptions Lazy = diOpts();
  VerifierOptions Eager = diOpts();
  Eager.Engine.Eager = true;
  EXPECT_EQ(run(Src, Lazy).Result.Outcome, Verdict::Safe);
  EXPECT_EQ(run(Src, Eager).Result.Outcome, Verdict::Safe);
}

TEST(Engine, SdvDriverBugFoundByAllEngines) {
  SdvParams Params;
  Params.Seed = 11;
  Params.NumHandlers = 3;
  Params.NumUtils = 3;
  Params.UtilDepth = 3;
  Params.InjectBug = true;
  for (MergeStrategyKind Kind :
       {MergeStrategyKind::None, MergeStrategyKind::First}) {
    AstContext Ctx;
    Program P = makeSdvProgram(Ctx, Params);
    VerifierOptions Opts = diOpts();
    Opts.Engine.Strategy.Kind = Kind;
    auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Verdict::Bug) << strategyName(Kind);
  }
}

TEST(Engine, SdvDriverSafeWithAndWithoutInv) {
  SdvParams Params;
  Params.Seed = 12;
  Params.NumHandlers = 3;
  Params.NumUtils = 3;
  Params.UtilDepth = 3;
  Params.InjectBug = false;
  AstContext Ctx;
  Program P = makeSdvProgram(Ctx, Params);
  VerifierOptions Opts = diNoInvOpts();
  auto Plain = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(Plain.Result.Outcome, Verdict::Safe);
  Opts.Prepass.Invariants = true;
  AstContext Ctx2;
  Program P2 = makeSdvProgram(Ctx2, Params);
  auto WithInv = verifyProgram(Ctx2, P2, Ctx2.sym("main"), Opts);
  EXPECT_EQ(WithInv.Result.Outcome, Verdict::Safe);
  EXPECT_LE(WithInv.Result.NumInlined, Plain.Result.NumInlined);
}

TEST(Engine, StatisticsArePopulated) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 4);
  auto R = verifyProgram(Ctx, P, Ctx.sym("main"), diNoInvOpts());
  EXPECT_GT(R.Result.NumSolverChecks, 0u);
  EXPECT_GT(R.Result.NumIterations, 0u);
  EXPECT_GT(R.Result.NumDisjQueries, 0u);
  EXPECT_GT(R.Result.Seconds, 0.0);
  EXPECT_GE(R.Result.MergeLookupSeconds, 0.0);
}

TEST(Engine, TraceVisitsFailingAssert) {
  auto R = run(R"(
    var g: int;
    procedure inner() { g := 5; assert g == 6; }
    procedure main() { call inner(); }
  )",
               diOpts());
  ASSERT_EQ(R.Result.Outcome, Verdict::Bug);
  EXPECT_NE(R.TraceText.find("inner"), std::string::npos);
  EXPECT_NE(R.TraceText.find("$err := true"), std::string::npos);
}

TEST(Engine, TraceCarriesModelValues) {
  // The prepass would (correctly) slice the g stores away once the assert
  // guard folds to a literal; this test is about trace model-value capture,
  // so run the unsliced program.
  VerifierOptions Opts = diOpts();
  Opts.UsePrepass = false;
  auto R = run(R"(
    var g: int;
    procedure main() {
      g := 41;
      g := g + 1;
      assert g != 42;
    }
  )",
               Opts);
  ASSERT_EQ(R.Result.Outcome, Verdict::Bug);
  // Every step captured one value per global (g and the error bit).
  for (const TraceStep &Step : R.Result.Trace)
    EXPECT_EQ(Step.GlobalValues.size(), 2u);
  // Some step must observe g == 42, and the rendering shows it.
  bool Saw42 = false;
  for (const TraceStep &Step : R.Result.Trace)
    if (Step.GlobalValues[0] == "42")
      Saw42 = true;
  EXPECT_TRUE(Saw42);
  EXPECT_NE(R.TraceText.find("g=42"), std::string::npos) << R.TraceText;
}

TEST(Engine, TraceRendersIntsBeyondInt64Exactly) {
  // `int` is the mathematical integer: the only counterexample has
  // g > 9223372036854775807, and the trace must show such a value, not one
  // wrapped into int64.
  auto R = run(R"(
    var g: int;
    procedure main() {
      havoc g;
      assert g <= 922337203685477580 * 10 + 7;
    }
  )",
               diOpts());
  ASSERT_EQ(R.Result.Outcome, Verdict::Bug);
  // Some rendered value of g (after the havoc) exceeds the int64 maximum: a
  // decimal without sign or leading zero does iff it is longer, or as long
  // and lexicographically greater.
  const std::string Max = "9223372036854775807";
  bool SawWide = false;
  for (size_t Pos = R.TraceText.find("g="); Pos != std::string::npos;
       Pos = R.TraceText.find("g=", Pos + 2)) {
    std::string Digits;
    for (size_t I = Pos + 2; I < R.TraceText.size() &&
                             std::isdigit(static_cast<unsigned char>(
                                 R.TraceText[I]));
         ++I)
      Digits += R.TraceText[I];
    if (Digits.size() > Max.size() ||
        (Digits.size() == Max.size() && Digits > Max))
      SawWide = true;
  }
  EXPECT_TRUE(SawWide)
      << R.TraceText;
}

TEST(Engine, PlainReachabilityWithoutErrorBit) {
  // Exercise solveReachability directly with ErrGlobal = nullopt:
  // Definition 1's bare termination query.
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(R"(
    procedure main() { assume false; }
    procedure other() { }
  )",
                         Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();
  CfgProgram Cfg = lowerToCfg(Ctx, *P);
  EngineOptions Opts;
  Opts.TimeoutSeconds = 30;
  // main blocks: no terminating execution.
  auto R1 = solveReachability(Ctx, Cfg, Cfg.findProc(Ctx.sym("main")),
                              std::nullopt, Opts);
  EXPECT_EQ(R1.Outcome, Verdict::Safe);
  // other terminates trivially.
  auto R2 = solveReachability(Ctx, Cfg, Cfg.findProc(Ctx.sym("other")),
                              std::nullopt, Opts);
  EXPECT_EQ(R2.Outcome, Verdict::Bug);
}
