//===- bitvector_test.cpp - Bitvector types end to end ----------------------===//
//
// The paper: "Our implementation handles all types and expressions
// supported by existing satisfiability-modulo-theory solvers ... including
// bitvectors, integers, arrays, and datatypes." These tests cover the bv
// pipeline: parsing, typing, evaluation (wraparound / unsigned semantics),
// VC generation through Z3, and verdict agreement with the oracle.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"
#include "ast/AstPrinter.h"
#include "ast/Eval.h"
#include "smt/SmtLibPrinter.h"
#include "parser/TypeCheck.h"
#include "smt/Z3Solver.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

VerifierRunResult run(const char *Src, MergeStrategyKind Kind,
                      PvcMode Pvc = PvcMode::Paper) {
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Src, Ctx, Diags);
  EXPECT_TRUE(P) << Diags.str();
  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = Kind;
  Opts.Engine.Pvc = Pvc;
  Opts.Engine.TimeoutSeconds = 60;
  return verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
}

} // namespace

TEST(BvTypes, UniquedPerWidth) {
  AstContext Ctx;
  EXPECT_EQ(Ctx.bvType(8), Ctx.bvType(8));
  EXPECT_NE(Ctx.bvType(8), Ctx.bvType(16));
  EXPECT_EQ(Ctx.bvType(8)->bvWidth(), 8u);
  EXPECT_EQ(Ctx.bvType(32)->str(), "bv32");
}

TEST(BvTypes, LiteralBuilderMasks) {
  AstContext Ctx;
  const Expr *E = Ctx.tBv(0x1FF, 8); // 511 truncates to 255
  EXPECT_EQ(E->intValue(), 255);
  EXPECT_EQ(E->type(), Ctx.bvType(8));
}

TEST(BvParse, TypesLiteralsRoundTrip) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var x: bv8;
    procedure main() {
      var y: bv32;
      x := 200bv8;
      y := 70000bv32;
      assume x < 255bv8;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  std::string Printed = printProgram(Ctx, *P);
  EXPECT_NE(Printed.find("x: bv8"), std::string::npos);
  EXPECT_NE(Printed.find("200bv8"), std::string::npos);
  // Round-trip stability.
  AstContext Ctx2;
  DiagEngine Diags;
  auto P2 = parseAndCheck(Printed, Ctx2, Diags);
  ASSERT_TRUE(P2) << Diags.str();
  EXPECT_EQ(printProgram(Ctx2, *P2), Printed);
}

TEST(BvParse, TypeErrorsCaught) {
  AstContext Ctx;
  DiagEngine Diags;
  // Mixed widths.
  auto P = parseProgram(
      "procedure main() { var a: bv8; var b: bv16; assume a == b; }", Ctx,
      Diags);
  ASSERT_TRUE(P);
  EXPECT_FALSE(typecheck(Ctx, *P, Diags));
  // bv + int.
  AstContext Ctx2;
  DiagEngine Diags2;
  auto P2 = parseProgram(
      "procedure main() { var a: bv8; var b: int; b := a + 1; }", Ctx2,
      Diags2);
  ASSERT_TRUE(P2);
  EXPECT_FALSE(typecheck(Ctx2, *P2, Diags2));
}

TEST(BvParse, BadWidthRejected) {
  AstContext Ctx;
  DiagEngine Diags;
  EXPECT_FALSE(parseProgram("var x: bv0;", Ctx, Diags));
  AstContext Ctx2;
  DiagEngine Diags2;
  EXPECT_FALSE(parseProgram("var x: bv65;", Ctx2, Diags2));
  AstContext Ctx3;
  DiagEngine Diags3;
  EXPECT_FALSE(
      parseProgram("procedure main() { assume 1bv99 == 1bv99; }", Ctx3,
                   Diags3));
}

TEST(BvEval, WraparoundSemantics) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: bv8;
      x := 250bv8;
      x := x + 10bv8;
      assert x == 4bv8;          // 260 mod 256
      x := 3bv8 - 5bv8;
      assert x == 254bv8;        // two's complement
      x := 16bv8 * 32bv8;
      assert x == 0bv8;          // 512 mod 256
      x := -(1bv8);
      assert x == 255bv8;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(evaluate(Ctx, *P, Ctx.sym("main"), {}).Outcome,
            EvalOutcome::Completed);
}

TEST(BvEval, UnsignedComparisonAndDivision) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: bv8;
      x := 255bv8;
      assert x > 1bv8;           // unsigned: 255 is large, not -1
      assert 7bv8 div 2bv8 == 3bv8;
      assert 7bv8 mod 2bv8 == 1bv8;
      assert 5bv8 div 0bv8 == 255bv8;  // SMT-LIB bvudiv by zero
      assert 5bv8 mod 0bv8 == 5bv8;    // SMT-LIB bvurem by zero
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(evaluate(Ctx, *P, Ctx.sym("main"), {}).Outcome,
            EvalOutcome::Completed);
}

TEST(BvSmt, TermsAndZ3Agree) {
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  const Type *Bv8 = Ctx.bvType(8);
  TermRef X = A.freshConst(Bv8, "x");
  // x + 10 == 4 has the unique solution x == 250 (mod 256).
  S->assertTerm(A.mkEq(A.mkAdd(X, A.bvLit(10, Bv8)), A.bvLit(4, Bv8)));
  ASSERT_EQ(S->check(), SolveResult::Sat);
  EXPECT_EQ(S->modelNumeral(X), "250");
  // And unsigned comparison: 250 > 100.
  S->assertTerm(A.mkLt(A.bvLit(100, Bv8), X));
  EXPECT_EQ(S->check(), SolveResult::Sat);
  S->assertTerm(A.mkLt(X, A.bvLit(100, Bv8)));
  EXPECT_EQ(S->check(), SolveResult::Unsat);
}

TEST(BvSmt, LiteralsOfDifferentSortsNotConfused) {
  AstContext Ctx;
  TermArena A;
  TermRef IntFive = A.intLit(5);
  TermRef BvFive = A.bvLit(5, Ctx.bvType(8));
  EXPECT_NE(IntFive, BvFive);
  TermRef BvFive16 = A.bvLit(5, Ctx.bvType(16));
  EXPECT_NE(BvFive, BvFive16);
  EXPECT_EQ(BvFive, A.bvLit(5 + 256, Ctx.bvType(8))); // masked consing
}

TEST(BvSmt, SmtLibRendering) {
  AstContext Ctx;
  TermArena A;
  const Type *Bv8 = Ctx.bvType(8);
  TermRef X = A.freshConst(Bv8, "x");
  TermRef T = A.mkLt(A.mkAdd(X, A.bvLit(1, Bv8)), A.bvLit(7, Bv8));
  EXPECT_EQ(printTerm(A, T), "(bvult (bvadd x!0 (_ bv1 8)) (_ bv7 8))");
  std::string Script = printScript(A, {T});
  EXPECT_NE(Script.find("(declare-const x!0 (_ BitVec 8))"),
            std::string::npos);
}

TEST(BvVerify, OverflowBugFoundOnlyBySolver) {
  // The assert holds over mathematical integers but fails at bv8 overflow;
  // the verifier must find the wraparound.
  const char *Src = R"(
    procedure main() {
      var x: bv8;
      havoc x;
      assume x >= 200bv8;
      assert x + 100bv8 >= 100bv8;
    }
  )";
  for (MergeStrategyKind Kind :
       {MergeStrategyKind::None, MergeStrategyKind::First}) {
    auto R = run(Src, Kind);
    EXPECT_EQ(R.Result.Outcome, Verdict::Bug) << strategyName(Kind);
  }
  // Passified mode agrees.
  EXPECT_EQ(run(Src, MergeStrategyKind::First, PvcMode::Passified)
                .Result.Outcome,
            Verdict::Bug);
}

TEST(BvVerify, SafeCheckedArithmeticThroughCalls) {
  const char *Src = R"(
    var acc: bv16;

    procedure add_checked(d: bv16) {
      assume acc <= 60000bv16 - d;   // caller-provided headroom
      acc := acc + d;
    }

    procedure main() {
      var d: bv16;
      acc := 0bv16;
      havoc d;
      assume d <= 1000bv16;
      if (*) { call add_checked(d); } else { call add_checked(500bv16); }
      assert acc <= 60000bv16;
    }
  )";
  auto R = run(Src, MergeStrategyKind::First);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_GT(R.Result.NumMerged, 0u); // the two branches share add_checked
}

TEST(BvVerify, InvariantPrepassStaysSound) {
  // Intervals cannot track bv values; +Inv must not change the verdict.
  const char *Src = R"(
    var w: bv8;
    procedure bump() { w := w + 1bv8; }
    procedure main() {
      w := 255bv8;
      call bump();
      assert w == 0bv8;
    }
  )";
  AstContext Ctx;
  auto P = parseOk(Src, Ctx);
  ASSERT_TRUE(P);
  for (bool Inv : {false, true}) {
    VerifierOptions Opts;
    Opts.Prepass.Invariants = Inv;
    Opts.Engine.TimeoutSeconds = 30;
    AstContext C2;
    DiagEngine D2;
    auto P2 = parseAndCheck(Src, C2, D2);
    auto R = verifyProgram(C2, *P2, C2.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Verdict::Safe) << "inv=" << Inv;
  }
}

TEST(BvVerify, OracleAgreesWithEngine) {
  // Differential check on a bv program with a reachable bug.
  const char *Src = R"(
    var ctr: bv4;
    procedure tick() { ctr := ctr + 1bv4; }
    procedure main() {
      ctr := 14bv4;
      call tick();
      call tick();
      assert ctr != 0bv4;    // wraps at 16
    }
  )";
  AstContext Ctx;
  auto P = parseOk(Src, Ctx);
  ASSERT_TRUE(P);
  EvalResult E = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(E.Outcome, EvalOutcome::AssertFailed);
  auto R = run(Src, MergeStrategyKind::First);
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
}
