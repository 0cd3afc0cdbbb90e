//===- ast_test.cpp - Unit tests for src/ast -------------------------------===//

#include "TestSupport.h"
#include "ast/AstContext.h"
#include "ast/AstPrinter.h"
#include "ast/Eval.h"
#include "smt/Translate.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"

#include <gtest/gtest.h>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Types, SingletonsAndUniquing) {
  AstContext Ctx;
  EXPECT_TRUE(Ctx.intType()->isInt());
  EXPECT_TRUE(Ctx.boolType()->isBool());
  const Type *A = Ctx.arrayType(Ctx.intType(), Ctx.boolType());
  const Type *B = Ctx.arrayType(Ctx.intType(), Ctx.boolType());
  EXPECT_EQ(A, B);
  EXPECT_TRUE(A->isArray());
  EXPECT_EQ(A->indexType(), Ctx.intType());
  EXPECT_EQ(A->elementType(), Ctx.boolType());
  const Type *Nested = Ctx.arrayType(Ctx.intType(), A);
  EXPECT_NE(Nested, A);
  EXPECT_EQ(Nested->str(), "[int][int]bool");
}

TEST(Types, Rendering) {
  AstContext Ctx;
  EXPECT_EQ(Ctx.intType()->str(), "int");
  EXPECT_EQ(Ctx.boolType()->str(), "bool");
  EXPECT_EQ(Ctx.arrayType(Ctx.intType(), Ctx.intType())->str(), "[int]int");
}

//===----------------------------------------------------------------------===//
// Typed builders
//===----------------------------------------------------------------------===//

TEST(Builders, TypedExprsCarryTypes) {
  AstContext Ctx;
  const Expr *I = Ctx.tInt(5);
  const Expr *B = Ctx.tBool(true);
  EXPECT_EQ(I->type(), Ctx.intType());
  EXPECT_EQ(B->type(), Ctx.boolType());
  const Expr *Sum = Ctx.tBinary(BinOp::Add, I, Ctx.tInt(2));
  EXPECT_EQ(Sum->type(), Ctx.intType());
  const Expr *Cmp = Ctx.tBinary(BinOp::Lt, I, Sum);
  EXPECT_EQ(Cmp->type(), Ctx.boolType());
  const Expr *Ite = Ctx.tIte(Cmp, I, Sum);
  EXPECT_EQ(Ite->type(), Ctx.intType());
}

TEST(Builders, ArraysSelectStore) {
  AstContext Ctx;
  const Type *ArrTy = Ctx.arrayType(Ctx.intType(), Ctx.intType());
  const Expr *A = Ctx.tVar(Ctx.sym("a"), ArrTy);
  const Expr *Stored = Ctx.tStore(A, Ctx.tInt(1), Ctx.tInt(9));
  EXPECT_EQ(Stored->type(), ArrTy);
  const Expr *Sel = Ctx.tSelect(Stored, Ctx.tInt(1));
  EXPECT_EQ(Sel->type(), Ctx.intType());
}

TEST(Builders, AndOfEmptyListIsTrue) {
  AstContext Ctx;
  const Expr *T = Ctx.tAnd({});
  EXPECT_EQ(T->kind(), ExprKind::BoolLit);
  EXPECT_TRUE(T->boolValue());
}

//===----------------------------------------------------------------------===//
// Printer round-trips
//===----------------------------------------------------------------------===//

namespace {

/// Print -> parse -> print must be a fixpoint.
void expectRoundTrip(const Program &Prog, AstContext &Ctx) {
  std::string Once = printProgram(Ctx, Prog);
  AstContext Ctx2;
  DiagEngine Diags;
  std::optional<Program> Reparsed = parseAndCheck(Once, Ctx2, Diags);
  ASSERT_TRUE(Reparsed) << Diags.str() << "\nsource:\n" << Once;
  std::string Twice = printProgram(Ctx2, *Reparsed);
  EXPECT_EQ(Once, Twice);
}

} // namespace

TEST(Printer, RoundTripChain) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 3);
  expectRoundTrip(P, Ctx);
}

TEST(Printer, RoundTripRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    AstContext Ctx;
    RandomProgParams Params;
    Params.Seed = Seed;
    Params.AllowLoops = Seed % 2 == 0;
    Params.AllowArrays = Seed % 3 == 0;
    Params.AllowBitvectors = Seed % 4 == 0;
    Program P = makeRandomProgram(Ctx, Params);
    expectRoundTrip(P, Ctx);
  }
}

TEST(Printer, PrecedenceMinimalParens) {
  AstContext Ctx;
  const Expr *X = Ctx.tVar(Ctx.sym("x"), Ctx.intType());
  // x + 1 * 2  must print without parens around the product.
  const Expr *E = Ctx.tBinary(
      BinOp::Add, X, Ctx.tBinary(BinOp::Mul, Ctx.tInt(1), Ctx.tInt(2)));
  EXPECT_EQ(printExpr(Ctx, E), "x + 1 * 2");
  // (x + 1) * 2 must keep parens.
  const Expr *F = Ctx.tBinary(
      BinOp::Mul, Ctx.tBinary(BinOp::Add, X, Ctx.tInt(1)), Ctx.tInt(2));
  EXPECT_EQ(printExpr(Ctx, F), "(x + 1) * 2");
}

TEST(Printer, NegativeLiterals) {
  AstContext Ctx;
  EXPECT_EQ(printExpr(Ctx, Ctx.tInt(-3)), "(-3)");
}

TEST(Printer, NegatedInt64MinStaysUnfolded) {
  // -INT64_MIN is no int64 literal, so the Neg chain is printed as is; the
  // lexer cannot spell this literal, hence the AST API.
  AstContext Ctx;
  const Expr *Min = Ctx.tInt(INT64_MIN);
  const Expr *Neg = Ctx.tUnary(UnOp::Neg, Min);
  EXPECT_EQ(printExpr(Ctx, Neg), "-(-9223372036854775808)");
  EXPECT_EQ(printExpr(Ctx, Ctx.tUnary(UnOp::Neg, Neg)),
            "(-9223372036854775808)");
  EXPECT_EQ(printExpr(Ctx, Ctx.tUnary(UnOp::Neg, Ctx.tInt(INT64_MAX))),
            "(-9223372036854775807)");
}

//===----------------------------------------------------------------------===//
// Evaluator and the literal-fold kernel
//===----------------------------------------------------------------------===//

TEST(FoldKernel, SmtLibIntegerTable) {
  constexpr int64_t Min = INT64_MIN, Max = INT64_MAX;
  constexpr std::optional<int64_t> Refused;
  struct Row {
    BinOp Op;
    int64_t A, B;
    std::optional<int64_t> Want;
  };
  const Row Rows[] = {
      {BinOp::Add, 6, 4, 10},
      {BinOp::Sub, 6, 10, -4},
      {BinOp::Mul, 6, -2, -12},
      {BinOp::Add, Max, Min, -1},
      // Euclidean signs: a == b * (a div b) + a mod b with 0 <= a mod b < |b|.
      {BinOp::Div, 7, 2, 3},
      {BinOp::Mod, 7, 2, 1},
      {BinOp::Div, -7, 2, -4},
      {BinOp::Mod, -7, 2, 1},
      {BinOp::Div, 7, -2, -3},
      {BinOp::Mod, 7, -2, 1},
      {BinOp::Div, -7, -2, 4},
      {BinOp::Mod, -7, -2, 1},
      {BinOp::Div, -6, 3, -2},
      {BinOp::Mod, -6, 3, 0},
      // A dividend next to INT64_MIN: a - (a mod b) would overflow.
      {BinOp::Div, Min + 1, 3, -3074457345618258603},
      {BinOp::Mod, Min + 1, 3, 2},
      // An INT64_MIN divisor, whose |b| is not an int64.
      {BinOp::Mod, -5, Min, Max - 4},
      {BinOp::Div, -5, Min, 1},
      {BinOp::Mod, 5, Min, 5},
      {BinOp::Div, 5, Min, 0},
      {BinOp::Mod, Min, Min, 0},
      {BinOp::Div, Min, Min, 1},
      // Every remainder by -1 is 0, even INT64_MIN's.
      {BinOp::Mod, Min, -1, 0},
      {BinOp::Div, Max, -1, Min + 1},
      // Refused: uninterpreted in SMT-LIB, or not an int64.
      {BinOp::Div, 5, 0, Refused},
      {BinOp::Mod, 5, 0, Refused},
      {BinOp::Div, Min, -1, Refused},
      {BinOp::Add, Max, 1, Refused},
      {BinOp::Sub, Min, 1, Refused},
      {BinOp::Mul, Min, -1, Refused},
      {BinOp::Mul, 999999999999999999, 10, Refused},
      // Predicates are not arithmetic.
      {BinOp::Lt, 1, 2, Refused},
  };
  for (const Row &R : Rows)
    EXPECT_EQ(foldIntArith(R.Op, R.A, R.B), R.Want)
        << R.A << " " << spelling(R.Op) << " " << R.B;

  EXPECT_EQ(foldIntNeg(5), -5);
  EXPECT_EQ(foldIntNeg(Max), Min + 1);
  EXPECT_EQ(foldIntNeg(Min), Refused);

  // The Euclidean identity on a grid of extreme and small operands.
  const int64_t Vals[] = {Min, Min + 1, -9, -2, -1, 0, 1, 2, 9, Max - 1, Max};
  for (int64_t A : Vals)
    for (int64_t B : Vals) {
      std::optional<int64_t> Q = foldIntArith(BinOp::Div, A, B);
      std::optional<int64_t> M = foldIntArith(BinOp::Mod, A, B);
      if (B == 0) {
        EXPECT_FALSE(Q || M);
        continue;
      }
      ASSERT_TRUE(M) << A << " mod " << B;
      __int128 AbsB = B < 0 ? -static_cast<__int128>(B) : B;
      EXPECT_TRUE(*M >= 0 && *M < AbsB) << A << " mod " << B;
      if (A == Min && B == -1) {
        EXPECT_FALSE(Q);
        continue;
      }
      ASSERT_TRUE(Q) << A << " div " << B;
      EXPECT_EQ(static_cast<__int128>(*Q) * B + *M, static_cast<__int128>(A))
          << A << " div " << B;
    }
}

// Constant expressions under a known binding (x == 6) fold through the
// kernel in the interpreter, and in TermArena when VC generation substitutes
// a literal for a variable.
TEST(EvalConstExpr, FoldsArithmeticAndComparisons) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      x := 6;
      assert x + 4 == 10;
      assert x * (-2) == -12;
      assert x < 7;
      assert -x == -6;
      assert (-7) div 2 == -4;
      assert (-7) mod 2 == 1;
      assert (if x == 6 then 1 else 2) == 1;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(evaluate(Ctx, *P, Ctx.sym("main"), {}).Outcome,
            EvalOutcome::Completed);

  TermArena A;
  Symbol X = Ctx.sym("x");
  const Expr *XE = Ctx.tVar(X, Ctx.intType());
  VarTermMap Six{{X, A.intLit(6)}};
  auto T = [&](const Expr *E) { return translateExpr(A, E, Six); };
  EXPECT_TRUE(A.isTrue(T(Ctx.tBinary(BinOp::Lt, XE, Ctx.tInt(7)))));
  EXPECT_TRUE(A.isFalse(T(Ctx.tBinary(BinOp::Eq, XE, Ctx.tInt(7)))));
  EXPECT_EQ(T(Ctx.tUnary(UnOp::Neg, XE)), A.intLit(-6));
  EXPECT_EQ(T(Ctx.tIte(Ctx.tBinary(BinOp::Eq, XE, Ctx.tInt(6)), Ctx.tInt(1),
                       Ctx.tInt(2))),
            A.intLit(1));
}

TEST(EvalConstExpr, RefusesDivByZeroAndOverflow) {
  // x div 0 is uninterpreted in SMT, and a wrapped int64 is not the
  // mathematical result; folding either would change verdicts. Literals
  // have at most 18 digits, so INT64_MIN is built by arithmetic (which does
  // fold).
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var lo: int;
      var p: int;
      lo := -922337203685477580 * 10 - 8;
      assert lo + 8 == -922337203685477580 * 10;
      p := lo * (-1);
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(evaluate(Ctx, *P, Ctx.sym("main"), {}).Outcome,
            EvalOutcome::Overflow);

  TermArena A;
  Symbol X = Ctx.sym("x");
  const Expr *XE = Ctx.tVar(X, Ctx.intType());
  VarTermMap Min{{X, A.intLit(INT64_MIN)}};
  auto T = [&](const Expr *E) { return translateExpr(A, E, Min); };
  EXPECT_EQ(A.op(T(Ctx.tBinary(BinOp::Div, Ctx.tInt(5), Ctx.tInt(0)))),
            TermOp::Div);
  EXPECT_EQ(A.op(T(Ctx.tBinary(BinOp::Mod, Ctx.tInt(5), Ctx.tInt(0)))),
            TermOp::Mod);
  EXPECT_EQ(A.op(T(Ctx.tUnary(UnOp::Neg, XE))), TermOp::Neg);
  EXPECT_EQ(A.op(T(Ctx.tBinary(BinOp::Mul, XE, Ctx.tInt(-1)))), TermOp::Mul);
}

TEST(Eval, StraightLineArithmetic) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      g := 3;
      g := g * 2 + 1;
      assert g == 7;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(Eval, IntOverflowEndsTheRunInsteadOfWrapping) {
  // Each program's int result leaves int64; a wrapped value would fail the
  // assert, so only abstaining keeps the oracle honest. Literals have at
  // most 18 digits, so INT64_MAX and INT64_MIN are built by arithmetic.
  const char *Bodies[] = {
      "g := 999999999999999999 * 10;",
      "g := 922337203685477580 * 10 + 7; g := g + 1;",
      "g := -922337203685477580 * 10 - 8; g := -g;",
      "g := -922337203685477580 * 10 - 8; g := g div (-1);",
      "g := 0; if (922337203685477580 * 10 + 7 + g + 1 > 0) { g := 1; }",
  };
  for (const char *Body : Bodies) {
    AstContext Ctx;
    std::string Src = std::string("var g: int; procedure main() { ") + Body +
                      " assert g == 0; }";
    auto P = parseOk(Src.c_str(), Ctx);
    ASSERT_TRUE(P);
    EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
    EXPECT_EQ(R.Outcome, EvalOutcome::Overflow) << Body;
  }
  // INT64_MIN mod -1 is representable (0): no overflow.
  AstContext Ctx;
  auto P = parseOk("var g: int; procedure main() { g := -922337203685477580 "
                   "* 10 - 8; g := g mod (-1); assert g == 0; }",
                   Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(evaluate(Ctx, *P, Ctx.sym("main"), {}).Outcome,
            EvalOutcome::Completed);
}

TEST(Eval, AssertFailureDetected) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      g := 1;
      assert g == 2;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::AssertFailed);
  EXPECT_TRUE(R.FailedAssertLoc.isValid());
}

TEST(Eval, AssumeBlocks) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      assume false;
      assert false;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Blocked);
}

TEST(Eval, CallsPassParamsAndReturns) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure inc(a: int) returns (b: int) { b := a + 1; }
    procedure main() {
      var x: int;
      call x := inc(41);
      assert x == 42;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(Eval, LoopCountsIterations) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var i: int;
      i := 0;
      while (i < 5) { i := i + 1; }
      assert i == 5;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
  EXPECT_EQ(R.MaxLoopIterations, 5u);
}

TEST(Eval, RecursionDepthTracked) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure down(d: int) {
      if (d > 0) { call down(d - 1); }
    }
    procedure main() { call down(4); }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
  EXPECT_EQ(R.MaxRecursionDepth, 5u); // down(4)..down(0)
}

TEST(Eval, FuelLimitsRunawayLoops) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      while (true) { g := g + 1; }
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalOptions Opts;
  Opts.MaxSteps = 1000;
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Outcome, EvalOutcome::OutOfFuel);
}

TEST(Eval, EuclideanDivMod) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      assert 7 div 2 == 3;
      assert 7 mod 2 == 1;
      assert (-7) div 2 == -4;
      assert (-7) mod 2 == 1;
      assert 7 div (-2) == -3;
      assert 7 mod (-2) == 1;
      assert (-7) div (-2) == 4;
      assert (-7) mod (-2) == 1;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(Eval, ArraysStoreSelect) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var a: [int]int;
    procedure main() {
      a[3] := 7;
      a[4] := 9;
      assert a[3] == 7;
      assert a[4] == 9;
      assert a[5] == a[6];   // both default
      a[3] := 0;
      assert a[3] == 0;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(Eval, ArrayEqualityIsExtensional) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var a: [int]int;
    var b: [int]int;
    procedure main() {
      a[1] := 5;
      b[1] := 5;
      assert a == b;
      b[1] := 0;      // pruned back to default
      a[1] := 0;
      assert a == b;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(Eval, DeterministicPerSeed) {
  AstContext Ctx;
  RandomProgParams Params;
  Params.Seed = 9;
  Params.AllowLoops = true;
  Program P = makeRandomProgram(Ctx, Params);
  EvalOptions Opts;
  Opts.Seed = 123;
  EvalResult A = evaluate(Ctx, P, Ctx.sym("main"), Opts);
  EvalResult B = evaluate(Ctx, P, Ctx.sym("main"), Opts);
  EXPECT_EQ(A.Outcome, B.Outcome);
  EXPECT_EQ(A.MaxLoopIterations, B.MaxLoopIterations);
  EXPECT_EQ(A.MaxRecursionDepth, B.MaxRecursionDepth);
}

TEST(Eval, ShortCircuitSemantics) {
  AstContext Ctx;
  // Division by zero yields 0 in the oracle, but short-circuiting must
  // avoid evaluating the right side when the left decides.
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      x := 0;
      assert !(x != 0 && 10 div x > 0);
      assert x == 0 || 10 div x > 0;
      assert x != 0 ==> 10 div x >= 0;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  EvalResult R = evaluate(Ctx, *P, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}
