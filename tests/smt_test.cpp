//===- smt_test.cpp - Unit tests for src/smt --------------------------------===//

#include "TestSupport.h"

#include "ast/AstContext.h"
#include "smt/SmtLibPrinter.h"
#include "smt/Solver.h"
#include "smt/Term.h"
#include "smt/Translate.h"
#include "smt/Z3Solver.h"

#include <z3.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

using namespace rmt;

//===----------------------------------------------------------------------===//
// TermArena
//===----------------------------------------------------------------------===//

TEST(TermArena, LiteralsAreConsed) {
  TermArena A;
  EXPECT_EQ(A.intLit(7), A.intLit(7));
  EXPECT_NE(A.intLit(7), A.intLit(8));
  EXPECT_EQ(A.boolLit(true), A.mkTrue());
}

TEST(TermArena, ApplicationsAreConsed) {
  AstContext Ctx;
  TermArena A;
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef S1 = A.mkAdd(X, A.intLit(1));
  TermRef S2 = A.mkAdd(X, A.intLit(1));
  EXPECT_EQ(S1, S2);
  EXPECT_NE(S1, A.mkAdd(X, A.intLit(2)));
}

TEST(TermArena, FreshConstsAreNotConsed) {
  AstContext Ctx;
  TermArena A;
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef Y = A.freshConst(Ctx.intType(), "x");
  EXPECT_NE(X, Y);
  EXPECT_NE(A.constName(X), A.constName(Y));
}

TEST(TermArena, BooleanSimplifications) {
  AstContext Ctx;
  TermArena A;
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  EXPECT_EQ(A.mkAnd(A.mkTrue(), P), P);
  EXPECT_EQ(A.mkAnd(P, A.mkFalse()), A.mkFalse());
  EXPECT_EQ(A.mkOr(A.mkFalse(), P), P);
  EXPECT_EQ(A.mkOr(P, A.mkTrue()), A.mkTrue());
  EXPECT_EQ(A.mkNot(A.mkNot(P)), P);
  EXPECT_EQ(A.mkImplies(A.mkTrue(), P), P);
  EXPECT_EQ(A.mkImplies(A.mkFalse(), P), A.mkTrue());
  EXPECT_EQ(A.mkImplies(P, A.mkFalse()), A.mkNot(P));
  EXPECT_EQ(A.mkAnd(P, P), P);
}

TEST(TermArena, ConstantFolding) {
  TermArena A;
  EXPECT_TRUE(A.isTrue(A.mkEq(A.intLit(3), A.intLit(3))));
  EXPECT_TRUE(A.isFalse(A.mkEq(A.intLit(3), A.intLit(4))));
  EXPECT_TRUE(A.isTrue(A.mkLt(A.intLit(3), A.intLit(4))));
  EXPECT_TRUE(A.isFalse(A.mkLe(A.intLit(5), A.intLit(4))));
  EXPECT_EQ(A.mkNeg(A.intLit(3)), A.intLit(-3));
}

TEST(TermArena, AndManyOrMany) {
  AstContext Ctx;
  TermArena A;
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  TermRef Q = A.freshConst(Ctx.boolType(), "q");
  EXPECT_TRUE(A.isTrue(A.mkAndMany({})));
  EXPECT_TRUE(A.isFalse(A.mkOrMany({})));
  EXPECT_EQ(A.mkAndMany({P}), P);
  TermRef Both = A.mkAndMany({P, Q});
  EXPECT_EQ(A.op(Both), TermOp::And);
}

TEST(TermArena, DagSizeCountsSharedOnce) {
  AstContext Ctx;
  TermArena A;
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef Sum = A.mkAdd(X, X); // shares X
  EXPECT_EQ(A.dagSize(Sum), 2u);
  TermRef Twice = A.mkMul(Sum, Sum);
  EXPECT_EQ(A.dagSize(Twice), 3u);
}

TEST(TermArena, SortsPropagateThroughArrays) {
  AstContext Ctx;
  TermArena A;
  const Type *ArrTy = Ctx.arrayType(Ctx.intType(), Ctx.intType());
  TermRef Arr = A.freshConst(ArrTy, "a");
  TermRef St = A.mkStore(Arr, A.intLit(0), A.intLit(5));
  EXPECT_EQ(A.sort(St), ArrTy);
  TermRef Sel = A.mkSelect(St, A.intLit(0));
  EXPECT_EQ(A.sort(Sel), Ctx.intType());
}

//===----------------------------------------------------------------------===//
// Expression translation
//===----------------------------------------------------------------------===//

TEST(Translate, CanonicalizesComparisons) {
  AstContext Ctx;
  TermArena A;
  const Expr *X = Ctx.tVar(Ctx.sym("x"), Ctx.intType());
  const Expr *Y = Ctx.tVar(Ctx.sym("y"), Ctx.intType());
  VarTermMap Map;
  TermRef TX = A.freshConst(Ctx.intType(), "x");
  TermRef TY = A.freshConst(Ctx.intType(), "y");
  Map[Ctx.sym("x")] = TX;
  Map[Ctx.sym("y")] = TY;

  TermRef Gt = translateExpr(A, Ctx.tBinary(BinOp::Gt, X, Y), Map);
  EXPECT_EQ(Gt, A.mkLt(TY, TX));
  TermRef Ge = translateExpr(A, Ctx.tBinary(BinOp::Ge, X, Y), Map);
  EXPECT_EQ(Ge, A.mkLe(TY, TX));
  TermRef Ne = translateExpr(A, Ctx.tBinary(BinOp::Ne, X, Y), Map);
  EXPECT_EQ(Ne, A.mkNot(A.mkEq(TX, TY)));
}

TEST(Translate, SubstitutionApplies) {
  AstContext Ctx;
  TermArena A;
  const Expr *X = Ctx.tVar(Ctx.sym("x"), Ctx.intType());
  const Expr *E = Ctx.tBinary(BinOp::Add, X, Ctx.tInt(1));
  VarTermMap Map;
  Map[Ctx.sym("x")] = A.intLit(41);
  TermRef T = translateExpr(A, E, Map);
  EXPECT_EQ(T, A.mkAdd(A.intLit(41), A.intLit(1)));
}

//===----------------------------------------------------------------------===//
// SMT-LIB printer
//===----------------------------------------------------------------------===//

TEST(SmtLib, TermRendering) {
  AstContext Ctx;
  TermArena A;
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef T = A.mkLe(A.mkAdd(X, A.intLit(-2)), A.intLit(3));
  std::string S = printTerm(A, T);
  EXPECT_EQ(S, "(<= (+ x!0 (- 2)) 3)");
}

TEST(SmtLib, ScriptDeclaresConstants) {
  AstContext Ctx;
  TermArena A;
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  TermRef X = A.freshConst(Ctx.intType(), "x");
  const Type *ArrTy = Ctx.arrayType(Ctx.intType(), Ctx.boolType());
  TermRef Arr = A.freshConst(ArrTy, "m");
  std::string S = printScript(
      A, {A.mkImplies(P, A.mkEq(X, A.intLit(1))),
          A.mkEq(A.mkSelect(Arr, X), P)});
  EXPECT_NE(S.find("(declare-const p!0 Bool)"), std::string::npos);
  EXPECT_NE(S.find("(declare-const x!1 Int)"), std::string::npos);
  EXPECT_NE(S.find("(declare-const m!2 (Array Int Bool))"),
            std::string::npos);
  EXPECT_NE(S.find("(check-sat)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Z3 backend
//===----------------------------------------------------------------------===//

TEST(Z3, SatAndUnsat) {
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  S->assertTerm(A.mkLt(A.intLit(0), X));
  EXPECT_EQ(S->check(), SolveResult::Sat);
  EXPECT_GT(std::stoll(S->modelNumeral(X)), 0);
  S->assertTerm(A.mkLt(X, A.intLit(0)));
  EXPECT_EQ(S->check(), SolveResult::Unsat);
}

TEST(Z3, PushPopRestoresState) {
  // The solver has no assertion scopes: a temporary fact is guarded by an
  // assumption literal, holds only in checks assuming it, and leaves the
  // asserted state as it was.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  S->assertTerm(A.mkEq(X, A.intLit(5)));
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  S->assertTerm(A.mkImplies(P, A.mkEq(X, A.intLit(6))));
  EXPECT_EQ(S->check({P}, 0), SolveResult::Unsat);
  EXPECT_EQ(S->check(), SolveResult::Sat);
  EXPECT_EQ(S->modelNumeral(X), "5");
}

TEST(Z3, ErrorMakesLaterChecksUnknown) {
  // Z3 rejects a non-boolean assertion and would drop it; the solver must
  // not then answer sat for a formula it never saw.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  S->assertTerm(A.mkEq(X, A.intLit(1)));
  ASSERT_EQ(S->check(), SolveResult::Sat);
  S->assertTerm(A.intLit(7));
  EXPECT_EQ(S->check(), SolveResult::Unknown);
  S->assertTerm(A.mkEq(X, A.intLit(2)));
  EXPECT_EQ(S->check(), SolveResult::Unknown);
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  EXPECT_EQ(S->check({P}, 0), SolveResult::Unknown);
  // Other solvers are unaffected.
  auto Fresh = createZ3Solver(A);
  Fresh->assertTerm(A.mkEq(X, A.intLit(1)));
  EXPECT_EQ(Fresh->check(), SolveResult::Sat);
}

TEST(Z3, WideModelValues) {
  // Ints outside int64 and bit-vector values of 2^63 or more are exact in
  // modelNumeral (bit-vectors unsigned).
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef Big = A.freshConst(Ctx.intType(), "big");
  TermRef Small = A.freshConst(Ctx.intType(), "small");
  TermRef Bv = A.freshConst(Ctx.bvType(64), "bv");
  int64_t Max = std::numeric_limits<int64_t>::max();
  int64_t Min = std::numeric_limits<int64_t>::min();
  S->assertTerm(A.mkEq(Big, A.mkAdd(A.intLit(Max), A.intLit(1))));
  S->assertTerm(A.mkEq(Small, A.mkSub(A.intLit(Min), A.intLit(1))));
  S->assertTerm(A.mkEq(Bv, A.bvLit(~uint64_t(0), Ctx.bvType(64))));
  ASSERT_EQ(S->check(), SolveResult::Sat);
  EXPECT_EQ(S->modelNumeral(Big), "9223372036854775808");
  EXPECT_EQ(S->modelNumeral(Small), "-9223372036854775809");
  EXPECT_EQ(S->modelNumeral(Bv), "18446744073709551615");
}

TEST(Z3, CheckUnderAssumptions) {
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  TermRef X = A.freshConst(Ctx.intType(), "x");
  S->assertTerm(A.mkImplies(P, A.mkEq(X, A.intLit(1))));
  S->assertTerm(A.mkEq(X, A.intLit(2)));
  // Permanent state stays satisfiable...
  EXPECT_EQ(S->check(), SolveResult::Sat);
  // ...but assuming P contradicts it, without polluting the state.
  EXPECT_EQ(S->check({P}, 0), SolveResult::Unsat);
  EXPECT_EQ(S->check({A.mkNot(P)}, 0), SolveResult::Sat);
  EXPECT_TRUE(!S->modelBool(P));
}

TEST(Z3, UnsatCoreNamesBlockingAssumptions) {
  // The core lists positions in the assumption list: here the assumption a
  // clashes with a -> x and not x, and the unrelated not b is left out.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef Ta = A.freshConst(Ctx.boolType(), "a");
  TermRef Tb = A.freshConst(Ctx.boolType(), "b");
  TermRef Tx = A.freshConst(Ctx.boolType(), "x");
  S->assertTerm(A.mkImplies(Ta, Tx));
  S->assertTerm(A.mkNot(Tx));
  ASSERT_EQ(S->check({A.mkNot(Tb), Ta}, 0), SolveResult::Unsat);
  std::vector<unsigned> Core = S->unsatCore();
  EXPECT_NE(std::find(Core.begin(), Core.end(), 1u), Core.end());
  EXPECT_EQ(std::find(Core.begin(), Core.end(), 0u), Core.end());
  // Unsat assertions need no assumption: the core is empty.
  S->assertTerm(Tx);
  ASSERT_EQ(S->check({A.mkNot(Tb), Ta}, 0), SolveResult::Unsat);
  EXPECT_TRUE(S->unsatCore().empty());
}

TEST(Z3, BoolModels) {
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  TermRef Q = A.freshConst(Ctx.boolType(), "q");
  S->assertTerm(P);
  S->assertTerm(A.mkNot(Q));
  ASSERT_EQ(S->check(), SolveResult::Sat);
  EXPECT_TRUE(S->modelBool(P));
  EXPECT_FALSE(S->modelBool(Q));
}

TEST(Z3, AssignmentMatchesModelOnForcedConstants) {
  // Every constant below is forced by the assertions, so the search's final
  // assignment and the model must agree on each: directly asserted, forced
  // through an implication, through an equivalence with an arithmetic atom,
  // and through a clause whose other literal is false.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  std::vector<TermRef> B;
  for (unsigned I = 0; I < 6; ++I)
    B.push_back(A.freshConst(Ctx.boolType(), "b"));
  S->assertTerm(B[0]);
  S->assertTerm(A.mkNot(B[1]));
  S->assertTerm(A.mkImplies(B[0], B[2]));
  S->assertTerm(A.mkEq(X, A.intLit(4)));
  S->assertTerm(A.mkEq(B[3], A.mkLt(A.intLit(3), X)));
  S->assertTerm(A.mkEq(B[4], A.mkLt(X, A.intLit(3))));
  S->assertTerm(A.mkOr(B[1], B[5]));
  ASSERT_EQ(S->check({B[2]}, 0), SolveResult::Sat);
  for (unsigned I = 0; I < B.size(); ++I)
    EXPECT_EQ(S->assignedTrue(B[I]), S->modelBool(B[I])) << "b" << I;
  EXPECT_TRUE(S->assignedTrue(B[3]));
  EXPECT_FALSE(S->assignedTrue(B[4]));
}

TEST(Z3, ModelAfterAssignmentIsExact) {
  // Reading the assignment first must not spoil the model built after it:
  // its values stay exact, wide ones included.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef Big = A.freshConst(Ctx.intType(), "big");
  int64_t Max = std::numeric_limits<int64_t>::max();
  S->assertTerm(A.mkImplies(P, A.mkEq(X, A.intLit(-12))));
  S->assertTerm(A.mkEq(Big, A.mkAdd(A.intLit(Max), A.intLit(1))));
  ASSERT_EQ(S->check({P}, 0), SolveResult::Sat);
  EXPECT_TRUE(S->assignedTrue(P));
  EXPECT_EQ(S->modelNumeral(X), "-12");
  EXPECT_EQ(S->modelNumeral(Big), "9223372036854775808");
  EXPECT_TRUE(S->modelBool(P));
}

TEST(Z3, ModelAndAssignmentFollowTheLastCheck) {
  // The model and the assignment are read lazily, so assertTerm and check
  // must drop them: after Sat, an assertion and a second Sat check, both
  // reads reflect the second check, not the first one's cached state.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef P = A.freshConst(Ctx.boolType(), "p");
  TermRef Low = A.freshConst(Ctx.boolType(), "low");
  S->assertTerm(A.mkEq(P, A.mkLt(A.intLit(10), X)));
  S->assertTerm(A.mkLe(A.intLit(0), X));
  S->assertTerm(A.mkImplies(Low, A.mkLe(X, A.intLit(3))));
  ASSERT_EQ(S->check({Low}, 0), SolveResult::Sat);
  EXPECT_FALSE(S->assignedTrue(P));
  EXPECT_FALSE(S->modelBool(P));
  EXPECT_LE(std::stoll(S->modelNumeral(X)), 3);

  S->assertTerm(A.mkEq(X, A.intLit(11)));
  ASSERT_EQ(S->check(), SolveResult::Sat);
  EXPECT_TRUE(S->assignedTrue(P));
  EXPECT_TRUE(S->modelBool(P));
  EXPECT_EQ(S->modelNumeral(X), "11");
}

TEST(Z3, UnknownSaysWhy) {
  // An Unknown check names its cause: Z3's own reason for a timeout, the
  // recorded error after a failed assertion. Decided checks name none.
  // Unknown is final, so each cause gets its own solver.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef Hard = assumptionLiteral(*S, A, Ctx, pigeonhole(A, Ctx, 9, 8));
  ASSERT_EQ(S->check({A.mkNot(Hard)}, 0), SolveResult::Sat);
  EXPECT_TRUE(S->reasonUnknown().empty());
  ASSERT_EQ(S->check({Hard}, 0.001), SolveResult::Unknown);
  EXPECT_FALSE(S->reasonUnknown().empty());
  auto Bad = createZ3Solver(A);
  Bad->assertTerm(A.intLit(7));
  ASSERT_EQ(Bad->check(), SolveResult::Unknown);
  EXPECT_NE(Bad->reasonUnknown().find("z3 error"), std::string::npos)
      << Bad->reasonUnknown();
}

TEST(Z3, ArraysDecided) {
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  const Type *ArrTy = Ctx.arrayType(Ctx.intType(), Ctx.intType());
  TermRef Arr = A.freshConst(ArrTy, "a");
  TermRef I = A.freshConst(Ctx.intType(), "i");
  // select(store(a, i, 7), i) == 7 is valid: its negation is unsat.
  TermRef Sel = A.mkSelect(A.mkStore(Arr, I, A.intLit(7)), I);
  S->assertTerm(A.mkNot(A.mkEq(Sel, A.intLit(7))));
  EXPECT_EQ(S->check(), SolveResult::Unsat);
}

TEST(Z3, EuclideanDivModSemantics) {
  // Z3's div/mod must match the evaluator's Euclidean convention.
  TermArena A;
  auto S = createZ3Solver(A);
  S->assertTerm(A.mkEq(A.mkDiv(A.intLit(-7), A.intLit(2)), A.intLit(-4)));
  S->assertTerm(A.mkEq(A.mkMod(A.intLit(-7), A.intLit(2)), A.intLit(1)));
  S->assertTerm(A.mkEq(A.mkDiv(A.intLit(7), A.intLit(-2)), A.intLit(-3)));
  S->assertTerm(A.mkEq(A.mkMod(A.intLit(7), A.intLit(-2)), A.intLit(1)));
  EXPECT_EQ(S->check(), SolveResult::Sat);
}

TEST(Z3, DeepTermTranslationIsIterative) {
  // A deep left-leaning sum; recursive translation would overflow the
  // stack around 1e5 nodes.
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  TermRef Sum = X;
  for (int I = 0; I < 200000; ++I)
    Sum = A.mkAdd(Sum, A.intLit(1));
  S->assertTerm(A.mkEq(Sum, A.intLit(200000)));
  ASSERT_EQ(S->check(), SolveResult::Sat);
  EXPECT_EQ(S->modelNumeral(X), "0");
}

TEST(Z3, TimeoutParameterDoesNotBreakEasyChecks) {
  // Each check sets its deadline on the solver's context; a
  // tiny-but-sufficient budget must still answer easy queries correctly,
  // and a subsequent unlimited check must be unaffected. (Z3's timeout is
  // best-effort inside its nonlinear core, so engine-level deadlines —
  // tested in engine_test — are the wall-clock authority; here we only
  // verify the plumbing.)
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef X = A.freshConst(Ctx.intType(), "x");
  S->assertTerm(A.mkEq(X, A.intLit(9)));
  EXPECT_EQ(S->check({}, 5.0), SolveResult::Sat);
  EXPECT_EQ(S->modelNumeral(X), "9");
  S->assertTerm(A.mkLt(X, A.intLit(0)));
  EXPECT_EQ(S->check({}, 0), SolveResult::Unsat);
}

TEST(Z3, TimeoutDoesNotOutliveItsCheck) {
  // Two independent hard formulas, each behind its own literal. The first
  // check runs out of its 1 ms budget. Unknown is final: the unlimited check
  // after it answers Unknown with the first reason at once, rather than
  // search a solver that gave up (which could answer Sat for this unsat
  // formula).
  AstContext Ctx;
  TermArena A;
  auto S = createZ3Solver(A);
  TermRef H1 = assumptionLiteral(*S, A, Ctx, pigeonhole(A, Ctx, 9, 8));
  TermRef H2 = assumptionLiteral(*S, A, Ctx, pigeonhole(A, Ctx, 8, 7));
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(S->check({H1}, 0.001), SolveResult::Unknown);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count(),
            2.0);
  std::string Reason = S->reasonUnknown();
  EXPECT_FALSE(Reason.empty());
  EXPECT_EQ(S->check({H2}, 0), SolveResult::Unknown);
  EXPECT_EQ(S->reasonUnknown(), Reason);
}

TEST(SmtLib, ScriptsReparseUnderZ3WithSameVerdict) {
  // Cross-check the SMT-LIB printer against the direct Z3 translation:
  // every printed script must parse under Z3's own SMT-LIB reader and give
  // the same sat/unsat answer as asserting the terms natively.
  AstContext Ctx;
  const Type *ArrTy = Ctx.arrayType(Ctx.intType(), Ctx.intType());

  auto CrossCheck = [&](const std::vector<TermRef> &Assertions,
                        TermArena &A) {
    // Native result.
    auto Native = createZ3Solver(A);
    for (TermRef T : Assertions)
      Native->assertTerm(T);
    SolveResult Direct = Native->check();

    // Parse the printed script in a raw Z3 context.
    std::string Script = printScript(A, Assertions);
    Z3_config Config = Z3_mk_config();
    Z3_context Z = Z3_mk_context(Config);
    Z3_del_config(Config);
    Z3_ast_vector Parsed =
        Z3_parse_smtlib2_string(Z, Script.c_str(), 0, nullptr, nullptr, 0,
                                nullptr, nullptr);
    ASSERT_NE(Parsed, nullptr) << Script;
    Z3_ast_vector_inc_ref(Z, Parsed);
    Z3_solver S = Z3_mk_solver(Z);
    Z3_solver_inc_ref(Z, S);
    for (unsigned I = 0; I < Z3_ast_vector_size(Z, Parsed); ++I)
      Z3_solver_assert(Z, S, Z3_ast_vector_get(Z, Parsed, I));
    Z3_lbool R = Z3_solver_check(Z, S);
    SolveResult Reparsed = R == Z3_L_TRUE    ? SolveResult::Sat
                           : R == Z3_L_FALSE ? SolveResult::Unsat
                                             : SolveResult::Unknown;
    EXPECT_EQ(Direct, Reparsed) << Script;
    Z3_solver_dec_ref(Z, S);
    Z3_ast_vector_dec_ref(Z, Parsed);
    Z3_del_context(Z);
  };

  {
    // Mixed int/bool/array, satisfiable.
    TermArena A;
    TermRef X = A.freshConst(Ctx.intType(), "x");
    TermRef P = A.freshConst(Ctx.boolType(), "p");
    TermRef Arr = A.freshConst(ArrTy, "m");
    CrossCheck({A.mkImplies(P, A.mkLt(A.intLit(0), X)),
                A.mkEq(A.mkSelect(Arr, X), A.mkAdd(X, A.intLit(-3))), P},
               A);
  }
  {
    // Unsatisfiable int constraints with div/mod.
    TermArena A;
    TermRef X = A.freshConst(Ctx.intType(), "x");
    CrossCheck({A.mkEq(A.mkMod(X, A.intLit(2)), A.intLit(1)),
                A.mkEq(A.mkMul(A.intLit(2), A.mkDiv(X, A.intLit(2))), X)},
               A);
  }
  {
    // Bitvectors, satisfiable only via wraparound.
    TermArena A;
    const Type *Bv8 = Ctx.bvType(8);
    TermRef W = A.freshConst(Bv8, "w");
    CrossCheck({A.mkEq(A.mkAdd(W, A.bvLit(1, Bv8)), A.bvLit(0, Bv8)),
                A.mkLt(A.bvLit(100, Bv8), W)},
               A);
  }
}

TEST(Z3, NumChecksCounted) {
  TermArena A;
  auto S = createZ3Solver(A);
  EXPECT_EQ(S->numChecks(), 0u);
  S->check();
  S->check();
  EXPECT_EQ(S->numChecks(), 2u);
}
