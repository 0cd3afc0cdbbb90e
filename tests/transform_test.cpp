//===- transform_test.cpp - Unit tests for src/transform --------------------===//

#include "TestSupport.h"
#include "ast/AstPrinter.h"
#include "ast/Eval.h"
#include "transform/Transforms.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

bool hasLoops(const std::vector<const Stmt *> &Block) {
  for (const Stmt *S : Block) {
    switch (S->kind()) {
    case StmtKind::While:
      return true;
    case StmtKind::If:
      if (hasLoops(S->thenBlock()) || hasLoops(S->elseBlock()))
        return true;
      break;
    default:
      break;
    }
  }
  return false;
}

bool hasAsserts(const std::vector<const Stmt *> &Block) {
  for (const Stmt *S : Block) {
    switch (S->kind()) {
    case StmtKind::Assert:
      return true;
    case StmtKind::If:
      if (hasAsserts(S->thenBlock()) || hasAsserts(S->elseBlock()))
        return true;
      break;
    case StmtKind::While:
      if (hasAsserts(S->loopBody()))
        return true;
      break;
    default:
      break;
    }
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Loop unrolling
//===----------------------------------------------------------------------===//

TEST(UnrollLoops, RemovesAllLoops) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var i: int;
      while (i < 3) { i := i + 1; while (*) { i := i + 2; } }
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unrollLoops(Ctx, *P, 4);
  for (const Procedure &Proc : U.Procedures)
    EXPECT_FALSE(hasLoops(Proc.Body));
}

TEST(UnrollLoops, PreservesBehaviourWithinBound) {
  // A loop that runs exactly 3 iterations and then asserts.
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      var i: int;
      i := 0;
      g := 0;
      while (i < 3) { i := i + 1; g := g + 2; }
      assert g == 6;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unrollLoops(Ctx, *P, 3);
  EvalResult R = evaluate(Ctx, U, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(UnrollLoops, BlocksBeyondBoundForDeterministicGuards) {
  // With bound 2 the loop above cannot finish: the residual guard check
  // blocks every execution (under-approximation).
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      var i: int;
      i := 0;
      while (i < 3) { i := i + 1; }
      g := 1;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unrollLoops(Ctx, *P, 2);
  EvalResult R = evaluate(Ctx, U, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Blocked);
}

TEST(UnrollLoops, NondetGuardSimplyStops) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      g := 0;
      while (*) { g := g + 1; }
      assert g <= 2;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  // Bound 2: at most 2 iterations exist, so the assert can never fail and
  // no execution blocks.
  Program U = unrollLoops(Ctx, *P, 2);
  for (uint64_t Seed = 0; Seed < 32; ++Seed) {
    EvalOptions Opts;
    Opts.Seed = Seed;
    EvalResult R = evaluate(Ctx, U, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
  }
}

TEST(UnrollLoops, NoLoopNoChange) {
  AstContext Ctx;
  auto P = parseOk("procedure main() { var x: int; x := 1; }", Ctx);
  ASSERT_TRUE(P);
  Program U = unrollLoops(Ctx, *P, 5);
  // Statement pointers are shared when nothing changes.
  EXPECT_EQ(U.Procedures[0].Body[0], P->Procedures[0].Body[0]);
}

//===----------------------------------------------------------------------===//
// Recursion unfolding
//===----------------------------------------------------------------------===//

TEST(UnfoldRecursion, AcyclicProgramsUntouched) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure f() { }
    procedure main() { call f(); }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unfoldRecursion(Ctx, *P, 3);
  EXPECT_EQ(U.Procedures.size(), 2u);
}

TEST(UnfoldRecursion, ClonesCyclicProcedures) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure rec(d: int) { if (d > 0) { call rec(d - 1); } }
    procedure helper() { }
    procedure main() { call rec(5); call helper(); }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unfoldRecursion(Ctx, *P, 3);
  // rec gets 3 copies; helper and main stay single.
  EXPECT_EQ(U.Procedures.size(), 5u);
  EXPECT_TRUE(U.findProc(Ctx.sym("rec")));
  EXPECT_TRUE(U.findProc(Ctx.sym("rec.d2")));
  EXPECT_TRUE(U.findProc(Ctx.sym("rec.d3")));
  EXPECT_FALSE(U.findProc(Ctx.sym("rec.d4")));
}

TEST(UnfoldRecursion, MutualRecursionHandled) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure even(n: int) returns (r: bool) {
      if (n == 0) { r := true; } else { call r := odd(n - 1); }
    }
    procedure odd(n: int) returns (r: bool) {
      if (n == 0) { r := false; } else { call r := even(n - 1); }
    }
    procedure main() {
      var b: bool;
      call b := even(4);
      assert b;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unfoldRecursion(Ctx, *P, 6);
  // even and odd each get 6 copies, main stays.
  EXPECT_EQ(U.Procedures.size(), 13u);
  // Semantics preserved within the bound: even(4) is true (needs depth 5).
  EvalResult R = evaluate(Ctx, U, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(UnfoldRecursion, BeyondBoundBlocks) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure down(d: int) { if (d > 0) { call down(d - 1); } }
    procedure main() { call down(10); }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  Program U = unfoldRecursion(Ctx, *P, 3);
  // Depth 11 needed but only 3 available: the run hits `assume false`.
  EvalResult R = evaluate(Ctx, U, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Blocked);
}

//===----------------------------------------------------------------------===//
// Assertion instrumentation
//===----------------------------------------------------------------------===//

TEST(Instrument, RemovesAssertsAddsErrBit) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure f() { assert g > 0; }
    procedure main() { g := 1; call f(); assert g == 1; }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  BoundedInstance I = instrumentAsserts(Ctx, *P, Ctx.sym("main"));
  EXPECT_EQ(I.NumAsserts, 2u);
  EXPECT_EQ(I.Prog.Globals.size(), 2u);
  EXPECT_EQ(Ctx.name(I.ErrVar), "$err");
  for (const Procedure &Proc : I.Prog.Procedures)
    EXPECT_FALSE(hasAsserts(Proc.Body));
}

TEST(Instrument, ErrNameAvoidsCollision) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var $err: bool;
    procedure main() { assert $err; }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  BoundedInstance I = instrumentAsserts(Ctx, *P, Ctx.sym("main"));
  EXPECT_EQ(Ctx.name(I.ErrVar), "$err_");
}

TEST(Instrument, ErrBitSemanticsViaEvaluator) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure f() { assert g == 0; g := 7; }
    procedure main() { g := 1; call f(); g := 5; }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  BoundedInstance I = instrumentAsserts(Ctx, *P, Ctx.sym("main"));
  // In the instrumented program no assert remains; the failing run sets
  // $err and bails out, leaving g at 1 (the write after the failing assert
  // and the caller's continuation are skipped).
  EvalResult R = evaluate(Ctx, I.Prog, Ctx.sym("main"), {});
  EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
}

TEST(Instrument, EntryClearsErrFirst) {
  AstContext Ctx;
  auto P = parseOk("procedure main() { assert true; }", Ctx);
  ASSERT_TRUE(P);
  BoundedInstance I = instrumentAsserts(Ctx, *P, Ctx.sym("main"));
  const Procedure *Main = I.Prog.findProc(Ctx.sym("main"));
  ASSERT_TRUE(Main);
  ASSERT_FALSE(Main->Body.empty());
  EXPECT_EQ(Main->Body[0]->kind(), StmtKind::Assign);
  EXPECT_EQ(Main->Body[0]->assignTarget(), I.ErrVar);
}

//===----------------------------------------------------------------------===//
// prepareBounded composition
//===----------------------------------------------------------------------===//

TEST(PrepareBounded, FullPipeline) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure rec(d: int) {
      if (d > 0) { call rec(d - 1); }
    }
    procedure main() {
      var i: int;
      i := 0;
      while (i < 2) { i := i + 1; }
      call rec(1);
      assert i == 2;
    }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  BoundedInstance B = prepareBounded(Ctx, *P, Ctx.sym("main"), 3);
  EXPECT_EQ(B.NumAsserts, 1u);
  EXPECT_EQ(B.NumProcsUnreached, 0u);
  for (const Procedure &Proc : B.Prog.Procedures) {
    EXPECT_FALSE(hasLoops(Proc.Body));
    EXPECT_FALSE(hasAsserts(Proc.Body));
  }
  // rec cloned 3 times + main = 4 procedures.
  EXPECT_EQ(B.Prog.Procedures.size(), 4u);
}

TEST(PrepareBounded, DropsProceduresTheEntryDoesNotCall) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure leaf() { assert true; }
    procedure spin(d: int) {
      if (d > 0) { call spin(d - 1); }
      assert d >= 0;
    }
    procedure only() { assert false; }
    procedure orphan() { call leaf(); call only(); assert false; }
    procedure mid() { call leaf(); }
    procedure main() { call mid(); assert true; }
  )",
                   Ctx);
  ASSERT_TRUE(P);
  auto Names = [&](const BoundedInstance &B) {
    std::vector<std::string> Out;
    for (const Procedure &Proc : B.Prog.Procedures)
      Out.push_back(Ctx.name(Proc.Name));
    return Out;
  };

  // From main: the recursive spin is not cloned; orphan calls leaf, which
  // main reaches through mid, and only, which nothing reached calls; the
  // asserts of spin, only and orphan are not instrumented.
  BoundedInstance Main = prepareBounded(Ctx, *P, Ctx.sym("main"), 3);
  EXPECT_EQ(Names(Main), (std::vector<std::string>{"leaf", "mid", "main"}));
  EXPECT_EQ(Main.NumAsserts, 2u);
  EXPECT_EQ(Main.NumProcsUnreached, 3u);

  // Another entry keeps its own reach, in declaration order.
  BoundedInstance Orphan = prepareBounded(Ctx, *P, Ctx.sym("orphan"), 3);
  EXPECT_EQ(Names(Orphan),
            (std::vector<std::string>{"leaf", "only", "orphan"}));
  EXPECT_EQ(Orphan.NumAsserts, 3u);
  EXPECT_EQ(Orphan.NumProcsUnreached, 3u);
  BoundedInstance Spin = prepareBounded(Ctx, *P, Ctx.sym("spin"), 3);
  EXPECT_EQ(Names(Spin),
            (std::vector<std::string>{"spin", "spin.d2", "spin.d3"}));
  EXPECT_EQ(Spin.NumAsserts, 3u);
  EXPECT_EQ(Spin.NumProcsUnreached, 5u);

  // A leaf entry reaches only itself; instrumentAsserts alone drops nothing.
  EXPECT_EQ(Names(prepareBounded(Ctx, *P, Ctx.sym("leaf"), 1)),
            (std::vector<std::string>{"leaf"}));
  EXPECT_EQ(instrumentAsserts(Ctx, *P, Ctx.sym("main")).NumProcsUnreached, 0u);
}
