//===- analysis_test.cpp - Interval domain and invariant injection ----------===//

#include "TestSupport.h"
#include "analysis/Interval.h"
#include "analysis/InvariantGen.h"
#include "ast/AstPrinter.h"
#include "workload/Chain.h"

#include <gtest/gtest.h>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Interval domain algebra
//===----------------------------------------------------------------------===//

TEST(Interval, Constructors) {
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::bottom().isBottom());
  EXPECT_TRUE(Interval::constant(5).isConstant());
  EXPECT_TRUE(Interval::bounded(3, 2).isBottom()); // inverted
  EXPECT_TRUE(Interval::atLeast(0).hasLo());
  EXPECT_FALSE(Interval::atLeast(0).hasHi());
}

TEST(Interval, JoinAndMeet) {
  Interval A = Interval::bounded(0, 5);
  Interval B = Interval::bounded(3, 9);
  Interval J = A.join(B);
  EXPECT_EQ(J, Interval::bounded(0, 9));
  Interval M = A.meet(B);
  EXPECT_EQ(M, Interval::bounded(3, 5));
  EXPECT_TRUE(A.meet(Interval::bounded(6, 7)).isBottom());
  EXPECT_EQ(A.join(Interval::bottom()), A);
  EXPECT_EQ(A.meet(Interval::top()), A);
  EXPECT_TRUE(A.join(Interval::atLeast(-3)).hasLo());
  EXPECT_FALSE(A.join(Interval::atLeast(-3)).hasHi());
}

TEST(Interval, Arithmetic) {
  Interval A = Interval::bounded(1, 3);
  Interval B = Interval::bounded(-2, 4);
  EXPECT_EQ(A.add(B), Interval::bounded(-1, 7));
  EXPECT_EQ(A.sub(B), Interval::bounded(-3, 5));
  EXPECT_EQ(A.neg(), Interval::bounded(-3, -1));
  EXPECT_EQ(A.mul(B), Interval::bounded(-6, 12));
  // Unbounded operands degrade gracefully.
  EXPECT_TRUE(A.add(Interval::atLeast(0)).hasLo());
  EXPECT_FALSE(A.add(Interval::atLeast(0)).hasHi());
  EXPECT_TRUE(A.mul(Interval::top()).isTop());
}

TEST(Interval, OverflowWidensInsteadOfWrapping) {
  Interval Huge = Interval::constant(INT64_MAX);
  Interval Sum = Huge.add(Interval::constant(1));
  EXPECT_FALSE(Sum.hasHi());
  Interval Prod = Huge.mul(Interval::constant(2));
  EXPECT_TRUE(Prod.isTop());
}

TEST(Interval, Comparisons) {
  Interval Low = Interval::bounded(0, 3);
  Interval High = Interval::bounded(5, 9);
  EXPECT_EQ(Low.ltCmp(High), Interval::constant(1));
  EXPECT_EQ(High.ltCmp(Low), Interval::constant(0));
  EXPECT_EQ(Low.ltCmp(Low), Interval::boolTop());
  EXPECT_EQ(Interval::constant(4).eqCmp(Interval::constant(4)),
            Interval::constant(1));
  EXPECT_EQ(Low.eqCmp(High), Interval::constant(0));
  // [0,3] <= 3 holds for every member: definitely true.
  EXPECT_EQ(Low.leCmp(Interval::constant(3)), Interval::constant(1));
  // [0,3] < 3 is undecided (0 < 3 but 3 < 3 fails).
  EXPECT_EQ(Low.ltCmp(Interval::constant(3)), Interval::boolTop());
}

TEST(AbsEnvTest, JoinDropsOneSidedKeys) {
  StringInterner I;
  Symbol X = I.intern("x"), Y = I.intern("y");
  AbsEnv A, B;
  A.set(X, Interval::constant(1));
  A.set(Y, Interval::constant(2));
  B.set(X, Interval::constant(3));
  A.joinWith(B);
  EXPECT_EQ(A.get(X), Interval::bounded(1, 3));
  EXPECT_TRUE(A.get(Y).isTop()); // missing in B => top
  AbsEnv Before = A;
  A.joinWith(B); // idempotent
  EXPECT_EQ(A, Before);
  A.joinWith(AbsEnv::bottomEnv()); // bottom is the identity
  EXPECT_EQ(A, Before);
  AbsEnv Bot = AbsEnv::bottomEnv();
  Bot.joinWith(A);
  EXPECT_FALSE(Bot.isBottom());
  EXPECT_EQ(Bot, A);
  AbsEnv Top;
  A.joinWith(Top); // the last key goes to top
  EXPECT_TRUE(A.get(X).isTop());
  EXPECT_EQ(A, Top);
}

TEST(AbsEnvTest, BottomPropagation) {
  StringInterner I;
  AbsEnv E;
  E.set(I.intern("x"), Interval::bottom());
  EXPECT_TRUE(E.isBottom());
  EXPECT_TRUE(E.get(I.intern("y")).isBottom());
}

//===----------------------------------------------------------------------===//
// Whole-program analysis
//===----------------------------------------------------------------------===//

namespace {

struct Analyzed : Lowered {
  std::unique_ptr<IntervalAnalysis> Analysis;

  explicit Analyzed(const char *Src)
      : Lowered(Src),
        Analysis(std::make_unique<IntervalAnalysis>(Cfg, Root)) {}
  ProcId proc(const char *Name) { return Cfg.findProc(Ctx.sym(Name)); }
};

} // namespace

TEST(IntervalAnalysis, ConstantPropagationThroughCalls) {
  Analyzed A(R"(
    var g: int;
    procedure callee() { }
    procedure main() {
      g := 7;
      call callee();
    }
  )");
  const AbsEnv &E = A.Analysis->entryEnv(A.proc("callee"));
  EXPECT_EQ(E.get(A.Ctx.sym("g")), Interval::constant(7));
}

TEST(IntervalAnalysis, JoinOverCallContexts) {
  Analyzed A(R"(
    var g: int;
    procedure callee() { }
    procedure main() {
      if (*) { g := 1; call callee(); }
      else   { g := 5; call callee(); }
    }
  )");
  const AbsEnv &E = A.Analysis->entryEnv(A.proc("callee"));
  EXPECT_EQ(E.get(A.Ctx.sym("g")), Interval::bounded(1, 5));
}

TEST(IntervalAnalysis, ParameterIntervals) {
  Analyzed A(R"(
    procedure callee(x: int) { }
    procedure main() {
      if (*) { call callee(2); } else { call callee(9); }
    }
  )");
  const AbsEnv &E = A.Analysis->entryEnv(A.proc("callee"));
  EXPECT_EQ(E.get(A.Ctx.sym("x")), Interval::bounded(2, 9));
}

TEST(IntervalAnalysis, AssumeRefinement) {
  Analyzed A(R"(
    var g: int;
    procedure callee() { }
    procedure main() {
      havoc g;
      assume g >= 0 && g < 10;
      call callee();
    }
  )");
  const AbsEnv &E = A.Analysis->entryEnv(A.proc("callee"));
  EXPECT_EQ(E.get(A.Ctx.sym("g")), Interval::bounded(0, 9));
}

TEST(IntervalAnalysis, ExitSummaries) {
  Analyzed A(R"(
    var g: int;
    procedure setter() returns (r: int) { g := 3; r := 4; }
    procedure main() {
      var x: int;
      call x := setter();
      call probe();
    }
    procedure probe() { }
  )");
  const AbsEnv &Summary = A.Analysis->contextExitSummary(A.proc("setter"));
  EXPECT_EQ(Summary.get(A.Ctx.sym("g")), Interval::constant(3));
  EXPECT_EQ(Summary.get(A.Ctx.sym("r")), Interval::constant(4));
  // And the caller's post-call state reflects the summary.
  const AbsEnv &E = A.Analysis->entryEnv(A.proc("probe"));
  EXPECT_EQ(E.get(A.Ctx.sym("g")), Interval::constant(3));
}

TEST(IntervalAnalysis, UnreachableProcIsBottom) {
  Analyzed A(R"(
    procedure orphan() { }
    procedure main() { }
  )");
  EXPECT_TRUE(A.Analysis->entryEnv(A.proc("orphan")).isBottom());
  EXPECT_FALSE(A.Analysis->entryEnv(A.proc("main")).isBottom());
}

TEST(IntervalAnalysis, ChainInvariantGEqualsI) {
  // The paper's chain program: the invariant at Pi's entry is g == i
  // (Section 1: "the invariant at the beginning of procedure Pi is that
  // g == i").
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 4);
  ProcId Main = InvalidProc;
  Symbol ErrVar;
  CfgProgram Cfg = lower(Ctx, P, Main, ErrVar, 1);
  IntervalAnalysis Analysis(Cfg, Main);
  for (unsigned I = 0; I <= 4; ++I) {
    ProcId Pi = Cfg.findProc(Ctx.sym("P" + std::to_string(I)));
    ASSERT_NE(Pi, InvalidProc);
    EXPECT_EQ(Analysis.entryEnv(Pi).get(Ctx.sym("g")),
              Interval::constant(I))
        << "P" << I;
  }
  // The contextual exit summary of every Pi pins g to N and the error bit
  // to false — the summaries that let "+Inv" prune open calls.
  ProcId P0 = Cfg.findProc(Ctx.sym("P0"));
  EXPECT_EQ(Analysis.contextExitSummary(P0).get(Ctx.sym("g")),
            Interval::constant(4));
  EXPECT_EQ(Analysis.contextExitSummary(P0).get(ErrVar),
            Interval::constant(0));
}

TEST(IntervalAnalysis, SequentialCallFixpoint) {
  // Regression for the entry↔exit cycle: a later call's context flows
  // through an earlier call's summary. Both call sites see g == 0, and the
  // callee's pass-through exit keeps it.
  Analyzed A(R"(
    var g: int;
    procedure idle() { }
    procedure main() {
      g := 0;
      call idle();
      call idle();
      call probe();
    }
    procedure probe() { }
  )");
  EXPECT_EQ(A.Analysis->entryEnv(A.proc("idle")).get(A.Ctx.sym("g")),
            Interval::constant(0));
  EXPECT_EQ(A.Analysis->contextExitSummary(A.proc("idle"))
                .get(A.Ctx.sym("g")),
            Interval::constant(0));
  EXPECT_EQ(A.Analysis->entryEnv(A.proc("probe")).get(A.Ctx.sym("g")),
            Interval::constant(0));
}

TEST(IntervalAnalysis, WideningForcesConvergence) {
  // A counter bumped across repeated sequential calls: the upper bound
  // would climb forever; widening must drop it while keeping the stable
  // lower bound. (Soundness: [0, +inf] over-approximates every context.)
  Analyzed A(R"(
    var g: int;
    procedure bump() { g := g + 1; }
    procedure main() {
      g := 0;
      call bump();
      call bump();
      call bump();
      call bump();
      call bump();
      call bump();
      call probe();
    }
    procedure probe() { }
  )");
  Interval AtProbe = A.Analysis->entryEnv(A.proc("probe"))
                         .get(A.Ctx.sym("g"));
  EXPECT_FALSE(AtProbe.isBottom());
  EXPECT_TRUE(AtProbe.contains(6)); // the concrete value must be inside
  Interval AtBump = A.Analysis->entryEnv(A.proc("bump"))
                        .get(A.Ctx.sym("g"));
  for (int64_t V = 0; V <= 5; ++V)
    EXPECT_TRUE(AtBump.contains(V)) << V; // all six contexts covered
}

TEST(IntervalAnalysis, DiamondSummariesJoin) {
  Analyzed A(R"(
    var g: int;
    procedure setlow() { g := 1; }
    procedure sethigh() { g := 9; }
    procedure main() {
      if (*) { call setlow(); } else { call sethigh(); }
      call probe();
    }
    procedure probe() { }
  )");
  EXPECT_EQ(A.Analysis->entryEnv(A.proc("probe")).get(A.Ctx.sym("g")),
            Interval::bounded(1, 9));
}

TEST(IntervalAnalysis, DeadBranchCallAddsNoContext) {
  // The then-branch cannot pass `assume g > 5`, so its call site is
  // unreachable and its g == 100 context must not widen the callee's entry.
  Analyzed A(R"(
    var g: int;
    procedure callee() { }
    procedure main() {
      g := 1;
      if (*) { assume g > 5; g := 100; call callee(); } else { call callee(); }
    }
  )");
  ProcId Callee = A.proc("callee");
  EXPECT_EQ(A.Analysis->entryEnv(Callee).get(A.Ctx.sym("g")),
            Interval::constant(1));
  injectInvariants(A.Ctx, A.Cfg, A.proc("main"), std::nullopt);
  const CfgStmt &Entry = A.Cfg.label(A.Cfg.proc(Callee).Entry).Stmt;
  ASSERT_EQ(Entry.Kind, CfgStmtKind::Assume);
  EXPECT_EQ(printExpr(A.Ctx, Entry.E), "1 <= g && g <= 1");
}

//===----------------------------------------------------------------------===//
// Injection
//===----------------------------------------------------------------------===//

TEST(InjectInvariants, SplicesAssumeLabels) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 3);
  ProcId Main = InvalidProc;
  Symbol ErrVar;
  CfgProgram Cfg = lower(Ctx, P, Main, ErrVar, 1);
  size_t LabelsBefore = Cfg.Labels.size();
  InvariantReport R = injectInvariants(Ctx, Cfg, Main, ErrVar);
  EXPECT_GT(R.ProcsAnnotated, 0u);
  EXPECT_GT(R.Conjuncts, 0u);
  EXPECT_GT(Cfg.Labels.size(), LabelsBefore);
  // Each annotated procedure's new entry is an assume.
  ProcId P1 = Cfg.findProc(Ctx.sym("P1"));
  EXPECT_EQ(Cfg.label(Cfg.proc(P1).Entry).Stmt.Kind, CfgStmtKind::Assume);
  // The program still lowers/checks as hierarchical.
  EXPECT_TRUE(Cfg.isHierarchical());
}

namespace {

/// Conjuncts of a right-nested or left-nested `&&` chain.
unsigned countConjuncts(const Expr *E) {
  if (E->kind() == ExprKind::Binary && E->binOp() == BinOp::And)
    return countConjuncts(E->op0()) + countConjuncts(E->op1());
  return 1;
}

} // namespace

TEST(InjectInvariants, ReportCountsEveryInjectedConjunct) {
  // Entries and call-site summaries alike: the report is the sum of the
  // conjuncts over the assumes inv appended. On the default pipeline,
  // chain32_bug at bound 1 gets 99 assumes (33 entries, 66 call sites) of 3
  // conjuncts each.
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 32, /*Buggy=*/true);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Prepass.Invariants = false;
  VerifierRunResult Front;
  LoweredInstance L = lowerInstance(Ctx, P, Ctx.sym("main"), Opts, Front);
  ASSERT_TRUE(Front.Prepass.ok());
  size_t LabelsBefore = L.Cfg.Labels.size();
  InvariantReport R = injectInvariants(Ctx, L.Cfg, L.Entry, L.ErrVar);

  unsigned Injected = 0, Assumes = 0;
  for (LabelId Id = LabelsBefore; Id < L.Cfg.Labels.size(); ++Id) {
    const CfgStmt &S = L.Cfg.label(Id).Stmt;
    ASSERT_EQ(S.Kind, CfgStmtKind::Assume);
    Injected += countConjuncts(S.E);
    ++Assumes;
  }
  EXPECT_EQ(Assumes, 99u);
  EXPECT_EQ(R.Conjuncts, Injected);
  EXPECT_EQ(R.Conjuncts, 297u);

  // The pipeline reports the same count.
  AstContext Ctx2;
  Program P2 = makeChainProgram(Ctx2, 32, /*Buggy=*/true);
  Opts.Prepass.Invariants = true;
  VerifierRunResult Front2;
  lowerInstance(Ctx2, P2, Ctx2.sym("main"), Opts, Front2);
  EXPECT_EQ(Front2.Prepass.InvariantConjuncts, 297u);
}

TEST(InjectInvariants, SoundnessVerdictUnchanged) {
  // Safe and buggy chain instances must keep their verdicts under +Inv.
  for (bool Buggy : {false, true}) {
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 5, Buggy);
    VerifierOptions Opts;
    Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
    Opts.Engine.TimeoutSeconds = 60;
    Opts.Prepass.Invariants = false;
    auto Plain = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    Opts.Prepass.Invariants = true;
    auto WithInv = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(Plain.Result.Outcome, WithInv.Result.Outcome)
        << "buggy=" << Buggy;
    EXPECT_EQ(WithInv.Result.Outcome,
              Buggy ? Verdict::Bug : Verdict::Safe);
    EXPECT_GT(WithInv.Prepass.InvariantConjuncts, 0u);
  }
}

TEST(InjectInvariants, InvariantsPruneSearch) {
  // Where the intervals do not prove the root, their call-site summaries
  // still prune the engine's search: the over-approximate check concludes
  // with strictly fewer procedures inlined.
  AstContext Ctx;
  std::optional<Program> P = parseOk(SummaryOnlySrc, Ctx);
  ASSERT_TRUE(P);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  Opts.Engine.TimeoutSeconds = 60;
  Opts.Prepass.Invariants = false;
  auto Plain = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
  Opts.Prepass.Invariants = true;
  auto WithInv = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
  ASSERT_EQ(Plain.Result.Outcome, Verdict::Safe);
  ASSERT_EQ(WithInv.Result.Outcome, Verdict::Safe);
  EXPECT_FALSE(WithInv.Prepass.InvariantsProveQuery);
  // The summary after main's one call pins g, so the over-approximate
  // check concludes after inlining main alone.
  EXPECT_EQ(WithInv.Result.Proof, "over_unsat");
  EXPECT_EQ(WithInv.Result.NumInlined, 1u);
  EXPECT_LT(WithInv.Result.NumInlined, Plain.Result.NumInlined);
}

TEST(InjectInvariants, ReportsWhetherTheyProveTheQuery) {
  // The proof is the root's contextual exit summary: $err pinned to false
  // on the safe chain, open on the buggy one and on SummaryOnlySrc.
  for (bool Buggy : {false, true}) {
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 4, Buggy);
    ProcId Main = InvalidProc;
    Symbol ErrVar;
    CfgProgram Cfg = lower(Ctx, P, Main, ErrVar, 1);
    EXPECT_EQ(injectInvariants(Ctx, Cfg, Main, ErrVar).ProvesQuery, !Buggy)
        << "buggy=" << Buggy;
  }
  Lowered Open(SummaryOnlySrc, 1);
  ASSERT_TRUE(Open);
  EXPECT_FALSE(
      injectInvariants(Open.Ctx, Open.Cfg, Open.Root, Open.ErrVar)
          .ProvesQuery);

  // With no error global the query is termination: only a bottom root
  // exit proves it.
  Lowered Stuck(R"(
    var g: int;
    procedure main() { g := 1; assume g > 3; }
  )");
  ASSERT_TRUE(Stuck);
  EXPECT_TRUE(injectInvariants(Stuck.Ctx, Stuck.Cfg, Stuck.Root, std::nullopt)
                  .ProvesQuery);
  Lowered Ends(R"(
    var g: int;
    procedure main() { g := 1; assume g < 3; }
  )");
  ASSERT_TRUE(Ends);
  EXPECT_FALSE(injectInvariants(Ends.Ctx, Ends.Cfg, Ends.Root, std::nullopt)
                   .ProvesQuery);
}
