//===- passify_test.cpp - Passified pVC mode (the engines' default) -------===//

#include "TestSupport.h"
#include "smt/Z3Solver.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

const char *StraightLine = R"(
  var g: int;
  procedure main() {
    g := 1;
    g := g + 2;
    g := g * 3;
  }
)";

} // namespace

TEST(Passify, StraightLineMintsFarFewerConstants) {
  Lowered F(StraightLine);
  TermArena PaperArena, PassArena;
  VcContext Paper(F.Ctx, F.Cfg, PaperArena, {}, PvcMode::Paper);
  VcContext Pass(F.Ctx, F.Cfg, PassArena, {}, PvcMode::Passified);
  Paper.genPvc(0);
  Pass.genPvc(0);
  // Paper mode: 2 consts per (label, var) plus BS and Out.
  // Passified: only the entry incarnation, BS, and Out.
  EXPECT_GT(PaperArena.numConsts(), 2 * PassArena.numConsts());
}

TEST(Passify, SameModelsOnStraightLine) {
  for (PvcMode Mode : {PvcMode::Paper, PvcMode::Passified}) {
    Lowered F(StraightLine);
    TermArena Arena;
    auto S = createZ3Solver(Arena);
    VcContext Vc(F.Ctx, F.Cfg, Arena, [&](TermRef T) { S->assertTerm(T); },
                 Mode);
    NodeId Root = Vc.genPvc(0);
    S->assertTerm(Vc.node(Root).Control);
    // (1 + 2) * 3 == 9 is forced.
    S->assertTerm(
        Arena.mkNot(Arena.mkEq(Vc.node(Root).Out[0], Arena.intLit(9))));
    EXPECT_EQ(S->check(), SolveResult::Unsat)
        << (Mode == PvcMode::Paper ? "paper" : "passified");
  }
}

TEST(Passify, JoinsIntroduceIncarnations) {
  Lowered F(R"(
    var g: int;
    procedure main() {
      if (*) { g := 1; } else { g := 2; }
      g := g + 1;
    }
  )");
  TermArena Arena;
  auto S = createZ3Solver(Arena);
  VcContext Vc(F.Ctx, F.Cfg, Arena, [&](TermRef T) { S->assertTerm(T); },
               PvcMode::Passified);
  NodeId Root = Vc.genPvc(0);
  S->assertTerm(Vc.node(Root).Control);
  TermRef G = Vc.node(Root).Out[0];
  // g ends as 2 or 3...
  for (int64_t V : {2, 3})
    EXPECT_EQ(S->check({assumptionLiteral(*S, Arena, F.Ctx,
                                          {Arena.mkEq(G, Arena.intLit(V))})},
                       0),
              SolveResult::Sat)
        << V;
  // ...and nothing else.
  S->assertTerm(Arena.mkNot(Arena.mkEq(G, Arena.intLit(2))));
  S->assertTerm(Arena.mkNot(Arena.mkEq(G, Arena.intLit(3))));
  EXPECT_EQ(S->check(), SolveResult::Unsat);
}

TEST(Passify, ChainVerdictsAndSizes) {
  for (bool Buggy : {false, true}) {
    AstContext Ctx;
    Program P = makeChainProgram(Ctx, 7, Buggy);
    VerifierOptions Opts;
    Opts.Prepass.Invariants = false; // the engine's whole DAG, not +Inv's cut
    Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
    Opts.Engine.Pvc = PvcMode::Passified;
    Opts.Engine.TimeoutSeconds = 60;
    auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Result.Outcome, Buggy ? Verdict::Bug : Verdict::Safe);
    EXPECT_EQ(R.Result.NumInlined, 9u); // DAG size unchanged by pVC mode
  }
}

TEST(Passify, TraceStillReconstructs) {
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(R"(
    var g: int;
    procedure inner() { g := 5; assert g == 6; }
    procedure main() { call inner(); }
  )",
                         Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();
  VerifierOptions Opts;
  Opts.Engine.Pvc = PvcMode::Passified;
  Opts.Engine.TimeoutSeconds = 30;
  auto R = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
  ASSERT_EQ(R.Result.Outcome, Verdict::Bug);
  EXPECT_NE(R.TraceText.find("inner"), std::string::npos);
}

class PassifyAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PassifyAgreement, ModesAgreeOnRandomPrograms) {
  RandomProgParams Params;
  Params.Seed = GetParam() + 4000;
  Params.NumProcs = 5;
  Params.MaxStmts = 4;
  Params.AllowLoops = GetParam() % 2 == 0;
  Params.AllowArrays = GetParam() % 3 == 0;

  std::optional<Verdict> Reference;
  for (PvcMode Mode : {PvcMode::Paper, PvcMode::Passified}) {
    AstContext Ctx;
    Program P = makeRandomProgram(Ctx, Params);
    VerifierOptions Opts;
    Opts.Bound = 3;
    Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
    Opts.Engine.Pvc = Mode;
    Opts.Engine.TimeoutSeconds = 60;
    auto R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    ASSERT_TRUE(R.Result.Outcome == Verdict::Bug ||
                R.Result.Outcome == Verdict::Safe);
    if (!Reference)
      Reference = R.Result.Outcome;
    EXPECT_EQ(R.Result.Outcome, *Reference) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassifyAgreement,
                         ::testing::Range<uint64_t>(1, 21));
