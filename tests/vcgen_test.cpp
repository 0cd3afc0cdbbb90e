//===- vcgen_test.cpp - Gen_pVC / Gen_VC structure (Fig. 8, Fig. 9) ---------===//

#include "TestSupport.h"
#include "core/VcGen.h"
#include "smt/SmtLibPrinter.h"
#include "smt/Z3Solver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace rmt;

namespace {

struct Fixture : Lowered {
  using Lowered::Lowered;
  TermArena Arena;
};

/// The paper's Fig. 6 program.
const char *Fig6 = R"(
  var g: int;
  procedure main(v1: int, v2: int) returns (r: int) {
    var c: bool;
    if (c) { call r := foo(v1); }
    else   { call r := foo(v2); }
  }
  procedure foo(a: int) returns (b: int) {
    b := a + 1;
  }
)";

} // namespace

TEST(GenPvc, NodeShapeForFig6) {
  Fixture F(Fig6);
  std::vector<TermRef> Pushed;
  VcContext Vc(F.Ctx, F.Cfg, F.Arena,
               [&](TermRef T) { Pushed.push_back(T); });
  ProcId MainId = F.Cfg.findProc(F.Ctx.sym("main"));
  NodeId Root = Vc.genPvc(MainId);

  const VcNode &N = Vc.node(Root);
  EXPECT_EQ(N.Proc, MainId);
  EXPECT_EQ(N.Entry, F.Cfg.proc(MainId).Entry);
  // Interface: 1 global + 2 params in, 1 global + 1 return out.
  EXPECT_EQ(N.In.size(), 3u);
  EXPECT_EQ(N.Out.size(), 2u);
  // Two open call edges (the two branch arms).
  EXPECT_EQ(N.OutEdges.size(), 2u);
  EXPECT_EQ(Vc.openEdges().size(), 2u);
  // One BS constant per label of main.
  EXPECT_EQ(N.BlockConst.size(), F.Cfg.proc(MainId).Labels.size());
  // The pVC clauses reached the sink.
  EXPECT_FALSE(Pushed.empty());
}

TEST(GenPvc, EdgesCarryCallInterfaces) {
  Fixture F(Fig6);
  VcContext Vc(F.Ctx, F.Cfg, F.Arena);
  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  for (EdgeId E : Vc.node(Root).OutEdges) {
    const VcEdge &Edge = Vc.edge(E);
    EXPECT_TRUE(Edge.isOpen());
    EXPECT_EQ(Edge.Src, Root);
    EXPECT_EQ(Edge.Callee, F.Cfg.findProc(F.Ctx.sym("foo")));
    EXPECT_EQ(Edge.In.size(), 2u);  // global g + actual v1/v2
    EXPECT_EQ(Edge.Out.size(), 2u); // global g + result r
    EXPECT_NE(Edge.CallSite, InvalidLabel);
  }
}

TEST(GenVc, Fig9ExecutionMergesFoo) {
  // Replays the execution of Fig. 9: inline main, inline foo for the first
  // edge, merge the second edge into the same node.
  Fixture F(Fig6);
  std::vector<TermRef> Pushed;
  VcContext Vc(F.Ctx, F.Cfg, F.Arena,
               [&](TermRef T) { Pushed.push_back(T); });
  NodeId N0 = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  EXPECT_EQ(N0, 0u);
  ASSERT_EQ(Vc.openEdges().size(), 2u);
  EdgeId E0 = Vc.openEdges()[0];
  EdgeId E1 = Vc.openEdges()[1];

  NodeId N1 = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("foo")));
  Vc.bindEdge(E0, N1);
  EXPECT_EQ(Vc.edge(E0).Dest, N1);
  EXPECT_EQ(Vc.openEdges().size(), 1u);

  Vc.bindEdge(E1, N1); // the merge
  EXPECT_EQ(Vc.edge(E1).Dest, N1);
  EXPECT_TRUE(Vc.openEdges().empty());

  EXPECT_EQ(Vc.numInlined(), 2u); // main + one shared foo
  EXPECT_EQ(Vc.numEdges(), 2u);
  EXPECT_FALSE(Pushed.empty());
}

TEST(GenVc, InstancesTrackedPerProcedure) {
  Fixture F(Fig6);
  VcContext Vc(F.Ctx, F.Cfg, F.Arena);
  ProcId FooId = F.Cfg.findProc(F.Ctx.sym("foo"));
  EXPECT_TRUE(Vc.instancesOf(FooId).empty());
  NodeId A = Vc.genPvc(FooId);
  NodeId B = Vc.genPvc(FooId);
  ASSERT_EQ(Vc.instancesOf(FooId).size(), 2u);
  EXPECT_EQ(Vc.instancesOf(FooId)[0], A);
  EXPECT_EQ(Vc.instancesOf(FooId)[1], B);
}

namespace {

/// Builds the complete VC for Fig. 6 (DAG version when Merge is set),
/// asserts Control[root], pins the inputs, and returns (solver, root) for
/// semantic probing.
struct SolvedFig6 {
  Fixture F{Fig6};
  std::unique_ptr<Solver> S;
  NodeId Root = InvalidNode;
  std::unique_ptr<VcContext> Vc;

  explicit SolvedFig6(bool Merge) {
    S = createZ3Solver(F.Arena);
    Vc = std::make_unique<VcContext>(
        F.Ctx, F.Cfg, F.Arena, [&](TermRef T) { S->assertTerm(T); });
    Root = Vc->genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
    EdgeId E0 = Vc->openEdges()[0];
    EdgeId E1 = Vc->openEdges()[1];
    ProcId Foo = F.Cfg.findProc(F.Ctx.sym("foo"));
    NodeId N1 = Vc->genPvc(Foo);
    Vc->bindEdge(E0, N1);
    Vc->bindEdge(E1, Merge ? N1 : Vc->genPvc(Foo));
    S->assertTerm(Vc->node(Root).Control);
  }

  /// In = [g, v1, v2], Out = [g, r].
  TermRef v1() { return Vc->node(Root).In[1]; }
  TermRef v2() { return Vc->node(Root).In[2]; }
  TermRef r() { return Vc->node(Root).Out[1]; }
};

} // namespace

TEST(GenVc, SemanticsOfFig6MatchesPaper) {
  // The VC constrains r to v1 + 1 or v2 + 1, nothing else — in both the
  // tree and the DAG version (Section 2's equivalence claim).
  for (bool Merge : {false, true}) {
    SolvedFig6 X(Merge);
    TermArena &A = X.F.Arena;
    auto Assume = [&](std::vector<TermRef> Facts) {
      Facts.push_back(A.mkEq(X.v1(), A.intLit(10)));
      Facts.push_back(A.mkEq(X.v2(), A.intLit(20)));
      return assumptionLiteral(*X.S, A, X.F.Ctx, Facts);
    };
    // r can be v1 + 1 ...
    EXPECT_EQ(X.S->check({Assume({A.mkEq(X.r(), A.intLit(11))})}, 0),
              SolveResult::Sat)
        << "merge=" << Merge;
    // ... or v2 + 1 ...
    EXPECT_EQ(X.S->check({Assume({A.mkEq(X.r(), A.intLit(21))})}, 0),
              SolveResult::Sat)
        << "merge=" << Merge;
    // ... but nothing else.
    EXPECT_EQ(X.S->check({Assume({A.mkNot(A.mkEq(X.r(), A.intLit(11))),
                                  A.mkNot(A.mkEq(X.r(), A.intLit(21)))})},
                         0),
              SolveResult::Unsat)
        << "merge=" << Merge;
  }
}

TEST(GenVc, DagVcIsSmallerThanTreeVc) {
  SolvedFig6 Tree(false), Dag(true);
  EXPECT_EQ(Tree.Vc->numInlined(), 3u);
  EXPECT_EQ(Dag.Vc->numInlined(), 2u);
  // Fewer constants minted in the merged version.
  EXPECT_LT(Dag.F.Arena.numConsts(), Tree.F.Arena.numConsts());
}

TEST(GenVc, OpenEdgesAreHavocSummaries) {
  // With both foo edges left open, r is unconstrained: the callee is
  // over-approximated by havoc (this is Proc'(n) of Section 3.2).
  Fixture F(Fig6);
  auto S = createZ3Solver(F.Arena);
  VcContext Vc(F.Ctx, F.Cfg, F.Arena, [&](TermRef T) { S->assertTerm(T); });
  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  S->assertTerm(Vc.node(Root).Control);
  TermArena &A = F.Arena;
  S->assertTerm(A.mkEq(Vc.node(Root).In[1], A.intLit(1)));
  S->assertTerm(A.mkEq(Vc.node(Root).In[2], A.intLit(1)));
  S->assertTerm(A.mkEq(Vc.node(Root).Out[1], A.intLit(12345)));
  EXPECT_EQ(S->check(), SolveResult::Sat);
  // But blocking both open edges kills every execution (both branches call
  // foo, and Control[edge] = BS of the call label).
  std::vector<TermRef> Blocked;
  for (EdgeId E : Vc.openEdges())
    Blocked.push_back(A.mkNot(Vc.edge(E).Control));
  EXPECT_EQ(S->check(Blocked, 0), SolveResult::Unsat);
}

TEST(GenVc, SmtLibDumpIsWellFormed) {
  Fixture F(Fig6);
  std::vector<TermRef> Pushed;
  VcContext Vc(F.Ctx, F.Cfg, F.Arena,
               [&](TermRef T) { Pushed.push_back(T); });
  Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  std::string Script = printScript(F.Arena, Pushed);
  EXPECT_NE(Script.find("(set-logic ALL)"), std::string::npos);
  EXPECT_NE(Script.find("(assert"), std::string::npos);
  // Balanced parentheses.
  int Depth = 0;
  for (char C : Script) {
    if (C == '(')
      ++Depth;
    if (C == ')')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST(GenVc, HavocLeavesVariableUnconstrained) {
  Fixture F(R"(
    var g: int;
    var h: int;
    procedure main() {
      g := 1;
      havoc g;
      h := 2;
    }
  )");
  auto S = createZ3Solver(F.Arena);
  VcContext Vc(F.Ctx, F.Cfg, F.Arena, [&](TermRef T) { S->assertTerm(T); });
  NodeId Root = Vc.genPvc(0);
  S->assertTerm(Vc.node(Root).Control);
  TermArena &A = F.Arena;
  // g can end at any value; h must be 2.
  TermRef GEndsAtMinus77 = assumptionLiteral(
      *S, A, F.Ctx, {A.mkEq(Vc.node(Root).Out[0], A.intLit(-77))});
  EXPECT_EQ(S->check({GEndsAtMinus77}, 0), SolveResult::Sat);
  S->assertTerm(A.mkNot(A.mkEq(Vc.node(Root).Out[1], A.intLit(2))));
  EXPECT_EQ(S->check(), SolveResult::Unsat);
}

TEST(GenVc, Fig6ClauseStreamPinnedPerMode) {
  // The sink's clause stream for the fully DAG-inlined Fig. 6 program,
  // rendered as SMT-LIB, pinned byte for byte (constant names included) for
  // both encodings. Regenerate with RMT_UPDATE_GOLDEN=1 after an intended
  // encoding change.
  for (PvcMode Mode : {PvcMode::Paper, PvcMode::Passified}) {
    Fixture F(Fig6);
    std::vector<TermRef> Pushed;
    Inliner In(F.Ctx, F.Cfg, F.Root, F.Arena, StrategyOptions(),
               [&](TermRef T) { Pushed.push_back(T); }, Mode);
    ASSERT_TRUE(In.inlineAll(100));
    std::string Script = printScript(F.Arena, Pushed);
    std::filesystem::path Path =
        std::filesystem::path(RMT_GOLDEN_DIR) /
        (Mode == PvcMode::Paper ? "fig6_paper.smt2" : "fig6_passified.smt2");
    if (std::getenv("RMT_UPDATE_GOLDEN")) {
      std::ofstream(Path) << Script;
      continue;
    }
    std::ifstream Golden(Path);
    ASSERT_TRUE(Golden) << "missing golden " << Path;
    std::ostringstream Expected;
    Expected << Golden.rdbuf();
    EXPECT_EQ(Script, Expected.str()) << Path;
  }
}
