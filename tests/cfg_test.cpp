//===- cfg_test.cpp - Unit tests for src/cfg --------------------------------===//

#include "TestSupport.h"
#include "cfg/Cfg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace rmt;

TEST(CfgLower, StraightLineChains) {
  Lowered L(R"(
    var g: int;
    procedure main() {
      g := 1;
      g := g + 1;
      assume g == 2;
    }
  )");
  ASSERT_TRUE(L);
  ASSERT_EQ(L.Cfg.Procs.size(), 1u);
  const CfgProc &Main = L.Cfg.proc(0);
  // entry-skip + three statements.
  EXPECT_EQ(Main.Labels.size(), 4u);
  // Every label except the last has exactly one successor.
  unsigned Exits = 0;
  for (LabelId Lbl : Main.Labels) {
    if (L.Cfg.label(Lbl).Targets.empty())
      ++Exits;
    else
      EXPECT_EQ(L.Cfg.label(Lbl).Targets.size(), 1u);
  }
  EXPECT_EQ(Exits, 1u);
}

TEST(CfgLower, IfProducesTwoGuardedArms) {
  Lowered L(R"(
    procedure main() {
      var x: int;
      if (x > 0) { x := 1; } else { x := 2; }
      x := 3;
    }
  )");
  ASSERT_TRUE(L);
  const CfgProc &Main = L.Cfg.proc(0);
  LabelId Entry = Main.Entry;
  ASSERT_EQ(L.Cfg.label(Entry).Targets.size(), 2u);
  LabelId ThenL = L.Cfg.label(Entry).Targets[0];
  LabelId ElseL = L.Cfg.label(Entry).Targets[1];
  EXPECT_EQ(L.Cfg.label(ThenL).Stmt.Kind, CfgStmtKind::Assume);
  EXPECT_EQ(L.Cfg.label(ElseL).Stmt.Kind, CfgStmtKind::Assume);
  // Both arms converge on the trailing assignment.
  LabelId ThenAssign = L.Cfg.label(ThenL).Targets[0];
  LabelId ElseAssign = L.Cfg.label(ElseL).Targets[0];
  EXPECT_EQ(L.Cfg.label(ThenAssign).Targets[0],
            L.Cfg.label(ElseAssign).Targets[0]);
}

TEST(CfgLower, ReturnHasNoSuccessors) {
  Lowered L(R"(
    procedure main() {
      var x: int;
      if (x > 0) { return; }
      x := 1;
    }
  )");
  ASSERT_TRUE(L);
  unsigned EmptyTargets = 0;
  for (const CfgLabel &Lbl : L.Cfg.Labels)
    if (Lbl.Targets.empty())
      ++EmptyTargets;
  // The return label and the fall-off-end label.
  EXPECT_EQ(EmptyTargets, 2u);
}

TEST(CfgLower, CallCarriesArgsAndResults) {
  Lowered L(R"(
    procedure f(a: int, b: int) returns (r: int) { r := a + b; }
    procedure main() {
      var x: int;
      call x := f(1, x + 2);
    }
  )");
  ASSERT_TRUE(L);
  ProcId MainId = L.Cfg.findProc(L.Ctx.sym("main"));
  ASSERT_NE(MainId, InvalidProc);
  const CfgLabel *Call = nullptr;
  for (LabelId Lbl : L.Cfg.proc(MainId).Labels)
    if (L.Cfg.label(Lbl).Stmt.Kind == CfgStmtKind::Call)
      Call = &L.Cfg.label(Lbl);
  ASSERT_TRUE(Call);
  EXPECT_EQ(Call->Stmt.Args.size(), 2u);
  EXPECT_EQ(Call->Stmt.Vars.size(), 1u);
  EXPECT_EQ(L.Cfg.proc(Call->Stmt.Callee).Name, L.Ctx.sym("f"));
}

TEST(CfgLower, VarTypesCoverScope) {
  Lowered L(R"(
    var g: int;
    procedure f(a: bool) returns (r: int) {
      var t: [int]int;
      r := g;
    }
    procedure main() { }
  )");
  ASSERT_TRUE(L);
  const CfgProc &F = L.Cfg.proc(L.Cfg.findProc(L.Ctx.sym("f")));
  EXPECT_TRUE(F.typeOf(L.Ctx.sym("g"))->isInt());
  EXPECT_TRUE(F.typeOf(L.Ctx.sym("a"))->isBool());
  EXPECT_TRUE(F.typeOf(L.Ctx.sym("r"))->isInt());
  EXPECT_TRUE(F.typeOf(L.Ctx.sym("t"))->isArray());
  EXPECT_EQ(F.typeOf(L.Ctx.sym("nothere")), nullptr);
}

TEST(CfgProgram, AcyclicityChecks) {
  Lowered L(R"(
    procedure leaf() { }
    procedure mid() { call leaf(); }
    procedure main() { call mid(); call leaf(); }
  )");
  ASSERT_TRUE(L);
  EXPECT_TRUE(L.Cfg.hasAcyclicFlow());
  EXPECT_TRUE(L.Cfg.hasAcyclicCallGraph());
  EXPECT_TRUE(L.Cfg.isHierarchical());
}

TEST(CfgProgram, RecursionDetectedInCallGraph) {
  // Lower *without* bounding: recursion remains.
  Lowered L(R"(
    procedure rec() { call rec(); }
    procedure main() { call rec(); }
  )");
  ASSERT_TRUE(L);
  EXPECT_TRUE(L.Cfg.hasAcyclicFlow());
  EXPECT_FALSE(L.Cfg.hasAcyclicCallGraph());
  EXPECT_FALSE(L.Cfg.isHierarchical());
}

TEST(CfgProgram, TopoOrderRespectsEdges) {
  Lowered L(R"(
    procedure main() {
      var x: int;
      if (*) { x := 1; } else { x := 2; }
      x := 3;
      if (x > 0) { x := 4; }
    }
  )");
  ASSERT_TRUE(L);
  std::vector<LabelId> Order = L.Cfg.topoOrder(0);
  EXPECT_EQ(Order.size(), L.Cfg.proc(0).Labels.size());
  std::vector<size_t> Pos(L.Cfg.Labels.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[Order[I]] = I;
  for (LabelId Lbl : L.Cfg.proc(0).Labels)
    for (LabelId T : L.Cfg.label(Lbl).Targets)
      EXPECT_LT(Pos[Lbl], Pos[T]);
}

TEST(CfgProgram, BottomUpOrderCalleesFirst) {
  Lowered L(R"(
    procedure c() { }
    procedure b() { call c(); }
    procedure a() { call b(); call c(); }
    procedure main() { call a(); }
  )");
  ASSERT_TRUE(L);
  std::vector<ProcId> Order = L.Cfg.bottomUpProcOrder();
  EXPECT_EQ(Order.size(), 4u);
  std::vector<size_t> Pos(Order.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[Order[I]] = I;
  for (ProcId P = 0; P < L.Cfg.Procs.size(); ++P)
    for (ProcId Callee : L.Cfg.calleesOf(P))
      EXPECT_LT(Pos[Callee], Pos[P]);
}

TEST(CfgProgram, CalleesAndCallSiteCounts) {
  Lowered L(R"(
    procedure f() { }
    procedure main() { call f(); call f(); if (*) { call f(); } }
  )");
  ASSERT_TRUE(L);
  ProcId MainId = L.Cfg.findProc(L.Ctx.sym("main"));
  EXPECT_EQ(L.Cfg.numCallSites(MainId), 3u);
  EXPECT_EQ(L.Cfg.calleesOf(MainId).size(), 3u);
}

TEST(CfgProgram, DebugPrinting) {
  Lowered L(R"(
    var g: int;
    procedure f() { g := 1; }
    procedure main() { call f(); }
  )");
  ASSERT_TRUE(L);
  std::string S = L.Cfg.str(L.Ctx);
  EXPECT_NE(S.find("proc main"), std::string::npos);
  EXPECT_NE(S.find("call f()"), std::string::npos);
  EXPECT_NE(S.find("<ret>"), std::string::npos);
}

TEST(CfgLower, BoundedProgramIsHierarchical) {
  Lowered L(R"(
    var g: int;
    procedure rec(d: int) { if (d > 0) { call rec(d - 1); } }
    procedure main() {
      var i: int;
      i := 0;
      while (i < 3) { i := i + 1; call rec(2); }
      assert i <= 3;
    }
  )",
                 /*Bound=*/3);
  ASSERT_TRUE(L);
  EXPECT_TRUE(L.Cfg.isHierarchical());
}
