//===- disjoint_test.cpp - Disj_blk, Lemma 1, brute-force oracle ------------===//

#include "cfg/Lower.h"
#include "core/Disjoint.h"
#include "parser/Parser.h"
#include "transform/Transforms.h"
#include "workload/RandomProg.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

struct Fixture {
  AstContext Ctx;
  CfgProgram Cfg;
};

std::unique_ptr<Fixture> lower(const char *Src) {
  auto F = std::make_unique<Fixture>();
  DiagEngine Diags;
  auto P = parseAndCheck(Src, F->Ctx, Diags);
  EXPECT_TRUE(P) << Diags.str();
  if (!P)
    return nullptr;
  F->Cfg = lowerToCfg(F->Ctx, *P);
  return F;
}

/// Index-th call label inside procedure \p ProcName calling \p CalleeName.
LabelId callLabel(Fixture &F, const char *ProcName, const char *CalleeName,
                  unsigned Index = 0) {
  ProcId P = F.Cfg.findProc(F.Ctx.sym(ProcName));
  ProcId Callee = F.Cfg.findProc(F.Ctx.sym(CalleeName));
  unsigned Seen = 0;
  for (LabelId L : F.Cfg.proc(P).Labels) {
    const CfgStmt &S = F.Cfg.label(L).Stmt;
    if (S.Kind == CfgStmtKind::Call && S.Callee == Callee) {
      if (Seen == Index)
        return L;
      ++Seen;
    }
  }
  ADD_FAILURE() << "call label not found";
  return InvalidLabel;
}

LabelId entryOf(Fixture &F, const char *ProcName) {
  return F.Cfg.proc(F.Cfg.findProc(F.Ctx.sym(ProcName))).Entry;
}

} // namespace

TEST(DisjBlk, SequentialCallsAreNotDisjoint) {
  auto F = lower(R"(
    procedure f() { }
    procedure main() { call f(); call f(); }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  LabelId C1 = callLabel(*F, "main", "f", 0);
  LabelId C2 = callLabel(*F, "main", "f", 1);
  EXPECT_TRUE(D.reaches(C1, C2));
  EXPECT_FALSE(D.reaches(C2, C1));
  EXPECT_FALSE(D.disjointLabels(C1, C2));
}

TEST(DisjBlk, BranchArmsAreDisjoint) {
  auto F = lower(R"(
    procedure f() { }
    procedure main() { if (*) { call f(); } else { call f(); } }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  EXPECT_TRUE(D.disjointLabels(callLabel(*F, "main", "f", 0),
                               callLabel(*F, "main", "f", 1)));
}

TEST(DisjBlk, ReflexiveReachability) {
  auto F = lower(R"(
    procedure f() { }
    procedure main() { call f(); }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  LabelId C = callLabel(*F, "main", "f");
  EXPECT_TRUE(D.reaches(C, C));
  EXPECT_FALSE(D.disjointLabels(C, C));
}

TEST(DisjBlk, SwitchArmsPairwiseDisjoint) {
  auto F = lower(R"(
    var x: int;
    procedure f() { }
    procedure main() {
      if (x == 0) { call f(); }
      else if (x == 1) { call f(); }
      else { call f(); }
    }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  LabelId C0 = callLabel(*F, "main", "f", 0);
  LabelId C1 = callLabel(*F, "main", "f", 1);
  LabelId C2 = callLabel(*F, "main", "f", 2);
  EXPECT_TRUE(D.disjointLabels(C0, C1));
  EXPECT_TRUE(D.disjointLabels(C0, C2));
  EXPECT_TRUE(D.disjointLabels(C1, C2));
}

TEST(DisjBlk, CallBeforeBranchReachesBothArms) {
  auto F = lower(R"(
    procedure f() { }
    procedure main() {
      call f();
      if (*) { call f(); } else { call f(); }
    }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  LabelId Pre = callLabel(*F, "main", "f", 0);
  EXPECT_FALSE(D.disjointLabels(Pre, callLabel(*F, "main", "f", 1)));
  EXPECT_FALSE(D.disjointLabels(Pre, callLabel(*F, "main", "f", 2)));
}

TEST(DisjointConfigs, PrefixRelatedNeverDisjoint) {
  auto F = lower(R"(
    procedure g() { }
    procedure f() { call g(); }
    procedure main() { call f(); }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  LabelId CF = callLabel(*F, "main", "f");
  LabelId CG = callLabel(*F, "f", "g");
  std::vector<LabelId> CfgF = {entryOf(*F, "f"), CF};
  std::vector<LabelId> CfgG = {entryOf(*F, "g"), CG, CF};
  EXPECT_FALSE(D.disjointConfigs(CfgF, CfgG));
  EXPECT_FALSE(D.disjointConfigs(CfgG, CfgF));
  EXPECT_FALSE(D.disjointConfigs(CfgF, CfgF));
}

TEST(DisjointConfigs, DivergingBranchesDisjoint) {
  auto F = lower(R"(
    procedure g() { }
    procedure f() { call g(); }
    procedure e() { call g(); }
    procedure main() { if (*) { call f(); } else { call e(); } }
  )");
  ASSERT_TRUE(F);
  DisjointAnalysis D(F->Cfg);
  std::vector<LabelId> Via1 = {entryOf(*F, "g"), callLabel(*F, "f", "g"),
                               callLabel(*F, "main", "f")};
  std::vector<LabelId> Via2 = {entryOf(*F, "g"), callLabel(*F, "e", "g"),
                               callLabel(*F, "main", "e")};
  EXPECT_TRUE(D.disjointConfigs(Via1, Via2));
  EXPECT_TRUE(bruteForceDisjoint(F->Cfg, Via1, Via2, 100000));
}

TEST(BruteForce, SequentialConfigsReachable) {
  auto F = lower(R"(
    procedure g() { }
    procedure main() { call g(); call g(); }
  )");
  ASSERT_TRUE(F);
  std::vector<LabelId> First = {entryOf(*F, "g"),
                                callLabel(*F, "main", "g", 0)};
  std::vector<LabelId> Second = {entryOf(*F, "g"),
                                 callLabel(*F, "main", "g", 1)};
  EXPECT_FALSE(bruteForceDisjoint(F->Cfg, First, Second, 100000));
  DisjointAnalysis D(F->Cfg);
  EXPECT_FALSE(D.disjointConfigs(First, Second));
}

//===----------------------------------------------------------------------===//
// Property: Lemma 1 agrees with the pushdown oracle (Section 3.3's
// precision remark: for control-structure disjointness, both are exact)
//===----------------------------------------------------------------------===//

namespace {

/// All entry-rooted *valid* configurations of the program, capped: every
/// frame's label must be reachable from its procedure's entry (Lemma 1 and
/// the prefix rule are exact only over configurations that can actually
/// arise). A configuration is [label-in-current-proc, call-site, ...].
void enumerateConfigs(const CfgProgram &Cfg, const DisjointAnalysis &D,
                      ProcId Entry, std::vector<std::vector<LabelId>> &Out,
                      size_t MaxCount) {
  auto Live = [&](ProcId P, LabelId L) {
    return D.reaches(Cfg.proc(P).Entry, L);
  };
  std::vector<std::vector<LabelId>> Work;
  for (LabelId L : Cfg.proc(Entry).Labels)
    if (Live(Entry, L))
      Work.push_back({L});
  while (!Work.empty() && Out.size() < MaxCount) {
    std::vector<LabelId> C = std::move(Work.back());
    Work.pop_back();
    Out.push_back(C);
    const CfgLabel &Top = Cfg.label(C.front());
    if (Top.Stmt.Kind == CfgStmtKind::Call) {
      for (LabelId L : Cfg.proc(Top.Stmt.Callee).Labels) {
        if (!Live(Top.Stmt.Callee, L))
          continue;
        std::vector<LabelId> Next;
        Next.push_back(L);
        Next.insert(Next.end(), C.begin(), C.end());
        Work.push_back(std::move(Next));
      }
    }
  }
}

} // namespace

class Lemma1Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Lemma1Property, AgreesWithBruteForceOnRandomPrograms) {
  AstContext Ctx;
  RandomProgParams Params;
  Params.Seed = GetParam();
  Params.NumProcs = 4;
  Params.MaxStmts = 3;
  Params.MaxNesting = 1;
  // Lowering expects asserts instrumented (loops are off by default).
  Program P = instrumentAsserts(Ctx, makeRandomProgram(Ctx, Params),
                                Ctx.sym("main"))
                  .Prog;
  CfgProgram Cfg = lowerToCfg(Ctx, P);
  ASSERT_TRUE(Cfg.isHierarchical());
  DisjointAnalysis D(Cfg);

  std::vector<std::vector<LabelId>> Configs;
  enumerateConfigs(Cfg, D, Cfg.findProc(Ctx.sym("main")), Configs, 40);

  for (size_t I = 0; I < Configs.size(); ++I) {
    for (size_t J = I; J < Configs.size(); ++J) {
      bool Fast = D.disjointConfigs(Configs[I], Configs[J]);
      bool Slow = bruteForceDisjoint(Cfg, Configs[I], Configs[J], 500000);
      EXPECT_EQ(Fast, Slow) << "configs " << I << " vs " << J << " (seed "
                            << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Range<uint64_t>(1, 13));
