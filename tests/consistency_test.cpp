//===- consistency_test.cpp - Def. 2 / Alg. 1 / incremental Fig. 10 ---------===//

#include "TestSupport.h"
#include "core/Consistency.h"
#include "support/Rng.h"
#include "transform/Transforms.h"
#include "workload/RandomProg.h"

#include <gtest/gtest.h>

using namespace rmt;

namespace {

const char *DiamondSrc = R"(
  procedure g() { }
  procedure f() { call g(); }
  procedure e() { call g(); }
  procedure main() { if (*) { call f(); } else { call e(); } }
)";

const char *SequentialSrc = R"(
  procedure g() { }
  procedure main() { call g(); call g(); }
)";

} // namespace

TEST(Consistency, MergingDisjointBranchesAllowed) {
  Lowered F(DiamondSrc);
  TermArena Arena;
  VcContext Vc(F.Ctx, F.Cfg, Arena);
  DisjointAnalysis Disj(F.Cfg);
  ConsistencyChecker Check(Vc, Disj);

  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  Check.onNewNode(Root);
  ASSERT_EQ(Vc.openEdges().size(), 2u);
  EdgeId EF = Vc.openEdges()[0];
  EdgeId EE = Vc.openEdges()[1];

  NodeId NF = Vc.genPvc(Vc.edge(EF).Callee);
  Check.onNewNode(NF);
  Vc.bindEdge(EF, NF);
  Check.onBind(EF, NF);
  NodeId NE = Vc.genPvc(Vc.edge(EE).Callee);
  Check.onNewNode(NE);
  Vc.bindEdge(EE, NE);
  Check.onBind(EE, NE);

  // Now f and e each expose a call to g; the two instances may share one g
  // node because the branches are disjoint.
  ASSERT_EQ(Vc.openEdges().size(), 2u);
  EdgeId GF = Vc.openEdges()[0];
  EdgeId GE = Vc.openEdges()[1];
  NodeId NG = Vc.genPvc(Vc.edge(GF).Callee);
  Check.onNewNode(NG);
  Vc.bindEdge(GF, NG);
  Check.onBind(GF, NG);

  EXPECT_TRUE(Check.canBind(GE, NG));
  Vc.bindEdge(GE, NG);
  Check.onBind(GE, NG);
  EXPECT_TRUE(Check.isConsistentFull());
  // The merged node now represents two configurations, both enumerable.
  EXPECT_EQ(allConfigsOf(Vc, NG).size(), 2u);
}

TEST(Consistency, MergingSequentialCallsRejected) {
  Lowered F(SequentialSrc);
  TermArena Arena;
  VcContext Vc(F.Ctx, F.Cfg, Arena);
  DisjointAnalysis Disj(F.Cfg);
  ConsistencyChecker Check(Vc, Disj);

  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  Check.onNewNode(Root);
  ASSERT_EQ(Vc.openEdges().size(), 2u);
  EdgeId E1 = Vc.openEdges()[0];
  EdgeId E2 = Vc.openEdges()[1];
  NodeId NG = Vc.genPvc(Vc.edge(E1).Callee);
  Check.onNewNode(NG);
  Vc.bindEdge(E1, NG);
  Check.onBind(E1, NG);

  // The second sequential call may NOT merge into the same instance: both
  // calls happen on every execution.
  EXPECT_FALSE(Check.canBind(E2, NG));
}

TEST(Consistency, TransitiveConflictThroughSharedChild) {
  // main calls f twice sequentially; f calls g. Merging the two f's is
  // illegal, and merging the two g's under *separate* f's is also illegal
  // (their configurations diverge at the sequential call sites).
  Lowered F(R"(
    procedure g() { }
    procedure f() { call g(); }
    procedure main() { call f(); call f(); }
  )");
  TermArena Arena;
  VcContext Vc(F.Ctx, F.Cfg, Arena);
  DisjointAnalysis Disj(F.Cfg);
  ConsistencyChecker Check(Vc, Disj);

  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  Check.onNewNode(Root);
  EdgeId F1 = Vc.openEdges()[0];
  EdgeId F2 = Vc.openEdges()[1];
  NodeId NF1 = Vc.genPvc(Vc.edge(F1).Callee);
  Check.onNewNode(NF1);
  Vc.bindEdge(F1, NF1);
  Check.onBind(F1, NF1);
  EXPECT_FALSE(Check.canBind(F2, NF1));
  NodeId NF2 = Vc.genPvc(Vc.edge(F2).Callee);
  Check.onNewNode(NF2);
  Vc.bindEdge(F2, NF2);
  Check.onBind(F2, NF2);

  // Inline g under f1.
  ASSERT_EQ(Vc.openEdges().size(), 2u);
  EdgeId G1 = Vc.openEdges()[0];
  EdgeId G2 = Vc.openEdges()[1];
  NodeId NG = Vc.genPvc(Vc.edge(G1).Callee);
  Check.onNewNode(NG);
  Vc.bindEdge(G1, NG);
  Check.onBind(G1, NG);

  // Merging f2's g into f1's g would give NG two non-disjoint
  // configurations (one through each sequential call).
  EXPECT_FALSE(Check.canBind(G2, NG));
}

TEST(Consistency, ParallelEdgesSameTargetNeedDisjointSites) {
  // f calls g twice: once in each branch arm (mergeable) — but a procedure
  // calling g twice sequentially cannot point both edges at one node.
  Lowered F(R"(
    procedure g() { }
    procedure branchy() { if (*) { call g(); } else { call g(); } }
    procedure seq() { call g(); call g(); }
    procedure main() { if (*) { call branchy(); } else { call seq(); } }
  )");
  TermArena Arena;
  VcContext Vc(F.Ctx, F.Cfg, Arena);
  DisjointAnalysis Disj(F.Cfg);
  ConsistencyChecker Check(Vc, Disj);

  auto InlineFresh = [&](EdgeId E) {
    NodeId N = Vc.genPvc(Vc.edge(E).Callee);
    Check.onNewNode(N);
    Vc.bindEdge(E, N);
    Check.onBind(E, N);
    return N;
  };

  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  Check.onNewNode(Root);
  // Resolve branchy and seq.
  ProcId BranchyId = F.Cfg.findProc(F.Ctx.sym("branchy"));
  std::vector<EdgeId> Open = Vc.openEdges();
  for (EdgeId E : Open)
    InlineFresh(E);

  // branchy's two g edges: parallel merge OK.
  std::vector<EdgeId> GEdges;
  for (EdgeId E = 0; E < Vc.numEdges(); ++E)
    if (Vc.edge(E).isOpen())
      GEdges.push_back(E);
  ASSERT_EQ(GEdges.size(), 4u);

  auto FromProc = [&](EdgeId E) { return Vc.node(Vc.edge(E).Src).Proc; };
  std::vector<EdgeId> BranchyEdges, SeqEdges;
  for (EdgeId E : GEdges)
    (FromProc(E) == BranchyId ? BranchyEdges : SeqEdges).push_back(E);
  ASSERT_EQ(BranchyEdges.size(), 2u);
  ASSERT_EQ(SeqEdges.size(), 2u);

  NodeId GB = InlineFresh(BranchyEdges[0]);
  EXPECT_TRUE(Check.canBind(BranchyEdges[1], GB));
  Vc.bindEdge(BranchyEdges[1], GB);
  Check.onBind(BranchyEdges[1], GB);
  EXPECT_TRUE(Check.isConsistentFull());

  NodeId GS = InlineFresh(SeqEdges[0]);
  EXPECT_FALSE(Check.canBind(SeqEdges[1], GS));
  // Merging seq's second g into *branchy's* shared g is fine, though: the
  // new configuration diverges from GB's existing ones at main's dispatch
  // branch, which is disjoint. Only co-residence with seq's own first call
  // is illegal.
  EXPECT_TRUE(Check.canBind(SeqEdges[1], GB));
  Vc.bindEdge(SeqEdges[1], GB);
  Check.onBind(SeqEdges[1], GB);
  EXPECT_TRUE(Check.isConsistentFull());
  EXPECT_EQ(allConfigsOf(Vc, GB).size(), 3u);
  (void)GS;
}

//===----------------------------------------------------------------------===//
// Property: incremental canBind ⟺ Def. 2 over enumerated configurations
//===----------------------------------------------------------------------===//

namespace {

/// Definition 2 checked literally: every pair of distinct configurations of
/// every node must be disjoint (via the exact Lemma 1 decision).
bool def2Consistent(const VcContext &Vc, const DisjointAnalysis &Disj) {
  for (NodeId N = 0; N < Vc.numNodes(); ++N) {
    std::vector<std::vector<LabelId>> Configs = allConfigsOf(Vc, N);
    for (size_t I = 0; I < Configs.size(); ++I)
      for (size_t J = I + 1; J < Configs.size(); ++J)
        if (!Disj.disjointConfigs(Configs[I], Configs[J]))
          return false;
  }
  return true;
}

} // namespace

namespace {

/// One recorded Gen_VC action, replayable into a fresh VcContext (node and
/// edge ids are deterministic in creation order).
struct Op {
  enum { Gen, Bind } Kind;
  ProcId Callee = InvalidProc; // Gen
  EdgeId Edge = InvalidEdge;   // Bind
  NodeId Target = InvalidNode; // Bind
};

void replay(VcContext &Vc, const std::vector<Op> &Ops) {
  for (const Op &O : Ops) {
    if (O.Kind == Op::Gen)
      Vc.genPvc(O.Callee);
    else
      Vc.bindEdge(O.Edge, O.Target);
  }
}

} // namespace

class ConsistencyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistencyProperty, IncrementalMatchesDefinition2) {
  AstContext Ctx;
  RandomProgParams Params;
  Params.Seed = GetParam();
  Params.NumProcs = 5;
  Params.MaxStmts = 4;
  Params.MaxNesting = 2;
  // Lowering expects asserts instrumented (loops are off by default).
  Program P = instrumentAsserts(Ctx, makeRandomProgram(Ctx, Params),
                                Ctx.sym("main"))
                  .Prog;
  CfgProgram Cfg = lowerToCfg(Ctx, P);
  ASSERT_TRUE(Cfg.isHierarchical());

  TermArena Arena;
  VcContext Vc(Ctx, Cfg, Arena);
  DisjointAnalysis Disj(Cfg);
  ConsistencyChecker Check(Vc, Disj);
  Rng Gen(GetParam() * 7919 + 1);

  std::vector<Op> Log;
  auto GenFresh = [&](ProcId Q) {
    NodeId N = Vc.genPvc(Q);
    Check.onNewNode(N);
    Log.push_back({Op::Gen, Q, InvalidEdge, InvalidNode});
    return N;
  };
  auto Commit = [&](EdgeId E, NodeId N) {
    Vc.bindEdge(E, N);
    Check.onBind(E, N);
    Log.push_back({Op::Bind, InvalidProc, E, N});
  };

  GenFresh(Cfg.findProc(Ctx.sym("main")));

  // Drive a random inlining. For every attempted merge, validate the
  // incremental verdict against Definition 2 evaluated on the hypothetical
  // DAG (a replayed copy with the merge forced in).
  unsigned Steps = 0;
  while (!Vc.openEdges().empty() && Steps++ < 50) {
    EdgeId E = Vc.openEdges()[Gen.below(Vc.openEdges().size())];
    const std::vector<NodeId> &Candidates = Vc.instancesOf(Vc.edge(E).Callee);
    NodeId Pick = InvalidNode;
    if (!Candidates.empty() && Gen.chance(3, 4))
      Pick = Candidates[Gen.below(Candidates.size())];

    if (Pick != InvalidNode) {
      bool Incremental = Check.canBind(E, Pick);

      // Ground truth: replay the construction into a scratch context,
      // force the merge, and evaluate Definition 2 literally.
      TermArena ScratchArena;
      VcContext Scratch(Ctx, Cfg, ScratchArena);
      replay(Scratch, Log);
      Scratch.bindEdge(E, Pick);
      bool GroundTruth = def2Consistent(Scratch, Disj);

      EXPECT_EQ(Incremental, GroundTruth)
          << "seed " << GetParam() << " step " << Steps;

      if (Incremental) {
        Commit(E, Pick);
        EXPECT_TRUE(Check.isConsistentFull());
        continue;
      }
    }
    NodeId Fresh = GenFresh(Vc.edge(E).Callee);
    Commit(E, Fresh);
    EXPECT_TRUE(Check.isConsistentFull());
    EXPECT_TRUE(def2Consistent(Vc, Disj));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyProperty,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// Completeness of rejection: when canBind says no, committing the merge
// must actually violate Def. 2 (checked on small fixed programs where we
// can rebuild the context from scratch).
//===----------------------------------------------------------------------===//

TEST(Consistency, RejectionIsJustifiedOnSequentialProgram) {
  Lowered F(SequentialSrc);
  DisjointAnalysis Disj(F.Cfg);

  // Build once, merge by force, and confirm Def. 2 breaks.
  TermArena Arena;
  VcContext Vc(F.Ctx, F.Cfg, Arena);
  NodeId Root = Vc.genPvc(F.Cfg.findProc(F.Ctx.sym("main")));
  (void)Root;
  EdgeId E1 = Vc.openEdges()[0];
  EdgeId E2 = Vc.openEdges()[1];
  NodeId NG = Vc.genPvc(Vc.edge(E1).Callee);
  Vc.bindEdge(E1, NG);
  Vc.bindEdge(E2, NG); // force the illegal merge behind the checker's back
  bool AnyNonDisjoint = false;
  std::vector<std::vector<LabelId>> Configs = allConfigsOf(Vc, NG);
  ASSERT_EQ(Configs.size(), 2u);
  if (!Disj.disjointConfigs(Configs[0], Configs[1]))
    AnyNonDisjoint = true;
  EXPECT_TRUE(AnyNonDisjoint);
}
