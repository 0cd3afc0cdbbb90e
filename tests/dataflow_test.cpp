//===- dataflow_test.cpp - Dataflow framework, prepass, and lint ------------===//

#include "TestSupport.h"
#include "analysis/Dataflow.h"
#include "analysis/InvariantGen.h"
#include "analysis/Lint.h"
#include "analysis/Slicer.h"
#include "ast/AstPrinter.h"
#include "workload/RandomProg.h"

#include <gtest/gtest.h>

#include <map>

using namespace rmt;

namespace {

CfgStmt assignStmt(Symbol Target, const Expr *Rhs) {
  CfgStmt S;
  S.Kind = CfgStmtKind::Assign;
  S.Target = Target;
  S.E = Rhs;
  return S;
}

CfgStmt assumeStmt(const Expr *Cond) {
  CfgStmt S;
  S.Kind = CfgStmtKind::Assume;
  S.E = Cond;
  return S;
}

/// Hand-built single-procedure program; labels are appended with explicit
/// successor lists.
struct CfgBuilder {
  CfgProgram Prog;

  explicit CfgBuilder(AstContext &Ctx) {
    Prog.Procs.resize(1);
    Prog.Procs[0].Name = Ctx.sym("p");
    Prog.Procs[0].Entry = 0;
  }
  LabelId add(CfgStmt S, std::vector<LabelId> Targets) {
    LabelId L = static_cast<LabelId>(Prog.Labels.size());
    Prog.Labels.push_back({std::move(S), std::move(Targets), 0, SrcLoc{}});
    Prog.Procs[0].Labels.push_back(L);
    return L;
  }
};

/// Test analysis: forward must-constant tracking of integer literal
/// assignments (anything else forgets its target), ignoring calls — enough
/// to exercise the solver's join/boundary plumbing.
struct FwdConsts {
  struct Value {
    bool Bottom = false;
    std::map<Symbol, int64_t> Known;

    std::optional<int64_t> get(Symbol Var) const {
      auto It = Known.find(Var);
      return It == Known.end() ? std::nullopt : std::optional(It->second);
    }
  };
  static constexpr FlowDirection Direction = FlowDirection::Forward;

  Value bottom() const { return {true, {}}; }
  Value boundary() const { return {}; }
  void join(Value &Into, const Value &From) const {
    if (From.Bottom)
      return;
    if (Into.Bottom) {
      Into = From;
      return;
    }
    std::erase_if(Into.Known, [&](const auto &KV) {
      return From.get(KV.first) != KV.second;
    });
  }
  void transfer(LabelId, const CfgStmt &S, Value &X) const {
    if (!X.Bottom && S.Kind == CfgStmtKind::Assign) {
      if (S.E->kind() == ExprKind::IntLit)
        X.Known[S.Target] = S.E->intValue();
      else
        X.Known.erase(S.Target);
    }
  }
};

/// Test analysis: plain backward liveness over assumes/assigns.
struct BwdLive {
  using Value = std::set<Symbol>;
  static constexpr FlowDirection Direction = FlowDirection::Backward;

  Value bottom() const { return {}; }
  Value boundary() const { return Exit; }
  void join(Value &Into, const Value &From) const {
    Into.insert(From.begin(), From.end());
  }
  void transfer(LabelId, const CfgStmt &S, Value &Pre) const {
    if (S.Kind == CfgStmtKind::Assign) {
      Pre.erase(S.Target);
      collectExprVars(S.E, Pre);
    } else if (S.Kind == CfgStmtKind::Assume) {
      collectExprVars(S.E, Pre);
    }
  }

  Value Exit;
};

} // namespace

//===----------------------------------------------------------------------===//
// One-sweep solver
//===----------------------------------------------------------------------===//

TEST(DataflowSolver, ForwardJoinAtDiamond) {
  AstContext Ctx;
  Symbol X = Ctx.sym("x"), Y = Ctx.sym("y");
  CfgBuilder B(Ctx);
  // x := 1; branch; {y := 5 | y := 9}; join
  LabelId L0 = B.add(assignStmt(X, Ctx.tInt(1)), {1, 2});
  B.add(assignStmt(Y, Ctx.tInt(5)), {3});
  B.add(assignStmt(Y, Ctx.tInt(9)), {3});
  LabelId L3 = B.add(assumeStmt(Ctx.tBool(true)), {});

  ProcFlow Flow(B.Prog, 0);
  FwdConsts A;
  DataflowSolver<FwdConsts> Solver;
  Solver.solve(Flow, A);

  EXPECT_FALSE(Solver.pre(L0).get(X).has_value());
  EXPECT_EQ(Solver.post(L0).get(X), 1);
  // x survives the join; y does not (5 vs 9).
  EXPECT_EQ(Solver.pre(L3).get(X), 1);
  EXPECT_FALSE(Solver.pre(L3).get(Y).has_value());
}

TEST(DataflowSolver, BackwardLivenessThroughBranch) {
  AstContext Ctx;
  Symbol X = Ctx.sym("x"), Y = Ctx.sym("y"), Z = Ctx.sym("z");
  const Type *IntTy = Ctx.intType();
  CfgBuilder B(Ctx);
  // x := z; branch; {assume x > 0 | y := x}; exit (y live at exit)
  LabelId L0 = B.add(assignStmt(X, Ctx.tVar(Z, IntTy)), {1, 2});
  LabelId L1 = B.add(
      assumeStmt(Ctx.tBinary(BinOp::Gt, Ctx.tVar(X, IntTy), Ctx.tInt(0))),
      {3});
  B.add(assignStmt(Y, Ctx.tVar(X, IntTy)), {3});
  LabelId L3 = B.add(assumeStmt(Ctx.tBool(true)), {});

  ProcFlow Flow(B.Prog, 0);
  BwdLive A;
  A.Exit = {Y};
  DataflowSolver<BwdLive> Solver;
  Solver.solve(Flow, A);

  EXPECT_TRUE(Solver.post(L3).count(Y));
  EXPECT_TRUE(Solver.pre(L1).count(X));
  // Before L0, x is about to be overwritten: only z (feeding x) is live.
  EXPECT_TRUE(Solver.pre(L0).count(Z));
  EXPECT_FALSE(Solver.pre(L0).count(X));
  EXPECT_TRUE(Solver.pre(L0).count(Y)); // y reaches exit on the assume path
}

namespace {

/// The diamond `y := 1; {z := x | z := 5}; assume z > 0` with its entry at
/// label Off. With \p Orphan, label 0 is an unreachable `x := 7` with no
/// predecessors that flows into the join, so it precedes the entry in
/// topological order.
CfgProgram diamondAfterOrphan(AstContext &Ctx, bool Orphan) {
  Symbol X = Ctx.sym("x"), Y = Ctx.sym("y"), Z = Ctx.sym("z");
  const Type *IntTy = Ctx.intType();
  CfgBuilder B(Ctx);
  LabelId Off = Orphan ? 1 : 0;
  if (Orphan)
    B.add(assignStmt(X, Ctx.tInt(7)), {Off + 3});
  B.add(assignStmt(Y, Ctx.tInt(1)), {Off + 1, Off + 2});
  B.add(assignStmt(Z, Ctx.tVar(X, IntTy)), {Off + 3});
  B.add(assignStmt(Z, Ctx.tInt(5)), {Off + 3});
  B.add(assumeStmt(Ctx.tBinary(BinOp::Gt, Ctx.tVar(Z, IntTy), Ctx.tInt(0))),
        {});
  B.Prog.Procs[0].Entry = Off;
  return std::move(B.Prog);
}

} // namespace

TEST(DataflowSolver, EntryNeedNotComeFirstInTopoOrder) {
  AstContext Ctx;
  Symbol X = Ctx.sym("x"), Y = Ctx.sym("y"), Z = Ctx.sym("z");
  CfgProgram Plain = diamondAfterOrphan(Ctx, false);
  CfgProgram Orphaned = diamondAfterOrphan(Ctx, true);
  ProcFlow PlainFlow(Plain, 0), Flow(Orphaned, 0);
  ASSERT_EQ(Flow.entry(), 1u);
  ASSERT_EQ(Flow.topo().front(), 0u); // the orphan precedes the entry

  // Forward: the entry gets the boundary, the orphan stays bottom, and its
  // x := 7 never reaches the join (it would erase y = 1 there).
  DataflowSolver<FwdConsts> Fwd, PlainFwd;
  Fwd.solve(Flow, FwdConsts{});
  PlainFwd.solve(PlainFlow, FwdConsts{});
  EXPECT_FALSE(Fwd.pre(1).Bottom);
  EXPECT_TRUE(Fwd.pre(1).Known.empty());
  EXPECT_TRUE(Fwd.pre(0).Bottom);
  EXPECT_TRUE(Fwd.post(0).Bottom);
  EXPECT_EQ(Fwd.pre(4).get(Y), 1);
  EXPECT_FALSE(Fwd.pre(4).get(X).has_value());
  for (LabelId L = 0; L < 4; ++L) {
    EXPECT_EQ(Fwd.pre(L + 1).Bottom, PlainFwd.pre(L).Bottom) << L;
    EXPECT_EQ(Fwd.pre(L + 1).Known, PlainFwd.pre(L).Known) << L;
    EXPECT_EQ(Fwd.post(L + 1).Bottom, PlainFwd.post(L).Bottom) << L;
    EXPECT_EQ(Fwd.post(L + 1).Known, PlainFwd.post(L).Known) << L;
  }

  // Backward: the orphan gets a pre-state (what is live at the join, less
  // x), and no diamond label's state changes.
  BwdLive Live;
  Live.Exit = {Y};
  DataflowSolver<BwdLive> Bwd, PlainBwd;
  Bwd.solve(Flow, Live);
  PlainBwd.solve(PlainFlow, Live);
  EXPECT_EQ(Bwd.post(0), Bwd.pre(4));
  EXPECT_EQ(Bwd.pre(0), (std::set<Symbol>{Y, Z}));
  for (LabelId L = 0; L < 4; ++L) {
    EXPECT_EQ(Bwd.pre(L + 1), PlainBwd.pre(L)) << L;
    EXPECT_EQ(Bwd.post(L + 1), PlainBwd.post(L)) << L;
  }
  EXPECT_TRUE(Bwd.pre(1).count(X)); // read by z := x
}

TEST(ProcFlow, TopoOrderAndIndex) {
  AstContext Ctx;
  CfgBuilder B(Ctx);
  LabelId L0 = B.add(assumeStmt(Ctx.tBool(true)), {1, 2});
  LabelId L1 = B.add(assumeStmt(Ctx.tBool(true)), {3});
  LabelId L2 = B.add(assumeStmt(Ctx.tBool(true)), {3});
  LabelId L3 = B.add(assumeStmt(Ctx.tBool(true)), {});

  ProcFlow Flow(B.Prog, 0);
  EXPECT_EQ(Flow.size(), 4u);
  EXPECT_EQ(Flow.entry(), L0);
  EXPECT_EQ(Flow.topo().front(), L0);
  EXPECT_EQ(Flow.topo().back(), L3);
  EXPECT_TRUE(Flow.indexOf(L1) < Flow.indexOf(L3));
  EXPECT_TRUE(Flow.indexOf(L2) < Flow.indexOf(L3));
  for (unsigned I = 0; I < Flow.size(); ++I)
    EXPECT_EQ(Flow.indexOf(Flow.topo()[I]), I);
}

//===----------------------------------------------------------------------===//
// Effects and relevance
//===----------------------------------------------------------------------===//

TEST(ProcEffects, TransitiveModAndUse) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var a: int;
    var b: int;
    var c: int;
    procedure leaf() { a := b + 1; }
    procedure mid() { call leaf(); c := 0; }
    procedure main() { call mid(); assert a >= 0; }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);

  VarSlots Slots(Cfg);
  std::vector<ProcEffects> FX = computeProcEffects(Slots);
  ProcId Mid = Cfg.findProc(Ctx.sym("mid"));
  ASSERT_NE(Mid, InvalidProc);
  auto G = [&](const char *Name) { return Slots.globalSlot(Ctx.sym(Name)); };
  EXPECT_TRUE(FX[Mid].ModGlobals.test(G("a"))); // via leaf
  EXPECT_TRUE(FX[Mid].ModGlobals.test(G("c")));
  EXPECT_TRUE(FX[Mid].UseGlobals.test(G("b"))); // via leaf
  EXPECT_FALSE(FX[Mid].ModGlobals.test(G("b")));
}

TEST(Relevance, ClosesOverAssignsAndCalls) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var checked: int;
    var noise: int;
    procedure source(seed: int) returns (r: int) { r := seed * 2; }
    procedure main() {
      var t: int;
      var junk: int;
      call t := source(3);
      checked := t;
      junk := 99;
      noise := junk;
      assert checked >= 0;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);

  VarSlots Slots(Cfg);
  Relevance Rel(Slots, Err);
  ProcId Main = Cfg.findProc(Ctx.sym("main"));
  ProcId Source = Cfg.findProc(Ctx.sym("source"));
  ASSERT_NE(Main, InvalidProc);
  ASSERT_NE(Source, InvalidProc);

  EXPECT_TRUE(Rel.relevantGlobal(Ctx.sym("checked")));
  EXPECT_TRUE(Rel.relevantGlobal(Err));
  EXPECT_TRUE(Rel.relevant(Main, Ctx.sym("t")));          // feeds checked
  EXPECT_TRUE(Rel.relevant(Source, Ctx.sym("r")));        // result flows out
  EXPECT_TRUE(Rel.relevant(Source, Ctx.sym("seed")));     // feeds r
  EXPECT_FALSE(Rel.relevantGlobal(Ctx.sym("noise")));     // never read
  EXPECT_FALSE(Rel.relevant(Main, Ctx.sym("junk")));      // only feeds noise
}

//===----------------------------------------------------------------------===//
// Query liveness against a set-based reference
//===----------------------------------------------------------------------===//

namespace {

/// The slicer's liveness as it was written over std::set<Symbol>, with its
/// own set-based global read effects: the reference the dense bitset
/// QueryLiveness must agree with label by label.
class RefLiveness {
public:
  using Value = std::set<Symbol>;
  static constexpr FlowDirection Direction = FlowDirection::Backward;

  RefLiveness(const CfgProgram &Prog, const Relevance &Rel,
              const std::vector<std::set<Symbol>> &UseGlobals, ProcId P)
      : Prog(Prog), Rel(Rel), UseGlobals(UseGlobals) {
    for (const VarDecl &G : Prog.Globals)
      if (Rel.relevantGlobal(G.Name))
        ExitLive.insert(G.Name);
    for (const VarDecl &R : Prog.proc(P).Returns)
      if (Rel.relevant(P, R.Name))
        ExitLive.insert(R.Name);
  }

  Value bottom() const { return {}; }
  Value boundary() const { return ExitLive; }
  void join(Value &Into, const Value &From) const {
    Into.insert(From.begin(), From.end());
  }
  void transfer(LabelId, const CfgStmt &S, Value &Pre) const {
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      collectExprVars(S.E, Pre);
      break;
    case CfgStmtKind::Assign:
      if (Pre.erase(S.Target))
        collectExprVars(S.E, Pre);
      break;
    case CfgStmtKind::Havoc:
      for (Symbol V : S.Vars)
        Pre.erase(V);
      break;
    case CfgStmtKind::Call: {
      for (Symbol V : S.Vars)
        Pre.erase(V);
      const CfgProc &Q = Prog.proc(S.Callee);
      for (unsigned I = 0; I < S.Args.size() && I < Q.Params.size(); ++I)
        if (Rel.relevant(S.Callee, Q.Params[I].Name))
          collectExprVars(S.Args[I], Pre);
      for (Symbol G : UseGlobals[S.Callee])
        if (Rel.relevantGlobal(G))
          Pre.insert(G);
      break;
    }
    }
  }

  /// Transitive global reads per procedure, over sets.
  static std::vector<std::set<Symbol>> useGlobals(const CfgProgram &Prog) {
    std::set<Symbol> Globals;
    for (const VarDecl &G : Prog.Globals)
      Globals.insert(G.Name);
    std::vector<std::set<Symbol>> Use(Prog.Procs.size());
    for (ProcId P : Prog.bottomUpProcOrder())
      for (LabelId L : Prog.proc(P).Labels) {
        const CfgStmt &S = Prog.label(L).Stmt;
        std::set<Symbol> Vars;
        collectExprVars(S.E, Vars);
        for (const Expr *A : S.Args)
          collectExprVars(A, Vars);
        for (Symbol V : Vars)
          if (Globals.count(V))
            Use[P].insert(V);
        if (S.Kind == CfgStmtKind::Call)
          Use[P].insert(Use[S.Callee].begin(), Use[S.Callee].end());
      }
    return Use;
  }

private:
  const CfgProgram &Prog;
  const Relevance &Rel;
  const std::vector<std::set<Symbol>> &UseGlobals;
  Value ExitLive;
};

/// Solves the dense and the reference liveness on every procedure of
/// \p Prog, under the query relevance and under Relevance::all, and expects
/// the same pre- and post-state at every label. Returns the largest
/// procedure's slot count.
unsigned expectLivenessAgrees(const AstContext &Ctx, const CfgProgram &Prog,
                              Symbol Err, const std::string &What) {
  VarSlots Slots(Prog);
  std::vector<ProcEffects> FX = computeProcEffects(Slots);
  std::vector<std::set<Symbol>> Use = RefLiveness::useGlobals(Prog);
  unsigned MaxSlots = 0;
  for (bool All : {false, true}) {
    Relevance Rel = All ? Relevance::all(Slots) : Relevance(Slots, Err);
    DataflowSolver<QueryLiveness> Dense;
    DataflowSolver<RefLiveness> Ref;
    for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
      MaxSlots = std::max(MaxSlots, Slots.numSlots(P));
      ProcFlow Flow(Prog, P);
      QueryLiveness A(Slots, Rel, FX, P);
      RefLiveness B(Prog, Rel, Use, P);
      Dense.solve(Flow, A);
      Ref.solve(Flow, B);
      auto Same = [&](const Bitset &D, const std::set<Symbol> &R,
                      LabelId L, const char *Side) {
        bool Ok = D.count() == R.size();
        for (Symbol V : R)
          Ok &= A.live(D, V);
        EXPECT_TRUE(Ok) << What << (All ? " (all relevant)" : "") << ": "
                        << Side << "(L" << L << ") in "
                        << Ctx.name(Prog.proc(P).Name) << " has "
                        << D.count() << " live, reference " << R.size();
        return Ok;
      };
      for (LabelId L : Prog.proc(P).Labels)
        if (!Same(Dense.pre(L), Ref.pre(L), L, "pre") ||
            !Same(Dense.post(L), Ref.post(L), L, "post"))
          return MaxSlots;
    }
  }
  return MaxSlots;
}

} // namespace

TEST(QueryLiveness, AgreesWithSetReferenceOnRandomPrograms) {
  // Loops, arrays and bitvectors at bound 2, as lowered and again after
  // `inv` appended its assumes (so no procedure's labels are contiguous).
  unsigned Injected = 0;
  for (uint64_t Draw = 0; Draw < 20; ++Draw) {
    RandomProgParams Params;
    Params.Seed = Draw * 7919 + 3;
    Params.NumProcs = 8;
    Params.MaxStmts = 6;
    Params.MaxNesting = 3;
    Params.AllowLoops = true;
    Params.AllowArrays = true;
    Params.AllowBitvectors = true;
    AstContext Ctx;
    Program P = makeRandomProgram(Ctx, Params);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, P, Root, Err, 2);
    std::string What = "draw " + std::to_string(Draw);
    expectLivenessAgrees(Ctx, Cfg, Err, What);
    size_t Before = Cfg.Labels.size();
    injectInvariants(Ctx, Cfg, Root, Err);
    Injected += Cfg.Labels.size() - Before;
    expectLivenessAgrees(Ctx, Cfg, Err, What + " after inv");
  }
  EXPECT_GT(Injected, 0u);
}

TEST(QueryLiveness, SpansSeveralWords) {
  // 70 locals in one procedure: slots past 64 live in the second word.
  std::string Src = "procedure main() {\n";
  for (unsigned I = 0; I < 70; ++I)
    Src += "  var v" + std::to_string(I) + ": int;\n";
  Src += "  havoc v0;\n";
  for (unsigned I = 1; I < 70; ++I)
    Src += "  v" + std::to_string(I) + " := v" + std::to_string(I - 1) +
           (I % 3 ? " + 1" : " - v" + std::to_string(I / 2)) + ";\n";
  Src += "  if (*) { assert v69 > v40; } else { assert v67 != 0; }\n}\n";
  AstContext Ctx;
  auto P = parseOk(Src.c_str(), Ctx);
  ASSERT_TRUE(P);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err, 1);
  EXPECT_GT(expectLivenessAgrees(Ctx, Cfg, Err, "70 locals"), 64u);

  // Spot check: v40 is read by the assert, so live after its assignment.
  VarSlots Slots(Cfg);
  std::vector<ProcEffects> FX = computeProcEffects(Slots);
  Relevance Rel(Slots, Err);
  ASSERT_GE(Slots.slot(Root, Ctx.sym("v69")), 64u);
  ProcFlow Flow(Cfg, Root);
  QueryLiveness A(Slots, Rel, FX, Root);
  DataflowSolver<QueryLiveness> Solver;
  Solver.solve(Flow, A);
  bool SawV69Store = false;
  for (LabelId L : Cfg.proc(Root).Labels) {
    const CfgStmt &S = Cfg.label(L).Stmt;
    if (S.Kind == CfgStmtKind::Assign && Ctx.name(S.Target) == "v69") {
      SawV69Store = true;
      EXPECT_TRUE(A.live(Solver.post(L), S.Target));
      EXPECT_TRUE(A.live(Solver.post(L), Ctx.sym("v40")));
    }
  }
  EXPECT_TRUE(SawV69Store);
}

//===----------------------------------------------------------------------===//
// The prepass transformations
//===----------------------------------------------------------------------===//

TEST(Prepass, SlicesIrrelevantStateAndElidesCalls) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var watched: int;
    var scratch: int;
    procedure logger(v: int) { scratch := scratch + v; }
    procedure main() {
      watched := 1;
      call logger(7);
      call logger(8);
      assert watched == 1;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  size_t ProcsBefore = Cfg.Procs.size();
  ProcId RootBefore = Root;

  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err);
  // `scratch` cannot reach the query: logger's body slices to skips, the
  // calls are elided, the splicer sweeps the skips, and logger drops out of
  // the program.
  EXPECT_GT(R.SlicedStmts, 0u);
  EXPECT_EQ(R.ElidedCalls, 2u);
  EXPECT_GT(R.SplicedLabels, 0u);
  EXPECT_EQ(R.ProcsAfter, ProcsBefore - 1);
  EXPECT_EQ(Cfg.findProc(Ctx.sym("logger")), InvalidProc);
  // logger preceded main, so main and the root id were renumbered.
  EXPECT_NE(Root, RootBefore);
  EXPECT_EQ(Cfg.proc(Root).Name, Ctx.sym("main"));
  for (ProcId Q = 0; Q < Cfg.Procs.size(); ++Q)
    for (LabelId L : Cfg.proc(Q).Labels)
      EXPECT_EQ(Cfg.label(L).Proc, Q);
}

TEST(Prepass, SlicesDeadMapStores) {
  // A map store lowers to a whole-array assignment `log := log[i := 1]`; when
  // the map never reaches the query, the store is as sliceable as any scalar.
  AstContext Ctx;
  auto P = parseOk(R"(
    var log: [int]int;
    var data: [int]int;
    procedure main() {
      var i: int;
      havoc i;
      log[i] := 1;
      data[i] := 7;
      assert data[i] == 7;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  VarSlots Slots(Cfg);
  Relevance Rel(Slots, Err);
  EXPECT_TRUE(Rel.relevantGlobal(Ctx.sym("data")));
  EXPECT_FALSE(Rel.relevantGlobal(Ctx.sym("log")));

  // Slice in isolation: the dead log store goes, the live data store stays.
  PrepassOptions SliceOnly;
  SliceOnly.Passes = "slice";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, SliceOnly);
  EXPECT_GT(R.SlicedStmts, 0u);
  bool SawDataStore = false, SawLogStore = false;
  for (const CfgLabel &L : Cfg.Labels)
    if (L.Stmt.Kind == CfgStmtKind::Assign) {
      SawDataStore |= Ctx.name(L.Stmt.Target) == "data";
      SawLogStore |= Ctx.name(L.Stmt.Target) == "log";
    }
  EXPECT_TRUE(SawDataStore);
  EXPECT_FALSE(SawLogStore);

  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), Opts).Result.Outcome,
            Verdict::Safe);
}

TEST(Prepass, KeepsAliasingMapStores) {
  // `m[i] := 2` with unconstrained i may overwrite m[0]. The slicer works at
  // whole-variable granularity, so the aliasing store is relevant and must
  // survive — dropping it would flip this bug to safe.
  AstContext Ctx;
  auto P = parseOk(R"(
    var m: [int]int;
    procedure main() {
      var i: int;
      havoc i;
      m[0] := 1;
      m[i] := 2;
      assert m[0] == 1;
    }
  )",
                 Ctx);
  VerifierOptions On;
  On.Engine.Strategy.Kind = MergeStrategyKind::First;
  VerifierOptions Off = On;
  Off.UsePrepass = false;
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), On).Result.Outcome,
            Verdict::Bug);
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), Off).Result.Outcome,
            Verdict::Bug);
}

TEST(Prepass, MapRelevanceCrossesCalls) {
  // The store happens in the callee through a parameter pair; the relevance
  // closure must pull both actuals at the call site, and the sliced program
  // must still prove the read.
  AstContext Ctx;
  auto P = parseOk(R"(
    var store: [int]int;
    var trace: [int]int;
    procedure put(k: int, v: int) {
      store[k] := v;
      trace[v] := k;
    }
    procedure main() {
      var x: int;
      call put(3, 40);
      x := store[3];
      assert x == 40;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  VarSlots Slots(Cfg);
  Relevance Rel(Slots, Err);
  ProcId Put = Cfg.findProc(Ctx.sym("put"));
  ASSERT_NE(Put, InvalidProc);
  EXPECT_TRUE(Rel.relevantGlobal(Ctx.sym("store")));
  EXPECT_TRUE(Rel.relevant(Put, Ctx.sym("k")));
  EXPECT_TRUE(Rel.relevant(Put, Ctx.sym("v")));
  EXPECT_FALSE(Rel.relevantGlobal(Ctx.sym("trace")));

  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err);
  EXPECT_GT(R.SlicedStmts, 0u); // the trace store goes

  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  EXPECT_EQ(verifyProgram(Ctx, *P, Ctx.sym("main"), Opts).Result.Outcome,
            Verdict::Safe);
}

TEST(Prepass, SpliceSkipsCompactsChains) {
  AstContext Ctx;
  CfgBuilder B(Ctx);
  Symbol X = Ctx.sym("x");
  // assign; skip; skip; assign; skip(return)
  B.add(assignStmt(X, Ctx.tInt(1)), {1});
  B.add(assumeStmt(Ctx.tBool(true)), {2});
  B.add(assumeStmt(Ctx.tBool(true)), {3});
  B.add(assignStmt(X, Ctx.tInt(2)), {4});
  B.add(assumeStmt(Ctx.tBool(true)), {});

  unsigned Removed = spliceSkips(B.Prog);
  EXPECT_EQ(Removed, 3u);
  ASSERT_EQ(B.Prog.Labels.size(), 2u);
  // assign(1) now flows straight to assign(2), which returns.
  EXPECT_EQ(B.Prog.Labels[0].Targets, std::vector<LabelId>{1});
  EXPECT_TRUE(B.Prog.Labels[1].Targets.empty());
}

TEST(Prepass, KeepsBlockingSkeletonExact) {
  // A branch where one arm blocks (assume false via unreachable code) and
  // one arm reaches the bug: pruning must keep the bug reachable.
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() {
      havoc g;
      if (g > 0) {
        assert g < 0;
      }
    }
  )",
                 Ctx);
  VerifierOptions On;
  On.Engine.Strategy.Kind = MergeStrategyKind::First;
  VerifierOptions Off = On;
  Off.UsePrepass = false;
  auto ROn = verifyProgram(Ctx, *P, Ctx.sym("main"), On);
  auto ROff = verifyProgram(Ctx, *P, Ctx.sym("main"), Off);
  EXPECT_EQ(ROn.Result.Outcome, Verdict::Bug);
  EXPECT_EQ(ROff.Result.Outcome, Verdict::Bug);
}

TEST(Prepass, RecordsStats) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() { g := 2; assert g == 2; }
  )",
                 Ctx);
  VerifierOptions Opts;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  auto R = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(R.PrepassStats.get("prepass.labels.before"),
            static_cast<int64_t>(R.NumLabels));
  EXPECT_EQ(R.PrepassStats.get("prepass.labels.after"),
            static_cast<int64_t>(R.NumLabelsSolved));
  EXPECT_LT(R.NumLabelsSolved, R.NumLabels);
  EXPECT_FALSE(R.Prepass.str().empty());
}

TEST(Prepass, DisabledLeavesProgramAlone) {
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure main() { g := 2; assert g == 2; }
  )",
                 Ctx);
  VerifierOptions Opts;
  Opts.UsePrepass = false;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  auto R = verifyProgram(Ctx, *P, Ctx.sym("main"), Opts);
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
  EXPECT_EQ(R.NumLabelsSolved, R.NumLabels);
  EXPECT_EQ(R.Prepass.LabelsBefore, 0u);
  EXPECT_EQ(R.PrepassStats.counters().size(), 0u);
}

//===----------------------------------------------------------------------===//
// Lint
//===----------------------------------------------------------------------===//

namespace {

LintReport lintSource(const char *Src, std::vector<Diag> *DiagsOut = nullptr) {
  AstContext Ctx;
  auto P = parseOk(Src, Ctx);
  DiagEngine Diags;
  LintReport R = lintProgram(Ctx, *P, Diags);
  // Error-severity diagnostics must line up with the report's error count.
  EXPECT_EQ(Diags.hasErrors(), R.hasErrors());
  if (DiagsOut)
    *DiagsOut = Diags.all();
  return R;
}

bool anyDiagContains(const std::vector<Diag> &Diags, const std::string &Needle,
                     unsigned Line = 0) {
  for (const Diag &D : Diags)
    if (D.Message.find(Needle) != std::string::npos &&
        (Line == 0 || D.Loc.Line == Line))
      return true;
  return false;
}

} // namespace

TEST(Lint, FlagsUseBeforeDef) {
  std::vector<Diag> Diags;
  LintReport R = lintSource(R"(
    procedure main() {
      var x: int;
      var y: int;
      y := x + 1;
      assert y > 0;
    }
  )",
                            &Diags);
  EXPECT_EQ(R.UseBeforeDef, 1u);
  EXPECT_TRUE(anyDiagContains(Diags, "'x' may be used before", 5));
  // Use-before-def is error severity and shows up in the structured report.
  EXPECT_TRUE(R.hasErrors());
  EXPECT_EQ(R.errors(), 1u);
  EXPECT_EQ(R.warnings(), 0u);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Check, LintCheck::UseBeforeDef);
  EXPECT_EQ(R.Findings[0].Severity, LintSeverity::Error);
  EXPECT_EQ(R.Findings[0].Loc.Line, 5u);
}

TEST(Lint, SeverityMapping) {
  EXPECT_EQ(lintSeverityOf(LintCheck::UseBeforeDef), LintSeverity::Error);
  EXPECT_EQ(lintSeverityOf(LintCheck::UndeclaredHavoc), LintSeverity::Error);
  EXPECT_EQ(lintSeverityOf(LintCheck::UnreachableCode), LintSeverity::Warning);
  EXPECT_EQ(lintSeverityOf(LintCheck::DeadStore), LintSeverity::Warning);
}

TEST(Lint, DefiniteAssignmentJoinsBranches) {
  // x assigned on both arms: fine. z assigned on one arm only: flagged.
  std::vector<Diag> Diags;
  LintReport R = lintSource(R"(
    procedure main() {
      var x: int;
      var z: int;
      if (*) { x := 1; z := 1; } else { x := 2; }
      assert x + z > 0;
    }
  )",
                            &Diags);
  EXPECT_EQ(R.UseBeforeDef, 1u);
  EXPECT_TRUE(anyDiagContains(Diags, "'z' may be used before"));
  EXPECT_FALSE(anyDiagContains(Diags, "'x' may be used before"));
}

TEST(Lint, HavocAndCallResultsCountAsDefs) {
  LintReport R = lintSource(R"(
    procedure mk() returns (r: int) { r := 3; }
    procedure main() {
      var a: int;
      var b: int;
      havoc a;
      call b := mk();
      assert a + b > 0;
    }
  )");
  EXPECT_EQ(R.UseBeforeDef, 0u);
}

TEST(Lint, FlagsUnreachableCode) {
  std::vector<Diag> Diags;
  LintReport R = lintSource(R"(
    var g: int;
    procedure main() {
      g := 1;
      return;
      g := 2;
    }
  )",
                            &Diags);
  EXPECT_EQ(R.UnreachableCode, 1u);
  EXPECT_TRUE(anyDiagContains(Diags, "unreachable code", 6));
}

TEST(Lint, FlagsDeadStores) {
  std::vector<Diag> Diags;
  LintReport R = lintSource(R"(
    var g: int;
    procedure main() {
      var t: int;
      t := 5;
      t := 6;
      g := t;
    }
  )",
                            &Diags);
  EXPECT_EQ(R.DeadStores, 1u);
  EXPECT_TRUE(anyDiagContains(Diags, "dead store to 't'", 5));
  // Dead stores are warnings: they never gate the lint exit code.
  EXPECT_FALSE(R.hasErrors());
  EXPECT_EQ(R.warnings(), 1u);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].Check, LintCheck::DeadStore);
  EXPECT_EQ(R.Findings[0].Severity, LintSeverity::Warning);
}

TEST(Lint, GlobalStoresAreNeverDead) {
  // Globals outlive the procedure; overwriting one is not a dead store.
  LintReport R = lintSource(R"(
    var g: int;
    procedure main() {
      g := 1;
      g := 2;
    }
  )");
  EXPECT_EQ(R.DeadStores, 0u);
}

TEST(Lint, LoopCarriedUsesAreNotDeadStores) {
  LintReport R = lintSource(R"(
    var sum: int;
    procedure main() {
      var i: int;
      i := 0;
      while (i < 3) {
        sum := sum + i;
        i := i + 1;
      }
    }
  )");
  EXPECT_EQ(R.DeadStores, 0u);
  EXPECT_EQ(R.UseBeforeDef, 0u);
}

TEST(Lint, FlagsHavocOfUndeclaredVariable) {
  // The type checker rejects this for parsed programs, so build it directly
  // (the builder API skips checking).
  AstContext Ctx;
  Program Prog;
  Procedure Main;
  Main.Name = Ctx.sym("main");
  Main.Body.push_back(Ctx.havoc({Ctx.sym("ghost")}, SrcLoc{3, 1}));
  Prog.Procedures.push_back(std::move(Main));

  DiagEngine Diags;
  LintReport R = lintProgram(Ctx, Prog, Diags);
  EXPECT_EQ(R.UndeclaredHavocs, 1u);
  EXPECT_TRUE(anyDiagContains(Diags.all(), "havoc of undeclared variable "
                                           "'ghost'"));
}

TEST(Lint, CleanProgramHasNoWarnings) {
  LintReport R = lintSource(R"(
    var g: int;
    procedure bump(k: int) returns (r: int) { r := g + k; }
    procedure main() {
      var v: int;
      call v := bump(2);
      g := v;
      assert g >= v;
    }
  )");
  EXPECT_EQ(R.total(), 0u);
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_FALSE(R.hasErrors());
}
