//===- passmanager_test.cpp - Pass manager, VerifyCfg, and GVN -------------===//

#include "TestSupport.h"
#include "analysis/Gvn.h"
#include "analysis/PassManager.h"
#include "analysis/VerifyCfg.h"

#include <gtest/gtest.h>

#include <map>

using namespace rmt;

namespace {

bool anyDiagContains(const std::vector<std::string> &Diags,
                     const std::string &Needle) {
  for (const std::string &D : Diags)
    if (D.find(Needle) != std::string::npos)
      return true;
  return false;
}

std::string joined(const std::vector<std::string> &Diags) {
  std::string Out;
  for (const std::string &D : Diags)
    Out += D + "\n";
  return Out;
}

LabelId findLabel(const CfgProgram &Cfg, CfgStmtKind Kind) {
  for (LabelId L = 0; L < Cfg.Labels.size(); ++L)
    if (Cfg.Labels[L].Stmt.Kind == Kind)
      return L;
  return InvalidLabel;
}

const char *CallDemo = R"(
  var g: int;
  procedure callee(a: int) returns (r: int) { r := a + g; }
  procedure main() {
    var v: int;
    call v := callee(5);
    g := v;
    assert g >= 0;
  }
)";

} // namespace

//===----------------------------------------------------------------------===//
// VerifyCfg: clean programs pass, each seeded corruption is caught with a
// precise diagnostic
//===----------------------------------------------------------------------===//

TEST(VerifyCfg, CleanLoweredProgramVerifies) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(Diags.empty()) << joined(Diags);
}

TEST(VerifyCfg, CleanProgramStaysVerifiedThroughThePipeline) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  PrepassOptions Opts;
  Opts.VerifyEach = true;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  EXPECT_TRUE(R.ok()) << joined(R.PipelineErrors);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(Diags.empty()) << joined(Diags);
}

TEST(VerifyCfg, DetectsDanglingSuccessor) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Cfg.Labels[Cfg.Procs[Root].Entry].Targets.push_back(999999);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "dangling successor L999999"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCrossProcedureSuccessor) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  // Point a root label at another procedure's entry.
  ProcId Other = Root == 0 ? 1 : 0;
  ASSERT_GT(Cfg.Procs.size(), 1u);
  Cfg.Labels[Cfg.Procs[Root].Entry].Targets.push_back(
      Cfg.Procs[Other].Entry);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "cross-procedure successor"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsFlowCycle) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Entry = Cfg.Procs[Root].Entry;
  Cfg.Labels[Entry].Targets.push_back(Entry); // self-loop
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "has a cycle through label L" +
                                         std::to_string(Entry)))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCallGraphCycle) {
  // Hand-built mutual recursion: even calls odd calls even. The lowering
  // never produces this (bounding unrolls recursion), so build it directly.
  AstContext Ctx;
  CfgProgram Cfg;
  Cfg.Procs.resize(2);
  Cfg.Procs[0].Name = Ctx.sym("even");
  Cfg.Procs[1].Name = Ctx.sym("odd");
  for (ProcId P = 0; P < 2; ++P) {
    CfgStmt Call;
    Call.Kind = CfgStmtKind::Call;
    Call.Callee = 1 - P;
    LabelId L = static_cast<LabelId>(Cfg.Labels.size());
    Cfg.Labels.push_back({std::move(Call), {}, P, SrcLoc{}});
    Cfg.Procs[P].Entry = L;
    Cfg.Procs[P].Labels = {L};
  }
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg);
  EXPECT_TRUE(anyDiagContains(Diags, "call graph has a cycle through "
                                     "procedure"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCallArityMismatch) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId CallLabel = findLabel(Cfg, CfgStmtKind::Call);
  ASSERT_NE(CallLabel, InvalidLabel);
  Cfg.Labels[CallLabel].Stmt.Args.clear();
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(
      Diags, "passes 0 arguments but the signature has 1 parameters"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsCallResultArityMismatch) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId CallLabel = findLabel(Cfg, CfgStmtKind::Call);
  ASSERT_NE(CallLabel, InvalidLabel);
  Cfg.Labels[CallLabel].Stmt.Vars.clear();
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(
      Diags, "binds 0 results but the signature has 1 returns"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsOutOfScopeAssignmentTarget) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Assign = findLabel(Cfg, CfgStmtKind::Assign);
  ASSERT_NE(Assign, InvalidLabel);
  Cfg.Labels[Assign].Stmt.Target = Ctx.sym("no_such_var");
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(
      Diags, "targets variable 'no_such_var' which is not in scope"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsNonBoolAssumeCondition) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Assume = findLabel(Cfg, CfgStmtKind::Assume);
  ASSERT_NE(Assume, InvalidLabel);
  Cfg.Labels[Assume].Stmt.E = Ctx.tInt(7);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "non-bool condition of type int"))
      << joined(Diags);
}

TEST(VerifyCfg, DetectsHavockedQueryVariable) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  LabelId Assume = findLabel(Cfg, CfgStmtKind::Assume);
  ASSERT_NE(Assume, InvalidLabel);
  CfgStmt Havoc;
  Havoc.Kind = CfgStmtKind::Havoc;
  Havoc.Vars = {Err};
  Cfg.Labels[Assume].Stmt = std::move(Havoc);
  std::vector<std::string> Diags = verifyCfg(Ctx, Cfg, Root, Err);
  EXPECT_TRUE(anyDiagContains(Diags, "is havocked at label"))
      << joined(Diags);
  // Without the query variable the shape check is off.
  EXPECT_TRUE(verifyCfg(Ctx, Cfg, Root).empty());
}

TEST(VerifyCfg, DetectsEntryNotOwnedAndBadBackPointer) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  ASSERT_GT(Cfg.Procs.size(), 1u);
  ProcId Other = Root == 0 ? 1 : 0;
  CfgProgram Bad = Cfg;
  Bad.Procs[Root].Entry = Bad.Procs[Other].Entry;
  EXPECT_TRUE(anyDiagContains(verifyCfg(Ctx, Bad, Root, Err),
                              "is not among the labels it owns"));

  CfgProgram Bad2 = Cfg;
  Bad2.Labels[Bad2.Procs[Root].Entry].Proc = Other;
  EXPECT_TRUE(anyDiagContains(verifyCfg(Ctx, Bad2, Root, Err),
                              "Proc back-pointer"));
}

TEST(VerifyCfg, DetectsRootOutOfRange) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  EXPECT_TRUE(anyDiagContains(verifyCfg(Ctx, Cfg, 12345, Err),
                              "root procedure id 12345 out of range"));
}

//===----------------------------------------------------------------------===//
// GVN and assume-redundancy elimination
//===----------------------------------------------------------------------===//

TEST(Gvn, PropagatesCopyChains) {
  // `y := x; z := y + 1` — the add's operand should be rewritten to the
  // chain head `x` once y and x share a value number.
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      var y: int;
      var z: int;
      havoc x;
      y := x;
      z := y + 1;
      assert z > x;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport R = runGvn(Ctx, Cfg);
  EXPECT_GE(R.PropagatedExprs, 1u);
  bool SawRewrittenAdd = false;
  for (const CfgLabel &L : Cfg.Labels) {
    const CfgStmt &S = L.Stmt;
    if (S.Kind != CfgStmtKind::Assign || !S.E ||
        S.E->kind() != ExprKind::Binary || S.E->binOp() != BinOp::Add)
      continue;
    if (S.E->op1() && S.E->op1()->kind() == ExprKind::IntLit &&
        S.E->op1()->intValue() == 1) {
      ASSERT_EQ(S.E->op0()->kind(), ExprKind::Var);
      EXPECT_EQ(Ctx.name(S.E->op0()->var()), "x");
      SawRewrittenAdd = true;
    }
  }
  EXPECT_TRUE(SawRewrittenAdd);
  // GVN must leave the program structurally sound.
  EXPECT_TRUE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}

TEST(Gvn, FoldsLiteralsThroughCopies) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      var y: int;
      x := 2;
      y := x + 3;
      assert y > 0;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport R = runGvn(Ctx, Cfg);
  EXPECT_GE(R.PropagatedExprs, 1u);
  bool SawFoldedStore = false;
  for (const CfgLabel &L : Cfg.Labels) {
    const CfgStmt &S = L.Stmt;
    if (S.Kind == CfgStmtKind::Assign && Ctx.name(S.Target) == "y") {
      ASSERT_EQ(S.E->kind(), ExprKind::IntLit);
      EXPECT_EQ(S.E->intValue(), 5);
      SawFoldedStore = true;
    }
  }
  EXPECT_TRUE(SawFoldedStore);
}

namespace {

/// Runs GVN over \p Src and returns each local's last assigned right side.
std::map<std::string, const Expr *> gvnRhs(AstContext &Ctx, const char *Src) {
  std::map<std::string, const Expr *> Rhs;
  auto P = parseOk(Src, Ctx);
  if (!P)
    return Rhs;
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  runGvn(Ctx, Cfg);
  for (const CfgLabel &L : Cfg.Labels)
    if (L.Stmt.Kind == CfgStmtKind::Assign)
      Rhs[std::string(Ctx.name(L.Stmt.Target))] = L.Stmt.E;
  return Rhs;
}

bool isIntLit(const Expr *E, int64_t V) {
  return E && E->kind() == ExprKind::IntLit && E->intValue() == V;
}

} // namespace

// Constant-expression evaluation under a known binding (x == 6) is GVN's
// literal folding.
TEST(EvalConstExpr, FoldsArithmeticAndComparisons) {
  AstContext Ctx;
  auto Rhs = gvnRhs(Ctx, R"(
    procedure main() {
      var x: int;
      var a: int;
      var b: int;
      var c: bool;
      var n: int;
      var q: int;
      var m: int;
      var t: int;
      x := 6;
      a := x + 4;
      b := x * (-2);
      c := x < 7;
      n := -x;
      q := (-7) div 2;
      m := (-7) mod 2;
      t := (if x == 6 then 1 else 2);
      assert c && a + b + n + q + m + t > 0;
    }
  )");
  EXPECT_TRUE(isIntLit(Rhs["a"], 10));
  EXPECT_TRUE(isIntLit(Rhs["b"], -12));
  ASSERT_TRUE(Rhs["c"]);
  EXPECT_EQ(Rhs["c"]->kind(), ExprKind::BoolLit);
  EXPECT_TRUE(Rhs["c"]->boolValue());
  EXPECT_TRUE(isIntLit(Rhs["n"], -6));
  // Euclidean semantics: -7 div 2 = -4, -7 mod 2 = 1.
  EXPECT_TRUE(isIntLit(Rhs["q"], -4));
  EXPECT_TRUE(isIntLit(Rhs["m"], 1));
  EXPECT_TRUE(isIntLit(Rhs["t"], 1));
}

TEST(EvalConstExpr, RefusesDivByZeroAndOverflow) {
  // x div 0 is uninterpreted in SMT, and a wrapped int64 is not the
  // mathematical result; folding either would change verdicts. Literals
  // have at most 18 digits, so INT64_MAX and INT64_MIN are built by
  // arithmetic (which does fold).
  AstContext Ctx;
  auto Rhs = gvnRhs(Ctx, R"(
    procedure main() {
      var d: int;
      var r: int;
      var hi: int;
      var lo: int;
      var o: int;
      var p: int;
      d := 5 div 0;
      r := 5 mod 0;
      hi := 922337203685477580 * 10 + 7;
      lo := -922337203685477580 * 10 - 8;
      o := hi + 1;
      p := lo * (-1);
      assert d + r + o + p >= 0;
    }
  )");
  EXPECT_TRUE(isIntLit(Rhs["hi"], INT64_MAX));
  EXPECT_TRUE(isIntLit(Rhs["lo"], INT64_MIN));
  for (const char *V : {"d", "r", "o", "p"}) {
    ASSERT_TRUE(Rhs[V]) << V;
    EXPECT_NE(Rhs[V]->kind(), ExprKind::IntLit) << V;
  }
}

TEST(Gvn, FoldsConnectivesThroughUnknowns) {
  // Expressions are total, so an absorbing operand decides a connective
  // whatever the other side holds; an identity operand leaves the other.
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var u: bool;
      var a: bool;
      var b: bool;
      var c: bool;
      var d: bool;
      havoc u;
      a := false && u;
      b := u || true;
      c := false ==> u;
      d := true && u;
      assert (a || b) && (c || d);
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  runGvn(Ctx, Cfg);
  std::map<std::string, const Expr *> Rhs;
  for (const CfgLabel &L : Cfg.Labels)
    if (L.Stmt.Kind == CfgStmtKind::Assign)
      Rhs[std::string(Ctx.name(L.Stmt.Target))] = L.Stmt.E;
  auto IsLit = [](const Expr *E, bool V) {
    return E && E->kind() == ExprKind::BoolLit && E->boolValue() == V;
  };
  EXPECT_TRUE(IsLit(Rhs["a"], false));
  EXPECT_TRUE(IsLit(Rhs["b"], true));
  EXPECT_TRUE(IsLit(Rhs["c"], true));
  ASSERT_TRUE(Rhs["d"]);
  ASSERT_EQ(Rhs["d"]->kind(), ExprKind::Var);
  EXPECT_EQ(Ctx.name(Rhs["d"]->var()), "u");
}

TEST(Gvn, EliminatesEntailedAssume) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      havoc x;
      assume x > 0;
      assume x > 0;
      assert x > 0;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport R = runGvn(Ctx, Cfg);
  EXPECT_GE(R.RedundantAssumes, 1u);
  EXPECT_TRUE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}

TEST(Gvn, SharpensContradictedAssume) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      havoc x;
      assume x > 0;
      assume !(x > 0);
      x := 1;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport R = runGvn(Ctx, Cfg);
  EXPECT_GE(R.ContradictedAssumes, 1u);
  // The sharpened label is `assume false` with its successors cut.
  bool SawFalse = false;
  for (const CfgLabel &L : Cfg.Labels)
    if (L.Stmt.Kind == CfgStmtKind::Assume && L.Stmt.E &&
        L.Stmt.E->kind() == ExprKind::BoolLit && !L.Stmt.E->boolValue()) {
      EXPECT_TRUE(L.Targets.empty());
      SawFalse = true;
    }
  EXPECT_TRUE(SawFalse);
  EXPECT_TRUE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}

TEST(Gvn, PrunesBranchWhoseRecordedConditionsClash) {
  // `y == 1 && x > 0` is neither refuted nor folded on its own: only the
  // conditions it records (x > 0 against the earlier !(x > 0)) clash, so the
  // assume's post-state is bottom and the guarded call goes.
  AstContext Ctx;
  auto P = parseOk(R"(
    var g: int;
    procedure expensive() { g := g + 1; assert g < 100; }
    procedure main() {
      var x: int;
      var y: int;
      havoc x;
      havoc y;
      assume !(x > 0);
      if (y == 1 && x > 0) { call expensive(); }
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  PrepassOptions Opts;
  Opts.VerifyEach = true;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
  EXPECT_GE(R.ContradictedAssumes, 1u);
  EXPECT_EQ(Cfg.findProc(Ctx.sym("expensive")), InvalidProc);
  EXPECT_EQ(R.ProcsAfter, 1u);
  EXPECT_EQ(findLabel(Cfg, CfgStmtKind::Call), InvalidLabel);
}

TEST(Gvn, SecondRunChangesNothing) {
  AstContext Ctx;
  auto P = parseOk(R"(
    procedure main() {
      var x: int;
      var y: int;
      havoc x;
      y := x;
      assume y > 0;
      assume x > 0;
      if (x > 0) { y := y + 1; } else { y := 0; }
      assert y > 1;
    }
  )",
                 Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  GvnReport First = runGvn(Ctx, Cfg);
  EXPECT_GE(First.RedundantAssumes, 1u);
  EXPECT_GE(First.ContradictedAssumes, 1u);
  std::string After = Cfg.str(Ctx);
  GvnReport Second = runGvn(Ctx, Cfg);
  EXPECT_EQ(Second.total(), 0u);
  EXPECT_EQ(Cfg.str(Ctx), After);
}

//===----------------------------------------------------------------------===//
// Pass table and pipelines
//===----------------------------------------------------------------------===//

TEST(PassRegistry, ListsBuiltinsInDefaultPipelineOrder) {
  std::vector<std::string_view> Builtins = {"gvn",      "slice", "splice",
                                            "deadproc", "lint",  "inv"};
  ASSERT_EQ(BuiltinPasses.size(), Builtins.size());
  for (size_t I = 0; I < Builtins.size(); ++I) {
    EXPECT_EQ(BuiltinPasses[I].Name, Builtins[I]);
    EXPECT_FALSE(BuiltinPasses[I].Description.empty());
    EXPECT_NE(BuiltinPasses[I].Run, nullptr);
  }
  EXPECT_FALSE(parsePassSpec("nope"));
}

TEST(PassPipeline, ParsesSpecsAndRoundTrips) {
  auto PL = parsePassSpec(" gvn , slice ,");
  ASSERT_TRUE(PL);
  ASSERT_EQ(PL->size(), 2u);
  EXPECT_EQ((*PL)[0]->Name, "gvn");
  EXPECT_EQ((*PL)[1]->Name, "slice");
  EXPECT_EQ((*PL)[0], &BuiltinPasses[0]);

  std::string Error;
  EXPECT_FALSE(parsePassSpec("gvn,bogus", &Error));
  EXPECT_EQ(Error, "unknown pass 'bogus' (available: gvn slice splice "
                   "deadproc lint inv)");

  EXPECT_TRUE(parsePassSpec("")->empty());
}

TEST(PassPipeline, SpecIsPassesThenInv) {
  PrepassOptions Opts;
  EXPECT_EQ(Opts.spec(), "gvn,slice,splice,deadproc");
  auto PL = parsePassSpec(Opts.spec());
  ASSERT_TRUE(PL);
  ASSERT_EQ(PL->size(), 4u);
  for (size_t I = 0; I < PL->size(); ++I)
    EXPECT_EQ((*PL)[I], &BuiltinPasses[I]);
  Opts.Invariants = true;
  EXPECT_EQ(Opts.spec(), "gvn,slice,splice,deadproc,inv");
  // The empty spec is "no prepass"; +Inv still runs alone.
  Opts.Passes.clear();
  EXPECT_EQ(Opts.spec(), "inv");
  Opts.Invariants = false;
  EXPECT_TRUE(Opts.spec().empty());
}

TEST(PassPipeline, RecordsPerPassStats) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Stats S;
  PrepassOptions Opts;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  EXPECT_TRUE(R.ok());
  for (const char *Name : {"gvn", "slice", "splice", "deadproc"})
    EXPECT_EQ(S.get("pass." + std::string(Name) + ".runs"), 1)
        << Name;
  // The demo program has skip labels to splice, so at least one pass reports
  // a change.
  EXPECT_GE(S.get("pass.splice.changed"), 1);
  EXPECT_EQ(S.get("pass.inv.runs"), 0);
}

TEST(PassPipeline, LintAuditCountsResidualDeadStores) {
  const char *Src = R"(
    var g: int;
    procedure main() {
      var dead: int;
      var x: int;
      x := 1;
      dead := x + 41;
      g := x;
      assert g == 1;
    }
  )";
  // The lint audit alone sees the store to `dead` (no later statement reads
  // it)...
  {
    AstContext Ctx;
    auto P = parseOk(Src, Ctx);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, *P, Root, Err);
    PrepassOptions Opts;
    Opts.Passes = "lint";
    Opts.VerifyEach = true;
    size_t LabelsBefore = Cfg.Labels.size();
    PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
    ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
    EXPECT_GE(R.AuditDeadStores, 1u);
    EXPECT_EQ(R.AuditUnreachableLabels, 0u);
    // Read-only: the program itself is untouched.
    EXPECT_EQ(Cfg.Labels.size(), LabelsBefore);
    EXPECT_NE(R.str().find("lint audit"), std::string::npos);
  }
  // ...and running it after the default pipeline finds nothing left to flag.
  {
    AstContext Ctx;
    auto P = parseOk(Src, Ctx);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, *P, Root, Err);
    PrepassOptions Opts;
    Opts.Passes = "gvn,slice,splice,deadproc,lint";
    Opts.VerifyEach = true;
    PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
    ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
    EXPECT_EQ(R.AuditDeadStores, 0u);
    EXPECT_EQ(R.AuditUnreachableLabels, 0u);
  }
}

TEST(PassPipeline, LintAuditFlagsUnreachableLabels) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  // Graft a structurally valid but entry-unreachable label onto the root.
  CfgLabel Orphan;
  Orphan.Stmt.Kind = CfgStmtKind::Assume;
  Orphan.Stmt.E = Ctx.tBool(true);
  Orphan.Proc = Root;
  LabelId L = static_cast<LabelId>(Cfg.Labels.size());
  Cfg.Labels.push_back(Orphan);
  Cfg.Procs[Root].Labels.push_back(L);
  PrepassOptions Opts;
  Opts.Passes = "lint";
  Opts.VerifyEach = true;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  ASSERT_TRUE(R.ok()) << joined(R.PipelineErrors);
  EXPECT_EQ(R.AuditUnreachableLabels, 1u);
}

TEST(PassPipeline, PassesOverrideRunsOnlyTheListedPasses) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Stats S;
  PrepassOptions Opts;
  Opts.Passes = "splice,splice";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(S.get("pass.splice.runs"), 2);
  EXPECT_EQ(S.get("pass.gvn.runs"), 0);
  EXPECT_EQ(S.get("pass.deadproc.runs"), 0);
}

TEST(PassPipeline, UnknownPassNameAbortsBeforeRunningAnything) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  size_t LabelsBefore = Cfg.Labels.size();
  PrepassOptions Opts;
  Opts.Passes = "gvn,bogus";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.PipelineErrors.size(), 1u);
  EXPECT_NE(R.PipelineErrors[0].find("unknown pass 'bogus'"),
            std::string::npos);
  EXPECT_EQ(Cfg.Labels.size(), LabelsBefore);
  // The summary line surfaces the abort.
  EXPECT_NE(R.str().find("PIPELINE ABORTED"), std::string::npos);
}

namespace {

/// Test-only pass that corrupts the flow graph, for --verify-each coverage.
bool plantDanglingSuccessor(PassContext &PC) {
  PC.Prog.Labels[PC.Prog.Procs[PC.Root].Entry].Targets.push_back(
      static_cast<LabelId>(PC.Prog.Labels.size() + 7));
  return true;
}

/// The builtin table plus the corrupting pass.
std::vector<PassInfo> tableWithCorruptingPass() {
  std::vector<PassInfo> Table(BuiltinPasses.begin(), BuiltinPasses.end());
  Table.push_back({"corrupt", "test pass that plants a dangling successor",
                   plantDanglingSuccessor});
  return Table;
}

} // namespace

TEST(PassPipeline, VerifyEachCatchesACorruptingPass) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);

  std::vector<PassInfo> Table = tableWithCorruptingPass();
  auto PL = parsePassSpec("gvn,corrupt,splice", nullptr, Table);
  ASSERT_TRUE(PL);
  PrepassReport R;
  PassContext PC{Ctx, Cfg, Root, Err, R};
  Stats S;
  std::vector<std::string> Errors =
      runPasses(PC, *PL, /*VerifyEach=*/true, false, nullptr, &S);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("VerifyCfg after pass 'corrupt'"),
            std::string::npos)
      << Errors[0];
  EXPECT_NE(Errors[0].find("dangling successor"), std::string::npos);
  // The pipeline stopped at the offending pass.
  EXPECT_EQ(S.get("pass.corrupt.runs"), 1);
  EXPECT_EQ(S.get("pass.splice.runs"), 0);
}

TEST(PassPipeline, VerifyEachChecksThePipelineInputToo) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Cfg.Labels[Cfg.Procs[Root].Entry].Targets.push_back(999999);

  PrepassOptions Opts;
  Opts.VerifyEach = true;
  Stats S;
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.PipelineErrors[0].find("VerifyCfg after pipeline input"),
            std::string::npos)
      << R.PipelineErrors[0];
  EXPECT_EQ(S.get("pass.gvn.runs"), 0);
}

TEST(PassPipeline, WithoutVerifyEachCorruptionGoesUnnoticed) {
  // Sanity-check the control: the corrupting pass only trips the pipeline
  // when verification is requested (the verifier's Unknown-on-abort path
  // depends on this distinction). The runner is called directly because
  // runPrepass also turns verification on under RMT_VERIFY_EACH.
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  std::vector<PassInfo> Table = tableWithCorruptingPass();
  auto PL = parsePassSpec("corrupt", nullptr, Table);
  ASSERT_TRUE(PL);
  PrepassReport R;
  PassContext PC{Ctx, Cfg, Root, Err, R};
  EXPECT_TRUE(runPasses(PC, *PL, /*VerifyEach=*/false, false, nullptr, nullptr)
                  .empty());
  EXPECT_FALSE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}
