//===- passmanager_test.cpp - Pass manager and VerifyCfg ------------------===//

#include "TestSupport.h"
#include "analysis/PassManager.h"
#include "analysis/VerifyCfg.h"

#include <gtest/gtest.h>

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
// Pass table and pipelines
//===----------------------------------------------------------------------===//

TEST(PassRegistry, ListsBuiltinsInDefaultPipelineOrder) {
  std::vector<std::string_view> Builtins = {"slice", "splice", "deadproc",
                                            "lint",  "inv"};
  ASSERT_EQ(BuiltinPasses.size(), Builtins.size());
  for (size_t I = 0; I < Builtins.size(); ++I) {
    EXPECT_EQ(BuiltinPasses[I].Name, Builtins[I]);
    EXPECT_FALSE(BuiltinPasses[I].Description.empty());
    EXPECT_NE(BuiltinPasses[I].Run, nullptr);
  }
  EXPECT_FALSE(parsePassSpec("nope"));
}

TEST(PassPipeline, ParsesSpecsAndRoundTrips) {
  auto PL = parsePassSpec(" slice , splice ,");
  ASSERT_TRUE(PL);
  ASSERT_EQ(PL->size(), 2u);
  EXPECT_EQ((*PL)[0]->Name, "slice");
  EXPECT_EQ((*PL)[1]->Name, "splice");
  EXPECT_EQ((*PL)[0], &BuiltinPasses[0]);

  std::string Error;
  EXPECT_FALSE(parsePassSpec("slice,bogus", &Error));
  EXPECT_EQ(Error, "unknown pass 'bogus' (available: slice splice deadproc "
                   "lint inv)");

  EXPECT_TRUE(parsePassSpec("")->empty());
}

TEST(PassPipeline, SpecIsPassesThenInv) {
  // +Inv is the default: the structural passes, then `inv`.
  PrepassOptions Opts;
  EXPECT_TRUE(Opts.Invariants);
  EXPECT_EQ(Opts.spec(), "slice,splice,deadproc,inv");
  auto PL = parsePassSpec(Opts.spec());
  ASSERT_TRUE(PL);
  ASSERT_EQ(PL->size(), 4u);
  for (size_t I = 0; I < 3; ++I)
    EXPECT_EQ((*PL)[I], &BuiltinPasses[I]);
  EXPECT_EQ((*PL)[3]->Name, "inv");
  Opts.Invariants = false;
  EXPECT_EQ(Opts.spec(), "slice,splice,deadproc");
  // The empty spec is "no prepass"; +Inv still runs alone.
  Opts.Invariants = true;
  Opts.Passes.clear();
  EXPECT_EQ(Opts.spec(), "inv");
  Opts.Invariants = false;
  EXPECT_TRUE(Opts.spec().empty());
}

TEST(PassPipeline, SpecNeverRunsInvTwice) {
  // A spec that already names `inv` runs it where it stands, once.
  PrepassOptions Opts;
  Opts.Passes = "slice,inv";
  EXPECT_EQ(Opts.spec(), "slice,inv");
  Opts.Passes = "inv, splice";
  EXPECT_EQ(Opts.spec(), "inv, splice");
  Opts.Passes = "slice,invx";
  EXPECT_EQ(Opts.spec(), "slice,invx,inv"); // an unknown name stays an error
  EXPECT_FALSE(parsePassSpec(Opts.spec()));

  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Stats S;
  Opts.Passes = "slice,inv,splice";
  PrepassReport R = runPrepass(Ctx, Cfg, Root, Err, Opts, &S);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(S.get("pass.inv.runs"), 1);
  EXPECT_EQ(S.get("pass.splice.runs"), 1);
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
  for (const char *Name : {"slice", "splice", "deadproc", "inv"})
    EXPECT_EQ(S.get("pass." + std::string(Name) + ".runs"), 1)
        << Name;
  // The demo program has skip labels to splice, so at least one pass reports
  // a change.
  EXPECT_GE(S.get("pass.splice.changed"), 1);
  EXPECT_EQ(S.get("pass.lint.runs"), 0);

  // -Inv runs the structural passes only.
  CfgProgram Cfg2 = lower(Ctx, *P, Root, Err);
  Stats S2;
  Opts.Invariants = false;
  EXPECT_TRUE(runPrepass(Ctx, Cfg2, Root, Err, Opts, &S2).ok());
  EXPECT_EQ(S2.get("pass.slice.runs"), 1);
  EXPECT_EQ(S2.get("pass.inv.runs"), 0);
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
    Opts.Passes = "slice,splice,deadproc,lint";
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
  EXPECT_EQ(S.get("pass.slice.runs"), 0);
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
  Opts.Passes = "slice,bogus";
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
  auto PL = parsePassSpec("slice,corrupt,splice", nullptr, Table);
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
  EXPECT_EQ(S.get("pass.slice.runs"), 0);
}

TEST(PassPipeline, WithoutVerifyEachCorruptionGoesUnnoticed) {
  // Sanity-check the control: the corrupting pass only trips the pipeline
  // when verification is requested (the verifier's Unknown-on-abort path
  // depends on this distinction). The runner is called directly because
  // runPrepass always verifies in builds with assertions enabled.
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
