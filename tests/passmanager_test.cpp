//===- passmanager_test.cpp - Pass manager and VerifyCfg ------------------===//

#include "TestSupport.h"
#include "analysis/PassManager.h"
#include "analysis/VerifyCfg.h"
#include "ast/AstPrinter.h"
#include "support/Rng.h"
#include "workload/RandomProg.h"

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
                                            "inv"};
  ASSERT_EQ(BuiltinPasses.size(), Builtins.size());
  for (size_t I = 0; I < Builtins.size(); ++I) {
    EXPECT_EQ(BuiltinPasses[I].Name, Builtins[I]);
    EXPECT_NE(BuiltinPasses[I].Run, nullptr);
  }
  // The prepass is the whole table under +Inv and all but `inv` without.
  EXPECT_EQ(prepassPipeline(true).data(), BuiltinPasses.data());
  EXPECT_EQ(prepassPipeline(true).size(), Builtins.size());
  EXPECT_EQ(prepassPipeline(false).data(), BuiltinPasses.data());
  EXPECT_EQ(prepassPipeline(false).size(), Builtins.size() - 1);
}

TEST(PassPipeline, SpecIsPassesThenInv) {
  // runPrepass runs the structural passes, then `inv` under +Inv (the
  // default), each once and in that order.
  for (bool Inv : {true, false}) {
    AstContext Ctx;
    auto P = parseOk(CallDemo, Ctx);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, *P, Root, Err);
    Trace T;
    T.setEnabled(true);
    PrepassOptions Opts;
    EXPECT_TRUE(Opts.Invariants);
    Opts.Invariants = Inv;
    Opts.Telemetry = &T;
    ASSERT_TRUE(runPrepass(Ctx, Cfg, Root, Err, Opts).ok());
    std::vector<std::string> Ran;
    std::string Passes;
    for (size_t I = 0; I < T.numEvents(); ++I) {
      const TraceEvent &E = T.event(I);
      if (E.Ph != TraceEvent::Phase::Begin)
        continue;
      if (E.Name.rfind("pass.", 0) == 0)
        Ran.push_back(E.Name);
      if (E.Name == "prepass.pipeline")
        for (const TraceArg &A : E.Args)
          if (A.Key == "passes")
            Passes = A.Str;
    }
    std::vector<std::string> Expected = {"pass.slice", "pass.splice",
                                         "pass.deadproc"};
    if (Inv)
      Expected.push_back("pass.inv");
    EXPECT_EQ(Ran, Expected) << "inv=" << Inv;
    EXPECT_EQ(Passes, Inv ? "slice,splice,deadproc,inv"
                          : "slice,splice,deadproc");
  }
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

  // -Inv runs the structural passes only.
  CfgProgram Cfg2 = lower(Ctx, *P, Root, Err);
  Stats S2;
  Opts.Invariants = false;
  EXPECT_TRUE(runPrepass(Ctx, Cfg2, Root, Err, Opts, &S2).ok());
  EXPECT_EQ(S2.get("pass.slice.runs"), 1);
  EXPECT_EQ(S2.get("pass.inv.runs"), 0);
}

TEST(PassPipeline, PassesOverrideRunsOnlyTheListedPasses) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);
  Stats S;
  PrepassReport R;
  PassContext PC{Ctx, Cfg, Root, Err, R};
  EXPECT_TRUE(runPasses(PC, passList({"splice", "splice"}),
                        /*VerifyEach=*/true, false, nullptr, &S)
                  .empty());
  EXPECT_EQ(S.get("pass.splice.runs"), 2);
  EXPECT_EQ(S.get("pass.slice.runs"), 0);
  EXPECT_EQ(S.get("pass.deadproc.runs"), 0);
}

namespace {

/// Test-only pass that corrupts the flow graph, for --verify-each coverage.
bool plantDanglingSuccessor(PassContext &PC) {
  PC.Prog.Labels[PC.Prog.Procs[PC.Root].Entry].Targets.push_back(
      static_cast<LabelId>(PC.Prog.Labels.size() + 7));
  return true;
}

constexpr PassInfo CorruptPass = {"corrupt", plantDanglingSuccessor};

} // namespace

TEST(PassPipeline, VerifyEachCatchesACorruptingPass) {
  AstContext Ctx;
  auto P = parseOk(CallDemo, Ctx);
  ProcId Root;
  Symbol Err;
  CfgProgram Cfg = lower(Ctx, *P, Root, Err);

  std::vector<PassInfo> Table = passList({"slice", "splice"});
  Table.insert(Table.begin() + 1, CorruptPass);
  PrepassReport R;
  PassContext PC{Ctx, Cfg, Root, Err, R};
  Stats S;
  std::vector<std::string> Errors =
      runPasses(PC, Table, /*VerifyEach=*/true, false, nullptr, &S);
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
  // The summary line surfaces the abort.
  EXPECT_NE(R.str().find("PIPELINE ABORTED"), std::string::npos);
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
  PrepassReport R;
  PassContext PC{Ctx, Cfg, Root, Err, R};
  EXPECT_TRUE(runPasses(PC, {&CorruptPass, 1}, /*VerifyEach=*/false, false,
                        nullptr, nullptr)
                  .empty());
  EXPECT_FALSE(verifyCfg(Ctx, Cfg, Root, Err).empty());
}

//===----------------------------------------------------------------------===//
// The structural prepass is a fixpoint of itself
//===----------------------------------------------------------------------===//

TEST(PassPipeline, StructuralPrepassIsAFixpointOnLoopsDraws) {
  // Every `loops`-shaped draw perfbench picks from (draws 0-37: 30
  // procedures, loops, arrays and bitvectors, printed and re-parsed, bound
  // 2). Bounding keeps only what `main` reaches, so slicing no longer seeds
  // relevance from assumes in procedures the first `deadproc` drops, and a
  // second `slice, splice, deadproc` changes nothing on 37 of them.
  //
  // Draw 16 is the residual. Relevance is flow-insensitive: in proc26,
  // `p26_0 := (-3) * p26_1 + (p26_1 - g2)` makes the parameter p26_1
  // relevant because p26_0 is read earlier, yet that store is dead and the
  // first slice drops it. Only the second slice sees p26_1 irrelevant and
  // drops the two `p7_0 := g1` stores in proc7 that feed it as an argument.
  std::vector<PassInfo> Structural = passList({"slice", "splice", "deadproc"});
  Rng R(0x100f);
  for (unsigned Draw = 0; Draw < 38; ++Draw) {
    SCOPED_TRACE("draw " + std::to_string(Draw));
    RandomProgParams Params;
    Params.Seed = R.next();
    Params.NumProcs = 30;
    Params.MaxStmts = 10;
    Params.MaxNesting = 3;
    Params.AllowLoops = true;
    Params.AllowArrays = true;
    Params.AllowBitvectors = true;
    std::string Text;
    {
      AstContext Gen;
      Text = printProgram(Gen, makeRandomProgram(Gen, Params));
    }
    AstContext Ctx;
    auto P = parseOk(Text.c_str(), Ctx);
    ASSERT_TRUE(P);
    ProcId Root;
    Symbol Err;
    CfgProgram Cfg = lower(Ctx, *P, Root, Err);
    auto RunOnce = [&] {
      PrepassReport Report;
      PassContext PC{Ctx, Cfg, Root, Err, Report};
      EXPECT_TRUE(runPasses(PC, Structural, /*VerifyEach=*/true, false,
                            nullptr, nullptr)
                      .empty());
      return Report;
    };
    RunOnce();
    std::string Once = Cfg.str(Ctx);
    size_t Procs = Cfg.Procs.size();
    PrepassReport Second = RunOnce();
    if (Draw != 16) {
      EXPECT_EQ(Cfg.str(Ctx), Once);
      continue;
    }
    EXPECT_EQ(Second.SlicedStmts, 2u);
    EXPECT_EQ(Second.SplicedLabels, 2u);
    EXPECT_EQ(Second.DeadProcs, 0u);
    EXPECT_EQ(Cfg.Procs.size(), Procs);
    std::string Twice = Cfg.str(Ctx);
    RunOnce();
    EXPECT_EQ(Cfg.str(Ctx), Twice);
  }
}
