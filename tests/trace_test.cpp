//===- trace_test.cpp - Counterexample trace validity ------------------------===//
//
// Traces are reconstructed from the solver model by walking the inlining
// DAG (Engine::extractTrace). These properties check, over random buggy
// programs, that every reported trace is *structurally real*: steps follow
// flow edges or call/return boundaries, the trace starts at the entry, and
// it witnesses the error bit being set. Plus a VC-level cross-check: the
// printed SMT-LIB script of a whole random VC reparses under Z3 with the
// same verdict as the native translation.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"
#include "core/VcGen.h"
#include "smt/SmtLibPrinter.h"
#include "smt/Z3Solver.h"
#include "workload/RandomProg.h"

#include <z3.h>

#include <gtest/gtest.h>

using namespace rmt;

namespace {

/// Structural validity of a trace against the lowered program: each
/// consecutive pair of steps must be one of
///   (a) a flow edge within one procedure,
///   (b) a call step: caller's call label -> callee's entry label,
///   (c) a return step: callee exit label (no targets) -> the pending call
///       label's successor... which Engine reports as the *call label
///       itself* continuing (the call label appears before descending and
///       its successor appears after the callee segment).
/// We check (a), (b) and the return discipline with an explicit stack.
void checkTraceStructure(const CfgProgram &Cfg,
                         const std::vector<TraceStep> &Trace) {
  ASSERT_FALSE(Trace.empty());
  std::vector<LabelId> CallStack; // call labels awaiting return
  for (size_t I = 0; I + 1 < Trace.size(); ++I) {
    LabelId Cur = Trace[I].Label;
    LabelId Next = Trace[I + 1].Label;
    const CfgLabel &CurLbl = Cfg.label(Cur);

    // (b) descend into a callee.
    if (CurLbl.Stmt.Kind == CfgStmtKind::Call &&
        Next == Cfg.proc(CurLbl.Stmt.Callee).Entry) {
      CallStack.push_back(Cur);
      continue;
    }
    // (a) intraprocedural step.
    bool FlowEdge = false;
    for (LabelId T : CurLbl.Targets)
      if (T == Next)
        FlowEdge = true;
    if (FlowEdge)
      continue;
    // (c) return: Cur must be an exit label, and Next a successor of the
    // call label on top of the stack.
    ASSERT_TRUE(CurLbl.Targets.empty())
        << "step " << I << ": L" << Cur << " -> L" << Next
        << " is neither flow edge, call, nor return";
    bool Matched = false;
    while (!CallStack.empty() && !Matched) {
      LabelId CallSite = CallStack.back();
      CallStack.pop_back();
      for (LabelId T : Cfg.label(CallSite).Targets)
        if (T == Next)
          Matched = true;
    }
    EXPECT_TRUE(Matched) << "return step " << I << " does not resume at a "
                            "pending call site's successor";
  }
}

} // namespace

class TraceValidity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceValidity, BuggyTracesAreStructurallyReal) {
  RandomProgParams Params;
  Params.Seed = GetParam() + 9000;
  Params.NumProcs = 5;
  Params.MaxStmts = 4;
  Params.AssertChance = 80;

  AstContext Ctx;
  Program P = makeRandomProgram(Ctx, Params);
  ProcId Entry = InvalidProc;
  Symbol ErrVar;
  CfgProgram Cfg = lower(Ctx, P, Entry, ErrVar);

  for (PvcMode Mode : {PvcMode::Paper, PvcMode::Passified}) {
    EngineOptions Opts;
    Opts.Strategy.Kind = MergeStrategyKind::First;
    Opts.Pvc = Mode;
    Opts.TimeoutSeconds = 60;
    VerifyResult R = solveReachability(Ctx, Cfg, Entry, ErrVar, Opts);
    if (R.Outcome != Verdict::Bug)
      continue; // only buggy instances produce traces
    ASSERT_FALSE(R.Trace.empty());
    // Starts at the root procedure's entry.
    EXPECT_EQ(R.Trace.front().Label, Cfg.proc(Entry).Entry);
    checkTraceStructure(Cfg, R.Trace);
    // The model values include the error bit; it must end up set somewhere.
    bool ErrSeen = false;
    size_t ErrIndex = 0;
    for (size_t I = 0; I < Cfg.Globals.size(); ++I)
      if (Cfg.Globals[I].Name == ErrVar)
        ErrIndex = I;
    for (const TraceStep &Step : R.Trace)
      if (!Step.GlobalValues.empty() && Step.GlobalValues[ErrIndex] == "true")
        ErrSeen = true;
    EXPECT_TRUE(ErrSeen) << "trace never observes the error bit";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceValidity,
                         ::testing::Range<uint64_t>(1, 31));

//===----------------------------------------------------------------------===//
// Whole-VC SMT-LIB round trip under Z3's own parser
//===----------------------------------------------------------------------===//

class VcScriptRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VcScriptRoundTrip, PrintedVcHasSameVerdictUnderZ3Parser) {
  RandomProgParams Params;
  Params.Seed = GetParam() + 700;
  Params.NumProcs = 4;
  Params.MaxStmts = 3;
  Params.AllowBitvectors = GetParam() % 2 == 0;
  Params.AllowArrays = GetParam() % 3 == 0;

  AstContext Ctx;
  Program P = makeRandomProgram(Ctx, Params);
  ProcId Entry = InvalidProc;
  Symbol ErrVar;
  CfgProgram Cfg = lower(Ctx, P, Entry, ErrVar);

  // Build the fully tree-inlined VC with the error-bit query.
  TermArena Arena;
  std::vector<TermRef> Assertions;
  StrategyOptions Tree;
  Tree.Kind = MergeStrategyKind::None;
  Inliner In(Ctx, Cfg, Entry, Arena, Tree,
             [&](TermRef T) { Assertions.push_back(T); });
  if (!In.inlineAll(300) || In.vc().numInlined() > 300)
    GTEST_SKIP() << "tree too large for the round-trip check";
  const VcNode &Root = In.vc().node(0);
  Assertions.push_back(Root.Control);
  size_t ErrIndex = 0;
  for (size_t I = 0; I < Cfg.Globals.size(); ++I)
    if (Cfg.Globals[I].Name == ErrVar)
      ErrIndex = I;
  Assertions.push_back(Root.Out[ErrIndex]);

  // Native verdict.
  auto Native = createZ3Solver(Arena);
  for (TermRef T : Assertions)
    Native->assertTerm(T);
  SolveResult Direct = Native->check();

  // Reparse the printed script with Z3's reader.
  std::string Script = printScript(Arena, Assertions);
  Z3_config Config = Z3_mk_config();
  Z3_context Z = Z3_mk_context(Config);
  Z3_del_config(Config);
  Z3_ast_vector Parsed = Z3_parse_smtlib2_string(
      Z, Script.c_str(), 0, nullptr, nullptr, 0, nullptr, nullptr);
  ASSERT_NE(Parsed, nullptr);
  Z3_ast_vector_inc_ref(Z, Parsed);
  Z3_solver S = Z3_mk_solver(Z);
  Z3_solver_inc_ref(Z, S);
  for (unsigned I = 0; I < Z3_ast_vector_size(Z, Parsed); ++I)
    Z3_solver_assert(Z, S, Z3_ast_vector_get(Z, Parsed, I));
  Z3_lbool R = Z3_solver_check(Z, S);
  SolveResult Reparsed = R == Z3_L_TRUE    ? SolveResult::Sat
                         : R == Z3_L_FALSE ? SolveResult::Unsat
                                           : SolveResult::Unknown;
  EXPECT_EQ(Direct, Reparsed) << "seed " << GetParam();
  Z3_solver_dec_ref(Z, S);
  Z3_ast_vector_dec_ref(Z, Parsed);
  Z3_del_context(Z);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcScriptRoundTrip,
                         ::testing::Range<uint64_t>(1, 16));
