//===- PassManager.cpp ----------------------------------------------------===//

#include "analysis/PassManager.h"

#include "analysis/InvariantGen.h"
#include "analysis/Slicer.h"
#include "analysis/VerifyCfg.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Builtin passes
//===----------------------------------------------------------------------===//

namespace {

bool runSlicePass(PassContext &PC) {
  SliceReport R = sliceForQuery(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
  PC.Report.SlicedStmts += R.StmtsDropped;
  PC.Report.ElidedCalls += R.CallsElided;
  return R.StmtsDropped + R.HavocVarsDropped + R.CallsElided != 0;
}

bool runSplicePass(PassContext &PC) {
  unsigned Removed = spliceSkips(PC.Prog);
  PC.Report.SplicedLabels += Removed;
  return Removed != 0;
}

bool runDeadProcPass(PassContext &PC) {
  unsigned Removed = dropDeadProcs(PC.Prog, PC.Root);
  PC.Report.DeadProcs += Removed;
  return Removed != 0;
}

bool runLintAuditPass(PassContext &PC) {
  // Liveness with everything relevant: every global and return variable is
  // observable at exit, and calls keep their callee's transitive global
  // reads live, so a store flagged dead really is unobservable.
  const CfgProgram &Prog = PC.Prog;
  VarSlots Slots(Prog);
  std::vector<ProcEffects> FX = computeProcEffects(Slots);
  Relevance Rel = Relevance::all(Slots);
  std::vector<bool> Reached = entryReachableLabels(Prog);

  DataflowSolver<QueryLiveness> Solver;
  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    ProcFlow Flow(Prog, P);
    QueryLiveness A(Slots, Rel, FX, P);
    Solver.solve(Flow, A);

    for (LabelId L : Prog.proc(P).Labels) {
      if (!Reached[L]) {
        ++PC.Report.AuditUnreachableLabels;
        continue; // don't double-count its statement as a dead store
      }
      const CfgStmt &S = Prog.label(L).Stmt;
      if (S.Kind == CfgStmtKind::Assign && !A.live(Solver.post(L), S.Target))
        ++PC.Report.AuditDeadStores;
    }
  }
  return false; // read-only: only report counters change
}

bool runInvariantPass(PassContext &PC) {
  InvariantReport R =
      injectInvariants(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
  PC.Report.InvariantConjuncts += R.Conjuncts;
  PC.Report.InvariantsProveQuery |= R.ProvesQuery;
  return R.Conjuncts != 0;
}

const PassInfo BuiltinTable[] = {
    {"slice", "cone-of-influence slicing against the reachability query",
     runSlicePass},
    {"splice", "splice out `assume true` skips, sweep unreachable labels",
     runSplicePass},
    {"deadproc", "drop procedures unreachable from the root", runDeadProcPass},
    {"lint", "audit residual dead stores and unreachable labels (read-only)",
     runLintAuditPass},
    {"inv", "inject interval invariants at procedure entries (+Inv)",
     runInvariantPass},
};

} // namespace

const std::span<const PassInfo> rmt::BuiltinPasses = BuiltinTable;

//===----------------------------------------------------------------------===//
// Spec parser and runner
//===----------------------------------------------------------------------===//

std::optional<std::vector<const PassInfo *>>
rmt::parsePassSpec(std::string_view Spec, std::string *Error,
                   std::span<const PassInfo> Table) {
  std::vector<const PassInfo *> Pipeline;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string_view::npos)
      Comma = Spec.size();
    std::string_view Name = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    while (!Name.empty() && Name.front() == ' ')
      Name.remove_prefix(1);
    while (!Name.empty() && Name.back() == ' ')
      Name.remove_suffix(1);
    if (Name.empty())
      continue;
    auto It = std::find_if(Table.begin(), Table.end(),
                           [&](const PassInfo &P) { return P.Name == Name; });
    if (It == Table.end()) {
      if (Error) {
        *Error = "unknown pass '" + std::string(Name) + "' (available:";
        for (const PassInfo &P : Table)
          *Error += " " + std::string(P.Name);
        *Error += ")";
      }
      return std::nullopt;
    }
    Pipeline.push_back(&*It);
  }
  return Pipeline;
}

std::vector<std::string>
rmt::runPasses(PassContext &PC, std::span<const PassInfo *const> Pipeline,
               bool VerifyEach, bool PrintAfterAll, Trace *Telemetry,
               Stats *S) {
  auto Verify = [&](std::string_view After) {
    std::vector<std::string> Bad =
        verifyCfg(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
    for (std::string &Msg : Bad)
      Msg = "VerifyCfg after " + std::string(After) + ": " + Msg;
    return Bad;
  };

  if (VerifyEach)
    if (std::vector<std::string> Bad = Verify("pipeline input"); !Bad.empty())
      return Bad;

  for (const PassInfo *P : Pipeline) {
    std::string Name(P->Name);
    TraceSpan Span(Telemetry, "pass." + Name);
    Stopwatch Watch;
    bool Changed = P->Run(PC);
    Span.note({"changed", Changed ? 1 : 0});
    Span.close();
    if (S) {
      S->addTime("pass." + Name + ".seconds", Watch.seconds());
      S->add("pass." + Name + ".runs");
      if (Changed)
        S->add("pass." + Name + ".changed");
    }
    if (PrintAfterAll && Changed)
      std::fprintf(stderr, "*** IR after pass '%s' ***\n%s\n", Name.c_str(),
                   PC.Prog.str(PC.Ctx).c_str());
    if (VerifyEach)
      if (std::vector<std::string> Bad = Verify("pass '" + Name + "'");
          !Bad.empty())
        return Bad;
  }
  return {};
}

//===----------------------------------------------------------------------===//
// runPrepass — the options-driven entry point
//===----------------------------------------------------------------------===//

std::string PrepassOptions::spec() const {
  if (!Invariants)
    return Passes;
  if (std::optional<std::vector<const PassInfo *>> Pipeline =
          parsePassSpec(Passes, nullptr))
    for (const PassInfo *P : *Pipeline)
      if (P->Name == "inv")
        return Passes; // `inv` already runs where the spec puts it
  return Passes.empty() ? "inv" : Passes + ",inv";
}

PrepassReport rmt::runPrepass(AstContext &Ctx, CfgProgram &Prog, ProcId &Root,
                              std::optional<Symbol> ErrGlobal,
                              const PrepassOptions &Opts, Stats *S) {
  PrepassReport R;
  R.LabelsBefore = Prog.Labels.size();
  R.ProcsBefore = Prog.Procs.size();

  std::string Error;
  std::optional<std::vector<const PassInfo *>> Pipeline =
      parsePassSpec(Opts.spec(), &Error);
  if (!Pipeline) {
    R.PipelineErrors.push_back(Error);
    R.LabelsAfter = R.LabelsBefore;
    R.ProcsAfter = R.ProcsBefore;
    return R;
  }

  std::string Names;
  for (const PassInfo *P : *Pipeline)
    Names += (Names.empty() ? "" : ",") + std::string(P->Name);
  TraceSpan Span(Opts.Telemetry, "prepass.pipeline",
                 {{"passes", Names}, {"labels", R.LabelsBefore}});
  PassContext PC{Ctx, Prog, Root, ErrGlobal, R};
#ifdef NDEBUG
  bool VerifyEach = Opts.VerifyEach;
#else
  bool VerifyEach = true; // builds with assertions verify every pass
#endif
  R.PipelineErrors = runPasses(PC, *Pipeline, VerifyEach, Opts.PrintAfterAll,
                               Opts.Telemetry, S);
  Span.note({"labels_after", Prog.Labels.size()});
  Span.close();

  R.LabelsAfter = Prog.Labels.size();
  R.ProcsAfter = Prog.Procs.size();
  return R;
}
