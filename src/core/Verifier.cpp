//===- Verifier.cpp -------------------------------------------------------===//

#include "core/Verifier.h"

#include "ast/AstPrinter.h"
#include "cfg/Lower.h"
#include "transform/Transforms.h"

#include <algorithm>

using namespace rmt;

VerifierRunResult rmt::verifyProgram(AstContext &Ctx, const Program &Prog,
                                     Symbol Entry,
                                     const VerifierOptions &Opts) {
  VerifierRunResult Out;
  TraceSpan VerifySpan(Opts.Telemetry, "verify",
                       {{"entry", Ctx.name(Entry)}, {"bound", Opts.Bound}});

  TraceSpan BoundSpan(Opts.Telemetry, "verify.bound");
  BoundedInstance Instance = prepareBounded(Ctx, Prog, Entry, Opts.Bound);
  BoundSpan.close();
  Out.NumAsserts = Instance.NumAsserts;

  TraceSpan LowerSpan(Opts.Telemetry, "verify.lower");
  CfgProgram Cfg = lowerToCfg(Ctx, Instance.Prog);
  LowerSpan.note({"labels", Cfg.Labels.size()});
  LowerSpan.close();
  assert(Cfg.isHierarchical() && "bounding must yield a hierarchical program");
  Out.NumProcs = Cfg.Procs.size();
  Out.NumLabels = Cfg.Labels.size();

  ProcId EntryProc = Cfg.findProc(Instance.Entry);
  assert(EntryProc != InvalidProc && "entry lost during lowering");

  Out.NumProcsSolved = Out.NumProcs;
  Out.NumLabelsSolved = Out.NumLabels;
  // One pipeline spec: --no-prepass empties it, and +Inv appends `inv`.
  PrepassOptions PO = Opts.Prepass;
  if (!Opts.UsePrepass)
    PO.Passes.clear();
  PO.Invariants = PO.Invariants || Opts.UseInvariants;
  if (!PO.spec().empty()) {
    if (!PO.Telemetry)
      PO.Telemetry = Opts.Telemetry;
    Out.Prepass = runPrepass(Ctx, Cfg, EntryProc, Instance.ErrVar, PO,
                             &Out.PrepassStats);
    Out.Prepass.record(Out.PrepassStats);
    Out.InvariantConjuncts = Out.Prepass.InvariantConjuncts;
    Out.NumProcsSolved = Cfg.Procs.size();
    Out.NumLabelsSolved = Cfg.Labels.size();
    if (!Out.Prepass.ok()) {
      // A pass broke a structural invariant (--verify-each) or the pipeline
      // spec did not parse: the rewritten program cannot be trusted, so
      // refuse to solve it rather than risk a wrong verdict.
      Out.Result.Outcome = Verdict::Unknown;
      return Out;
    }
  }

  EngineOptions EO = Opts.Engine;
  if (!EO.Telemetry)
    EO.Telemetry = Opts.Telemetry;
  Out.Result = solveReachability(Ctx, Cfg, EntryProc, Instance.ErrVar, EO);
  VerifySpan.note({"verdict", verdictName(Out.Result.Outcome)});
  if (Out.Result.Outcome == Verdict::Bug)
    Out.TraceText = renderTrace(Ctx, Cfg, Out.Result.Trace);
  return Out;
}

DeepeningResult rmt::verifyIterativeDeepening(AstContext &Ctx,
                                              const Program &Prog,
                                              Symbol Entry,
                                              VerifierOptions Opts,
                                              unsigned MaxBound) {
  assert(MaxBound >= 1 && "need at least bound 1");
  Deadline Budget(Opts.Engine.TimeoutSeconds);
  DeepeningResult Out;

  unsigned Bound = 1;
  for (;;) {
    Opts.Bound = Bound;
    Opts.Engine.TimeoutSeconds =
        Budget.enabled() ? std::max(Budget.remaining(), 0.001) : 0;
    Out.BoundsTried.push_back(Bound);
    Out.Last = verifyProgram(Ctx, Prog, Entry, Opts);

    switch (Out.Last.Result.Outcome) {
    case Verdict::Bug:
      Out.ReachedBound = Bound;
      return Out; // a bug at any bound is a real bug
    case Verdict::Safe:
      Out.ReachedBound = Bound;
      break; // escalate
    case Verdict::Timeout:
    case Verdict::ResourceOut:
    case Verdict::Unknown:
      return Out; // ReachedBound reports the last decided bound
    }
    if (Bound >= MaxBound)
      return Out;
    Bound = std::min(Bound * 2, MaxBound);
    if (Budget.expired()) {
      Out.Last.Result.Outcome = Verdict::Timeout;
      return Out;
    }
  }
}

std::string rmt::renderTrace(const AstContext &Ctx, const CfgProgram &Prog,
                             const std::vector<TraceStep> &Trace) {
  std::string Out;
  std::vector<int64_t> LastValues;
  for (const TraceStep &Step : Trace) {
    Out += Ctx.name(Prog.proc(Step.Proc).Name);
    Out += " L" + std::to_string(Step.Label);
    if (Step.Loc.isValid())
      Out += " (line " + std::to_string(Step.Loc.Line) + ")";
    const CfgStmt &S = Prog.label(Step.Label).Stmt;
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      Out += ": assume " + printExpr(Ctx, S.E);
      break;
    case CfgStmtKind::Assign:
      Out += ": " + Ctx.name(S.Target) + " := " + printExpr(Ctx, S.E);
      break;
    case CfgStmtKind::Havoc:
      Out += ": havoc";
      break;
    case CfgStmtKind::Call:
      Out += ": call " + Ctx.name(Prog.proc(S.Callee).Name);
      break;
    }
    // Show global model values whenever they changed since the last step
    // (skipping arrays, which are captured as 0).
    if (!Step.GlobalValues.empty() && Step.GlobalValues != LastValues) {
      std::string Values;
      for (size_t I = 0; I < Prog.Globals.size(); ++I) {
        const VarDecl &G = Prog.Globals[I];
        if (G.Ty->isArray())
          continue;
        if (!Values.empty())
          Values += ", ";
        Values += Ctx.name(G.Name) + "=";
        if (G.Ty->isBool())
          Values += Step.GlobalValues[I] ? "true" : "false";
        else
          Values += std::to_string(Step.GlobalValues[I]);
      }
      if (!Values.empty())
        Out += "   [" + Values + "]";
      LastValues = Step.GlobalValues;
    }
    Out += "\n";
  }
  return Out;
}
