//===- Verifier.cpp -------------------------------------------------------===//

#include "core/Verifier.h"

#include "ast/AstPrinter.h"
#include "cfg/Lower.h"
#include "transform/Transforms.h"

#include <algorithm>

using namespace rmt;

LoweredInstance rmt::lowerInstance(AstContext &Ctx, const Program &Prog,
                                   Symbol Entry, const VerifierOptions &Opts,
                                   VerifierRunResult &Out) {
  if (Opts.Bound == 0) {
    // Unfolding emits no copy of a recursive procedure at bound 0.
    Out.Prepass.PipelineErrors.push_back("bound must be at least 1");
    return {};
  }
  if (!Prog.findProc(Entry)) {
    Out.Prepass.PipelineErrors.push_back("no procedure named '" +
                                         Ctx.name(Entry) + "'");
    return {};
  }
  TraceSpan BoundSpan(Opts.Telemetry, "verify.bound");
  BoundedInstance Instance = prepareBounded(Ctx, Prog, Entry, Opts.Bound);
  size_t Declared = Prog.Procedures.size();
  BoundSpan.note({"procs", Declared});
  BoundSpan.note({"procs_reached", Declared - Instance.NumProcsUnreached});
  BoundSpan.close();
  Out.NumAsserts = Instance.NumAsserts;
  Out.NumProcsUnreached = Instance.NumProcsUnreached;

  TraceSpan LowerSpan(Opts.Telemetry, "verify.lower");
  LoweredInstance L{lowerToCfg(Ctx, Instance.Prog), InvalidProc,
                    Instance.ErrVar};
  LowerSpan.note({"labels", L.Cfg.Labels.size()});
  LowerSpan.close();
  assert(L.Cfg.isHierarchical() &&
         "bounding must yield a hierarchical program");
  Out.NumProcs = L.Cfg.Procs.size();
  Out.NumLabels = L.Cfg.Labels.size();

  L.Entry = L.Cfg.findProc(Instance.Entry);
  assert(L.Entry != InvalidProc && "entry lost during lowering");

  if (Opts.UsePrepass) {
    PrepassOptions PO = Opts.Prepass;
    PO.Invariants = PO.Invariants || Opts.UseInvariants;
    if (!PO.Telemetry)
      PO.Telemetry = Opts.Telemetry;
    Out.Prepass =
        runPrepass(Ctx, L.Cfg, L.Entry, L.ErrVar, PO, &Out.PrepassStats);
    Out.Prepass.record(Out.PrepassStats);
  }
  Out.NumProcsSolved = L.Cfg.Procs.size();
  Out.NumLabelsSolved = L.Cfg.Labels.size();
  return L;
}

VerifierRunResult rmt::verifyProgram(AstContext &Ctx, const Program &Prog,
                                     Symbol Entry,
                                     const VerifierOptions &Opts) {
  VerifierRunResult Out;
  // The time budget covers the front end too: bounding, lowering and the
  // prepass (an interprocedural fixpoint under +Inv) run on its clock.
  Deadline Budget(Opts.Engine.TimeoutSeconds);
  TraceSpan VerifySpan(Opts.Telemetry, "verify",
                       {{"entry", Ctx.name(Entry)}, {"bound", Opts.Bound}});
  LoweredInstance L = lowerInstance(Ctx, Prog, Entry, Opts, Out);
  if (!Out.Prepass.ok()) {
    // The front end refused the instance (bound 0, unknown entry) or a pass
    // broke a structural invariant (--verify-each): the program cannot be
    // trusted, so refuse to solve it rather than risk a wrong verdict.
    Out.Result.Outcome = Verdict::Unknown;
    Out.Result.Reason = "prepass: " + Out.Prepass.PipelineErrors.front();
    return Out;
  }
  double Left = Budget.remaining();
  if (Budget.enabled() && Left <= 0) {
    // Spent before the engine starts: no solver check is made.
    Out.Result.Outcome = Verdict::Timeout;
    Out.Result.Reason = "time budget exhausted";
    Out.Result.Seconds = Budget.elapsed();
    VerifySpan.note({"verdict", verdictName(Out.Result.Outcome)});
    return Out;
  }
  if (Out.Prepass.InvariantsProveQuery) {
    // +Inv already proved the query: "in the limit the search can conclude
    // trivially" (Section 4). No engine, no solver context, no check.
    Out.Result.Outcome = Verdict::Safe;
    Out.Result.Proof = "invariants";
    Out.Result.Seconds = Budget.elapsed();
    VerifySpan.note({"verdict", verdictName(Out.Result.Outcome)});
    VerifySpan.note({"proof", Out.Result.Proof});
    return Out;
  }

  EngineOptions EO = Opts.Engine;
  if (Budget.enabled())
    EO.TimeoutSeconds = Left;
  if (!EO.Telemetry)
    EO.Telemetry = Opts.Telemetry;
  Out.Result = solveReachability(Ctx, L.Cfg, L.Entry, L.ErrVar, EO);
  VerifySpan.note({"verdict", verdictName(Out.Result.Outcome)});
  VerifySpan.note({"proof", Out.Result.Proof});
  if (Out.Result.Outcome == Verdict::Bug)
    Out.TraceText = renderTrace(Ctx, L.Cfg, Out.Result.Trace);
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
      Out.Last.Result.Reason = "time budget exhausted";
      return Out;
    }
  }
}

std::string rmt::renderTrace(const AstContext &Ctx, const CfgProgram &Prog,
                             const std::vector<TraceStep> &Trace) {
  std::string Out;
  std::vector<std::string> LastValues;
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
    // (skipping arrays, which are captured empty).
    if (!Step.GlobalValues.empty() && Step.GlobalValues != LastValues) {
      std::string Values;
      for (size_t I = 0; I < Prog.Globals.size(); ++I) {
        const VarDecl &G = Prog.Globals[I];
        if (G.Ty->isArray())
          continue;
        if (!Values.empty())
          Values += ", ";
        Values += Ctx.name(G.Name) + "=" + Step.GlobalValues[I];
      }
      if (!Values.empty())
        Out += "   [" + Values + "]";
      LastValues = Step.GlobalValues;
    }
    Out += "\n";
  }
  return Out;
}
