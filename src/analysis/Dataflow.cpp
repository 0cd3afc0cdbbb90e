//===- Dataflow.cpp -------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>

using namespace rmt;

//===----------------------------------------------------------------------===//
// ProcFlow
//===----------------------------------------------------------------------===//

ProcFlow::ProcFlow(const CfgProgram &Prog, ProcId P)
    : Prog(Prog), P(P), Entry(Prog.proc(P).Entry) {
  Topo = Prog.topoOrder(P);
  Index.reserve(Topo.size());
  for (unsigned I = 0; I < Topo.size(); ++I)
    Index[Topo[I]] = I;
  Preds.resize(Topo.size());
  for (LabelId L : Prog.proc(P).Labels)
    for (LabelId T : Prog.label(L).Targets)
      Preds[Index.at(T)].push_back(L);
}

//===----------------------------------------------------------------------===//
// Shared utilities
//===----------------------------------------------------------------------===//

void rmt::collectExprVars(const Expr *E, std::set<Symbol> &Out) {
  if (!E)
    return;
  std::vector<const Expr *> Stack{E};
  while (!Stack.empty()) {
    const Expr *Cur = Stack.back();
    Stack.pop_back();
    if (Cur->kind() == ExprKind::Var) {
      Out.insert(Cur->var());
      continue;
    }
    for (unsigned I = 0; I < Cur->numOps(); ++I)
      Stack.push_back(I == 0 ? Cur->op0() : I == 1 ? Cur->op1() : Cur->op2());
  }
}

std::vector<ProcEffects> rmt::computeProcEffects(const CfgProgram &Prog) {
  std::unordered_set<Symbol> Globals;
  for (const VarDecl &G : Prog.Globals)
    Globals.insert(G.Name);

  std::vector<ProcEffects> FX(Prog.Procs.size());
  for (ProcId P : Prog.bottomUpProcOrder()) {
    ProcEffects &E = FX[P];
    auto AddUses = [&](const Expr *Ex) {
      std::set<Symbol> Vars;
      collectExprVars(Ex, Vars);
      for (Symbol V : Vars)
        if (Globals.count(V))
          E.UseGlobals.insert(V);
    };
    for (LabelId L : Prog.proc(P).Labels) {
      const CfgStmt &S = Prog.label(L).Stmt;
      switch (S.Kind) {
      case CfgStmtKind::Assume:
        AddUses(S.E);
        break;
      case CfgStmtKind::Assign:
        AddUses(S.E);
        if (Globals.count(S.Target))
          E.ModGlobals.insert(S.Target);
        break;
      case CfgStmtKind::Havoc:
        for (Symbol V : S.Vars)
          if (Globals.count(V))
            E.ModGlobals.insert(V);
        break;
      case CfgStmtKind::Call: {
        for (const Expr *A : S.Args)
          AddUses(A);
        for (Symbol V : S.Vars)
          if (Globals.count(V))
            E.ModGlobals.insert(V);
        const ProcEffects &C = FX[S.Callee];
        E.ModGlobals.insert(C.ModGlobals.begin(), C.ModGlobals.end());
        E.UseGlobals.insert(C.UseGlobals.begin(), C.UseGlobals.end());
        break;
      }
      }
    }
  }
  return FX;
}

namespace {

bool isSkipLabel(const CfgLabel &L) {
  return L.Stmt.Kind == CfgStmtKind::Assume && L.Stmt.E &&
         L.Stmt.E->kind() == ExprKind::BoolLit && L.Stmt.E->boolValue();
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural compaction
//===----------------------------------------------------------------------===//

unsigned rmt::compactLabels(CfgProgram &Prog,
                            const std::vector<bool> &KeepLabel) {
  assert(KeepLabel.size() == Prog.Labels.size());
  size_t Before = Prog.Labels.size();

  std::vector<LabelId> NewId(Before, InvalidLabel);
  LabelId Next = 0;
  for (LabelId L = 0; L < Before; ++L)
    if (KeepLabel[L])
      NewId[L] = Next++;
  if (Next == Before)
    return 0;

  std::vector<CfgLabel> NewLabels;
  NewLabels.reserve(Next);
  for (LabelId L = 0; L < Before; ++L) {
    if (!KeepLabel[L])
      continue;
    CfgLabel Lbl = std::move(Prog.Labels[L]);
    std::vector<LabelId> Targets;
    Targets.reserve(Lbl.Targets.size());
    for (LabelId T : Lbl.Targets)
      if (NewId[T] != InvalidLabel)
        Targets.push_back(NewId[T]);
    Lbl.Targets = std::move(Targets);
    NewLabels.push_back(std::move(Lbl));
  }
  Prog.Labels = std::move(NewLabels);

  for (CfgProc &P : Prog.Procs) {
    assert(NewId[P.Entry] != InvalidLabel &&
           "procedure entry labels must be kept");
    P.Entry = NewId[P.Entry];
    std::vector<LabelId> Kept;
    Kept.reserve(P.Labels.size());
    for (LabelId L : P.Labels)
      if (NewId[L] != InvalidLabel)
        Kept.push_back(NewId[L]);
    P.Labels = std::move(Kept);
  }
  return static_cast<unsigned>(Before - Next);
}

unsigned rmt::dropDeadProcs(CfgProgram &Prog, ProcId &Root) {
  size_t NumProcs = Prog.Procs.size();
  std::vector<char> Reach(NumProcs, 0);
  std::vector<ProcId> Work{Root};
  Reach[Root] = 1;
  while (!Work.empty()) {
    ProcId P = Work.back();
    Work.pop_back();
    for (ProcId C : Prog.calleesOf(P))
      if (!Reach[C]) {
        Reach[C] = 1;
        Work.push_back(C);
      }
  }

  unsigned Removed = 0;
  for (ProcId P = 0; P < NumProcs; ++P)
    if (!Reach[P])
      ++Removed;
  if (Removed == 0)
    return 0;

  // Drop the dead procedures' labels first (their entries go with them), then
  // renumber the surviving procedures.
  std::vector<ProcId> NewId(NumProcs, InvalidProc);
  ProcId NextProc = 0;
  for (ProcId P = 0; P < NumProcs; ++P)
    if (Reach[P])
      NewId[P] = NextProc++;

  std::vector<bool> KeepLabel(Prog.Labels.size());
  for (LabelId L = 0; L < Prog.Labels.size(); ++L)
    KeepLabel[L] = Reach[Prog.Labels[L].Proc] != 0;

  std::vector<CfgProc> NewProcs;
  NewProcs.reserve(NextProc);
  for (ProcId P = 0; P < NumProcs; ++P)
    if (Reach[P])
      NewProcs.push_back(std::move(Prog.Procs[P]));
  Prog.Procs = std::move(NewProcs);

  compactLabels(Prog, KeepLabel);

  for (CfgLabel &Lbl : Prog.Labels) {
    Lbl.Proc = NewId[Lbl.Proc];
    if (Lbl.Stmt.Kind == CfgStmtKind::Call) {
      assert(NewId[Lbl.Stmt.Callee] != InvalidProc &&
             "live label calls a dead procedure");
      Lbl.Stmt.Callee = NewId[Lbl.Stmt.Callee];
    }
  }
  Root = NewId[Root];
  assert(Root != InvalidProc);
  return Removed;
}

unsigned rmt::spliceSkips(CfgProgram &Prog) {
  size_t N = Prog.Labels.size();

  // Resolve each label to the labels that replace it as a jump target:
  // non-skips and skip returns stand for themselves; a skip with successors
  // stands for its resolved successors. Reverse-topological order makes this
  // a single pass.
  std::vector<std::vector<LabelId>> Resolved(N);
  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    std::vector<LabelId> Topo = Prog.topoOrder(P);
    for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
      LabelId L = *It;
      const CfgLabel &Lbl = Prog.label(L);
      if (!isSkipLabel(Lbl) || Lbl.Targets.empty()) {
        Resolved[L] = {L};
        continue;
      }
      std::vector<LabelId> R;
      for (LabelId T : Lbl.Targets)
        for (LabelId X : Resolved[T])
          if (std::find(R.begin(), R.end(), X) == R.end())
            R.push_back(X);
      Resolved[L] = std::move(R);
    }
  }

  // Rewire every target list through the resolution, and let a label whose
  // only remaining successor is a skip return (a no-op before returning)
  // return directly.
  for (CfgLabel &Lbl : Prog.Labels) {
    std::vector<LabelId> NewTargets;
    for (LabelId T : Lbl.Targets)
      for (LabelId X : Resolved[T])
        if (std::find(NewTargets.begin(), NewTargets.end(), X) ==
            NewTargets.end())
          NewTargets.push_back(X);
    if (NewTargets.size() == 1) {
      const CfgLabel &T = Prog.label(NewTargets[0]);
      if (isSkipLabel(T) && T.Targets.empty())
        NewTargets.clear();
    }
    Lbl.Targets = std::move(NewTargets);
  }

  // Fast-forward entries through straight-line skips.
  for (CfgProc &P : Prog.Procs) {
    for (;;) {
      const CfgLabel &E = Prog.label(P.Entry);
      if (!isSkipLabel(E) || E.Targets.size() != 1)
        break;
      P.Entry = E.Targets[0];
    }
  }

  // Sweep everything the rewiring orphaned.
  std::vector<bool> Keep(N, false);
  for (const CfgProc &P : Prog.Procs) {
    std::vector<LabelId> Work{P.Entry};
    Keep[P.Entry] = true;
    while (!Work.empty()) {
      LabelId L = Work.back();
      Work.pop_back();
      for (LabelId T : Prog.label(L).Targets)
        if (!Keep[T]) {
          Keep[T] = true;
          Work.push_back(T);
        }
    }
  }
  return compactLabels(Prog, Keep);
}

//===----------------------------------------------------------------------===//
// The prepass pipeline
//===----------------------------------------------------------------------===//

void PrepassReport::record(Stats &S) const {
  S.add("prepass.labels.before", static_cast<int64_t>(LabelsBefore));
  S.add("prepass.labels.after", static_cast<int64_t>(LabelsAfter));
  S.add("prepass.procs.before", static_cast<int64_t>(ProcsBefore));
  S.add("prepass.procs.after", static_cast<int64_t>(ProcsAfter));
  S.add("prepass.labels.spliced", SplicedLabels);
  S.add("prepass.stmts.sliced", SlicedStmts);
  S.add("prepass.calls.elided", ElidedCalls);
  S.add("prepass.procs.dead", DeadProcs);
  S.add("prepass.exprs.propagated", PropagatedExprs);
  S.add("prepass.assumes.redundant", RedundantAssumes);
  S.add("prepass.assumes.contradicted", ContradictedAssumes);
  S.add("prepass.inv.conjuncts", InvariantConjuncts);
  S.add("prepass.audit.deadstores", AuditDeadStores);
  S.add("prepass.audit.unreachable", AuditUnreachableLabels);
}

std::string PrepassReport::str() const {
  std::string Out;
  Out += "labels " + std::to_string(LabelsBefore) + " -> " +
         std::to_string(LabelsAfter);
  Out += ", procs " + std::to_string(ProcsBefore) + " -> " +
         std::to_string(ProcsAfter);
  Out += " (sliced " + std::to_string(SlicedStmts) + ", spliced " +
         std::to_string(SplicedLabels) + ", propagated " +
         std::to_string(PropagatedExprs) + ", redundant assumes " +
         std::to_string(RedundantAssumes + ContradictedAssumes) +
         ", elided calls " + std::to_string(ElidedCalls) + ", dead procs " +
         std::to_string(DeadProcs) + ")";
  if (AuditDeadStores + AuditUnreachableLabels != 0)
    Out += " [lint audit: " + std::to_string(AuditDeadStores) +
           " dead stores, " + std::to_string(AuditUnreachableLabels) +
           " unreachable labels]";
  if (!PipelineErrors.empty())
    Out += " PIPELINE ABORTED: " + PipelineErrors.front();
  return Out;
}
