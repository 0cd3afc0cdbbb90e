//===- Slicer.cpp ---------------------------------------------------------===//

#include "analysis/Slicer.h"

using namespace rmt;

//===----------------------------------------------------------------------===//
// Relevance closure
//===----------------------------------------------------------------------===//

bool Relevance::mark(ProcId P, uint32_t S) {
  Bitset &B = S < Slots->numGlobals() ? RelGlobals : RelLocals[P];
  if (B.test(S))
    return false;
  B.set(S);
  return true;
}

Relevance::Relevance(const VarSlots &Slots, std::optional<Symbol> ErrGlobal)
    : Slots(&Slots), RelGlobals(Slots.numGlobals()) {
  const CfgProgram &Prog = Slots.program();
  RelLocals.reserve(Prog.Procs.size());
  for (ProcId P = 0; P < Prog.Procs.size(); ++P)
    RelLocals.emplace_back(Slots.numSlots(P));

  auto MarkReads = [&](ProcId P, VarSlots::Slots Reads) {
    bool Any = false;
    for (uint32_t S : Reads)
      Any |= mark(P, S);
    return Any;
  };

  // Seeds: the query variable and everything an assume reads. The closure
  // below only visits assignments and calls.
  if (ErrGlobal)
    if (uint32_t S = Slots.globalSlot(*ErrGlobal); S != VarSlots::NoSlot)
      RelGlobals.set(S);
  std::vector<LabelId> Flows;
  for (LabelId L = 0; L < Prog.Labels.size(); ++L) {
    const CfgLabel &Lbl = Prog.label(L);
    if (Lbl.Stmt.Kind == CfgStmtKind::Assume)
      MarkReads(Lbl.Proc, Slots.reads(L));
    else if (Lbl.Stmt.Kind != CfgStmtKind::Havoc)
      Flows.push_back(L);
  }

  // Close under dataflow into relevant variables. The closure crosses call
  // boundaries in both directions (results pull callee returns, parameters
  // pull caller arguments), so iterate to a fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (LabelId L : Flows) {
      const CfgStmt &S = Prog.label(L).Stmt;
      ProcId P = Prog.label(L).Proc;
      VarSlots::Slots Writes = Slots.writes(L);
      if (S.Kind == CfgStmtKind::Assign) {
        if (relevantSlot(P, Writes[0]))
          Changed |= MarkReads(P, Slots.reads(L));
        continue;
      }
      const CfgProc &Q = Prog.proc(S.Callee);
      for (unsigned I = 0; I < Writes.size() && I < Q.Returns.size(); ++I)
        if (relevantSlot(P, Writes[I]))
          Changed |= mark(S.Callee, Slots.returnSlot(S.Callee, I));
      for (unsigned I = 0; I < S.Args.size() && I < Q.Params.size(); ++I)
        if (relevantSlot(S.Callee, Slots.paramSlot(S.Callee, I)))
          Changed |= MarkReads(P, Slots.reads(L, I));
    }
  }
}

//===----------------------------------------------------------------------===//
// Strong liveness
//===----------------------------------------------------------------------===//

QueryLiveness::QueryLiveness(const VarSlots &Slots, const Relevance &Rel,
                             const std::vector<ProcEffects> &FX, ProcId P)
    : Slots(Slots), Rel(Rel), FX(FX), P(P), ExitLive(Slots.numSlots(P)) {
  ExitLive.orWith(Rel.relevantGlobals());
  for (unsigned I = 0; I < Slots.program().proc(P).Returns.size(); ++I) {
    uint32_t S = Slots.returnSlot(P, I);
    if (Rel.relevantSlot(P, S))
      ExitLive.set(S);
  }
}

void QueryLiveness::transfer(LabelId L, const CfgStmt &S, Value &X) const {
  // X holds the post-state and becomes the pre-state: (X & ~Kill) | Gen.
  switch (S.Kind) {
  case CfgStmtKind::Assume:
    for (uint32_t V : Slots.reads(L))
      X.set(V);
    break;
  case CfgStmtKind::Assign: {
    // Strong: the RHS only matters if the target is live.
    uint32_t Target = Slots.writes(L)[0];
    if (X.test(Target)) {
      X.reset(Target);
      for (uint32_t V : Slots.reads(L))
        X.set(V);
    }
    break;
  }
  case CfgStmtKind::Havoc:
    for (uint32_t V : Slots.writes(L))
      X.reset(V);
    break;
  case CfgStmtKind::Call: {
    // Result bindings are definitely assigned on return; the callee may
    // read relevant globals and any argument feeding a relevant parameter.
    for (uint32_t V : Slots.writes(L))
      X.reset(V);
    size_t NumParams = Slots.program().proc(S.Callee).Params.size();
    for (unsigned I = 0; I < S.Args.size() && I < NumParams; ++I)
      if (Rel.relevantSlot(S.Callee, Slots.paramSlot(S.Callee, I)))
        for (uint32_t V : Slots.reads(L, I))
          X.set(V);
    X.orWithAnd(FX[S.Callee].UseGlobals, Rel.relevantGlobals());
    break;
  }
  }
}

namespace {

void toSkip(AstContext &Ctx, CfgStmt &S) {
  S.Kind = CfgStmtKind::Assume;
  S.E = Ctx.tBool(true);
  S.Vars.clear();
  S.Args.clear();
  S.Callee = InvalidProc;
}

/// Keeps the variables of S.Vars whose slot is live in \p Post; returns how
/// many were dropped.
unsigned keepLive(CfgStmt &S, VarSlots::Slots Writes, const Bitset &Post) {
  size_t Kept = 0;
  for (size_t I = 0; I < S.Vars.size(); ++I)
    if (Post.test(Writes[I]))
      S.Vars[Kept++] = S.Vars[I];
  unsigned Dropped = static_cast<unsigned>(S.Vars.size() - Kept);
  S.Vars.resize(Kept);
  return Dropped;
}

} // namespace

//===----------------------------------------------------------------------===//
// The slicing pass
//===----------------------------------------------------------------------===//

SliceReport rmt::sliceForQuery(AstContext &Ctx, CfgProgram &Prog,
                               std::optional<Symbol> ErrGlobal) {
  SliceReport Report;
  VarSlots Slots(Prog);
  Relevance Rel(Slots, ErrGlobal);
  std::vector<ProcEffects> FX = computeProcEffects(Slots);

  // Procedures whose every label is a skip after slicing: calls to them are
  // equivalent to havocking the live result bindings (the callee always
  // returns and never assigns its returns). Callees first so a caller can
  // elide calls into procedures the slicer just emptied.
  std::vector<char> PureSkip(Prog.Procs.size(), 0);

  DataflowSolver<QueryLiveness> Solver;
  for (ProcId P : Prog.bottomUpProcOrder()) {
    const CfgProc &Proc = Prog.proc(P);
    ProcFlow Flow(Prog, P);
    QueryLiveness A(Slots, Rel, FX, P);
    Solver.solve(Flow, A);

    bool AllSkip = true;
    for (LabelId L : Proc.Labels) {
      CfgStmt &S = Prog.Labels[L].Stmt;
      const Bitset &Post = Solver.post(L);
      switch (S.Kind) {
      case CfgStmtKind::Assume:
        break;
      case CfgStmtKind::Assign:
        if (!Post.test(Slots.writes(L)[0])) {
          toSkip(Ctx, S);
          ++Report.StmtsDropped;
        }
        break;
      case CfgStmtKind::Havoc:
        Report.HavocVarsDropped += keepLive(S, Slots.writes(L), Post);
        if (S.Vars.empty()) {
          toSkip(Ctx, S);
          ++Report.StmtsDropped;
        }
        break;
      case CfgStmtKind::Call:
        if (PureSkip[S.Callee]) {
          keepLive(S, Slots.writes(L), Post);
          ++Report.CallsElided;
          if (S.Vars.empty()) {
            toSkip(Ctx, S);
          } else {
            S.Kind = CfgStmtKind::Havoc;
            S.E = nullptr;
            S.Args.clear();
            S.Callee = InvalidProc;
          }
        }
        break;
      }
      AllSkip &= Prog.Labels[L].Stmt.isSkip();
    }
    PureSkip[P] = AllSkip ? 1 : 0;
  }
  return Report;
}
