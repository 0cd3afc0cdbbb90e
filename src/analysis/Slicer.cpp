//===- Slicer.cpp ---------------------------------------------------------===//

#include "analysis/Slicer.h"

using namespace rmt;

//===----------------------------------------------------------------------===//
// Relevance closure
//===----------------------------------------------------------------------===//

Relevance::Relevance(const CfgProgram &Prog, std::optional<Symbol> ErrGlobal) {
  for (const VarDecl &G : Prog.Globals)
    GlobalSet.insert(G.Name);
  RelLocals.resize(Prog.Procs.size());

  auto MarkVar = [&](ProcId P, Symbol V) {
    if (GlobalSet.count(V))
      return RelGlobals.insert(V).second;
    return RelLocals[P].insert(V).second;
  };
  auto MarkExpr = [&](ProcId P, const Expr *E) {
    std::set<Symbol> Vars;
    collectExprVars(E, Vars);
    bool Any = false;
    for (Symbol V : Vars)
      Any |= MarkVar(P, V);
    return Any;
  };

  // Seeds: the query variable and everything an assume reads.
  if (ErrGlobal)
    RelGlobals.insert(*ErrGlobal);
  for (const CfgLabel &Lbl : Prog.Labels)
    if (Lbl.Stmt.Kind == CfgStmtKind::Assume)
      MarkExpr(Lbl.Proc, Lbl.Stmt.E);

  // Close under dataflow into relevant variables. The closure crosses call
  // boundaries in both directions (results pull callee returns, parameters
  // pull caller arguments), so iterate to a fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const CfgLabel &Lbl : Prog.Labels) {
      const CfgStmt &S = Lbl.Stmt;
      ProcId P = Lbl.Proc;
      switch (S.Kind) {
      case CfgStmtKind::Assume:
      case CfgStmtKind::Havoc:
        break;
      case CfgStmtKind::Assign:
        if (relevant(P, S.Target))
          Changed |= MarkExpr(P, S.E);
        break;
      case CfgStmtKind::Call: {
        const CfgProc &Q = Prog.proc(S.Callee);
        for (unsigned I = 0; I < S.Vars.size() && I < Q.Returns.size(); ++I)
          if (relevant(P, S.Vars[I]))
            Changed |= MarkVar(S.Callee, Q.Returns[I].Name);
        for (unsigned I = 0; I < S.Args.size() && I < Q.Params.size(); ++I)
          if (relevant(S.Callee, Q.Params[I].Name))
            Changed |= MarkExpr(P, S.Args[I]);
        break;
      }
      }
    }
  }
}

Relevance Relevance::all(const CfgProgram &Prog) {
  Relevance Rel;
  for (const VarDecl &G : Prog.Globals) {
    Rel.GlobalSet.insert(G.Name);
    Rel.RelGlobals.insert(G.Name);
  }
  Rel.RelLocals.resize(Prog.Procs.size());
  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    for (const VarDecl &V : Prog.proc(P).Params)
      Rel.RelLocals[P].insert(V.Name);
    for (const VarDecl &V : Prog.proc(P).Returns)
      Rel.RelLocals[P].insert(V.Name);
  }
  return Rel;
}

//===----------------------------------------------------------------------===//
// Strong liveness
//===----------------------------------------------------------------------===//

QueryLiveness::QueryLiveness(const CfgProgram &Prog, const Relevance &Rel,
                             const std::vector<ProcEffects> &FX, ProcId P)
    : Prog(Prog), Rel(Rel), FX(FX) {
  for (const VarDecl &G : Prog.Globals)
    if (Rel.relevantGlobal(G.Name))
      ExitLive.insert(G.Name);
  for (const VarDecl &R : Prog.proc(P).Returns)
    if (Rel.relevant(P, R.Name))
      ExitLive.insert(R.Name);
}

bool QueryLiveness::join(Value &Into, const Value &From) const {
  bool Changed = false;
  for (Symbol V : From)
    Changed |= Into.insert(V).second;
  return Changed;
}

void QueryLiveness::transfer(LabelId, const CfgStmt &S, Value &Pre) const {
  // Pre holds the post-state and becomes the pre-state.
  switch (S.Kind) {
  case CfgStmtKind::Assume:
    collectExprVars(S.E, Pre);
    break;
  case CfgStmtKind::Assign:
    // Strong: the RHS only matters if the target is live.
    if (Pre.erase(S.Target))
      collectExprVars(S.E, Pre);
    break;
  case CfgStmtKind::Havoc:
    for (Symbol V : S.Vars)
      Pre.erase(V);
    break;
  case CfgStmtKind::Call: {
    // Result bindings are definitely assigned on return; the callee may
    // read relevant globals and any argument feeding a relevant parameter.
    for (Symbol V : S.Vars)
      Pre.erase(V);
    const CfgProc &Q = Prog.proc(S.Callee);
    for (unsigned I = 0; I < S.Args.size() && I < Q.Params.size(); ++I)
      if (Rel.relevant(S.Callee, Q.Params[I].Name))
        collectExprVars(S.Args[I], Pre);
    for (Symbol G : FX[S.Callee].UseGlobals)
      if (Rel.relevantGlobal(G))
        Pre.insert(G);
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

} // namespace

//===----------------------------------------------------------------------===//
// The slicing pass
//===----------------------------------------------------------------------===//

SliceReport rmt::sliceForQuery(AstContext &Ctx, CfgProgram &Prog, ProcId Root,
                               std::optional<Symbol> ErrGlobal) {
  (void)Root; // every procedure's exit feeds some caller; no root special-case
  SliceReport Report;
  Relevance Rel(Prog, ErrGlobal);
  std::vector<ProcEffects> FX = computeProcEffects(Prog);

  // Procedures whose every label is a skip after slicing: calls to them are
  // equivalent to havocking the live result bindings (the callee always
  // returns and never assigns its returns). Callees first so a caller can
  // elide calls into procedures the slicer just emptied.
  std::vector<char> PureSkip(Prog.Procs.size(), 0);

  DataflowSolver<QueryLiveness> Solver;
  for (ProcId P : Prog.bottomUpProcOrder()) {
    const CfgProc &Proc = Prog.proc(P);
    ProcFlow Flow(Prog, P);
    QueryLiveness A(Prog, Rel, FX, P);
    Solver.solve(Flow, A);

    bool AllSkip = true;
    for (LabelId L : Proc.Labels) {
      CfgStmt &S = Prog.Labels[L].Stmt;
      const std::set<Symbol> &Post = Solver.post(L);
      switch (S.Kind) {
      case CfgStmtKind::Assume:
        break;
      case CfgStmtKind::Assign:
        if (!Post.count(S.Target)) {
          toSkip(Ctx, S);
          ++Report.StmtsDropped;
        }
        break;
      case CfgStmtKind::Havoc: {
        std::vector<Symbol> Live;
        for (Symbol V : S.Vars)
          if (Post.count(V))
            Live.push_back(V);
        if (Live.empty()) {
          Report.HavocVarsDropped += S.Vars.size();
          toSkip(Ctx, S);
          ++Report.StmtsDropped;
        } else {
          Report.HavocVarsDropped +=
              static_cast<unsigned>(S.Vars.size() - Live.size());
          S.Vars = std::move(Live);
        }
        break;
      }
      case CfgStmtKind::Call:
        if (PureSkip[S.Callee]) {
          std::vector<Symbol> Live;
          for (Symbol V : S.Vars)
            if (Post.count(V))
              Live.push_back(V);
          ++Report.CallsElided;
          if (Live.empty()) {
            toSkip(Ctx, S);
          } else {
            S.Kind = CfgStmtKind::Havoc;
            S.E = nullptr;
            S.Vars = std::move(Live);
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
