//===- VerifyCfg.cpp ------------------------------------------------------===//

#include "analysis/VerifyCfg.h"

#include <algorithm>
#include <unordered_map>

using namespace rmt;

namespace {

/// Collects diagnostics with printf-lite convenience.
class CfgVerifier {
public:
  CfgVerifier(const AstContext &Ctx, const CfgProgram &Prog, ProcId Root,
              std::optional<Symbol> ErrGlobal)
      : Ctx(Ctx), Prog(Prog), Root(Root), ErrGlobal(ErrGlobal) {}

  std::vector<std::string> run() {
    checkLabelTable();
    // Everything past the table checks indexes into Labels/Procs; bail if the
    // ids themselves are broken so we do not fault chasing them.
    if (!Out.empty())
      return std::move(Out);
    checkSuccessorClosure();
    checkAcyclicity();
    for (LabelId L = 0; L < Prog.Labels.size(); ++L)
      checkStatement(L);
    if (ErrGlobal)
      checkErrShape();
    return std::move(Out);
  }

private:
  void report(const std::string &S) { Out.push_back(S); }

  std::string procName(ProcId P) const {
    if (P >= Prog.Procs.size())
      return "<proc#" + std::to_string(P) + ">";
    return Ctx.name(Prog.Procs[P].Name);
  }

  std::string labelRef(LabelId L) const {
    std::string S = "L" + std::to_string(L);
    if (L < Prog.Labels.size() && Prog.Labels[L].Proc < Prog.Procs.size())
      S += " in " + procName(Prog.Labels[L].Proc);
    return S;
  }

  /// Labels partition among procedures; entries and back-pointers agree.
  void checkLabelTable() {
    if (Root != InvalidProc && Root >= Prog.Procs.size())
      report("root procedure id " + std::to_string(Root) +
             " out of range (program has " +
             std::to_string(Prog.Procs.size()) + " procedures)");

    std::vector<ProcId> Owner(Prog.Labels.size(), InvalidProc);
    for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
      const CfgProc &Proc = Prog.Procs[P];
      for (LabelId L : Proc.Labels) {
        if (L >= Prog.Labels.size()) {
          report("procedure " + procName(P) + " lists out-of-range label L" +
                 std::to_string(L));
          continue;
        }
        if (Owner[L] != InvalidProc)
          report("label L" + std::to_string(L) +
                 " listed by two procedures: " + procName(Owner[L]) +
                 " and " + procName(P));
        Owner[L] = P;
        if (Prog.Labels[L].Proc != P)
          report("label L" + std::to_string(L) + " listed by " + procName(P) +
                 " but its Proc back-pointer is " +
                 procName(Prog.Labels[L].Proc));
      }
      if (Proc.Entry >= Prog.Labels.size())
        report("procedure " + procName(P) + " has out-of-range entry label L" +
               std::to_string(Proc.Entry));
      else if (std::find(Proc.Labels.begin(), Proc.Labels.end(), Proc.Entry) ==
               Proc.Labels.end())
        report("entry label L" + std::to_string(Proc.Entry) +
               " of procedure " + procName(P) +
               " is not among the labels it owns");
    }
    for (LabelId L = 0; L < Prog.Labels.size(); ++L)
      if (Owner[L] == InvalidProc)
        report("label L" + std::to_string(L) +
               " is not owned by any procedure");
  }

  /// Successor sets stay inside the owning procedure's label set.
  void checkSuccessorClosure() {
    for (LabelId L = 0; L < Prog.Labels.size(); ++L) {
      const CfgLabel &Lab = Prog.Labels[L];
      for (LabelId T : Lab.Targets) {
        if (T >= Prog.Labels.size()) {
          report("label " + labelRef(L) + " has dangling successor L" +
                 std::to_string(T) + " (label table has " +
                 std::to_string(Prog.Labels.size()) + " labels)");
          continue;
        }
        if (Prog.Labels[T].Proc != Lab.Proc)
          report("label " + labelRef(L) + " has cross-procedure successor " +
                 labelRef(T) + " (flow edges must stay within one procedure)");
      }
    }
  }

  /// Intraprocedural flow and the call graph must both be acyclic
  /// (Section 3's hierarchical-program requirement); reports one witness
  /// node per offending graph.
  void checkAcyclicity() {
    for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
      const CfgProc &Proc = Prog.Procs[P];
      // DFS over the proc's labels through a dense index.
      std::unordered_map<LabelId, uint32_t> Idx;
      Idx.reserve(Proc.Labels.size());
      for (LabelId L : Proc.Labels)
        Idx.emplace(L, static_cast<uint32_t>(Idx.size()));
      std::vector<std::vector<uint32_t>> Adj(Proc.Labels.size());
      for (size_t I = 0; I < Proc.Labels.size(); ++I)
        for (LabelId T : Prog.Labels[Proc.Labels[I]].Targets)
          if (auto It = Idx.find(T); It != Idx.end())
            Adj[I].push_back(It->second);
      if (auto C = findCycleNode(Proc.Labels.size(),
                                 [&](uint32_t V) -> const std::vector<uint32_t>
                                     & { return Adj[V]; }))
        report("flow graph of procedure " + procName(P) +
               " has a cycle through label L" +
               std::to_string(Proc.Labels[*C]));
    }

    std::vector<std::vector<uint32_t>> CallAdj(Prog.Procs.size());
    for (const CfgLabel &Lab : Prog.Labels)
      if (Lab.Stmt.Kind == CfgStmtKind::Call &&
          Lab.Stmt.Callee < Prog.Procs.size())
        CallAdj[Lab.Proc].push_back(Lab.Stmt.Callee);
    if (auto C = findCycleNode(Prog.Procs.size(),
                               [&](uint32_t V) -> const std::vector<uint32_t> &
                               { return CallAdj[V]; }))
      report("call graph has a cycle through procedure " + procName(*C) +
             " (hierarchical programs require an acyclic call graph)");
  }

  /// Every variable in \p E is in scope with the type the expression claims.
  void checkExpr(LabelId L, const CfgProc &Proc, const Expr *E) {
    if (!E) {
      report("label " + labelRef(L) + " has a null expression operand");
      return;
    }
    if (!E->type())
      report("label " + labelRef(L) + " has an untyped expression");
    if (E->kind() == ExprKind::Var) {
      const Type *Declared = Proc.typeOf(E->var());
      if (!Declared)
        report("label " + labelRef(L) + " references variable '" +
               Ctx.name(E->var()) + "' which is not in scope");
      else if (E->type() && Declared != E->type())
        report("label " + labelRef(L) + " references variable '" +
               Ctx.name(E->var()) + "' at type " + E->type()->str() +
               " but it is declared " + Declared->str());
    }
    for (unsigned I = 0; I < E->numOps(); ++I)
      checkExpr(L, Proc, I == 0 ? E->op0() : I == 1 ? E->op1() : E->op2());
  }

  void checkVarList(LabelId L, const CfgProc &Proc,
                    const std::vector<Symbol> &Vars, const char *What) {
    for (Symbol V : Vars)
      if (!Proc.typeOf(V))
        report("label " + labelRef(L) + " " + What + " variable '" +
               Ctx.name(V) + "' which is not in scope");
  }

  void checkStatement(LabelId L) {
    const CfgLabel &Lab = Prog.Labels[L];
    const CfgProc &Proc = Prog.Procs[Lab.Proc];
    const CfgStmt &S = Lab.Stmt;
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      checkExpr(L, Proc, S.E);
      if (S.E && S.E->type() && !S.E->type()->isBool())
        report("assume at label " + labelRef(L) +
               " has non-bool condition of type " + S.E->type()->str());
      break;
    case CfgStmtKind::Assign: {
      checkExpr(L, Proc, S.E);
      const Type *Declared = Proc.typeOf(S.Target);
      if (!Declared)
        report("assignment at label " + labelRef(L) + " targets variable '" +
               Ctx.name(S.Target) + "' which is not in scope");
      else if (S.E && S.E->type() && S.E->type() != Declared)
        report("assignment at label " + labelRef(L) + " stores a " +
               S.E->type()->str() + " into variable '" + Ctx.name(S.Target) +
               "' of type " + Declared->str());
      break;
    }
    case CfgStmtKind::Havoc:
      checkVarList(L, Proc, S.Vars, "havocs");
      break;
    case CfgStmtKind::Call: {
      if (S.Callee >= Prog.Procs.size()) {
        report("call at label " + labelRef(L) +
               " targets out-of-range procedure id " +
               std::to_string(S.Callee));
        break;
      }
      const CfgProc &Callee = Prog.Procs[S.Callee];
      if (S.Args.size() != Callee.Params.size())
        report("call to " + procName(S.Callee) + " at label " + labelRef(L) +
               " passes " + std::to_string(S.Args.size()) +
               " arguments but the signature has " +
               std::to_string(Callee.Params.size()) + " parameters");
      if (S.Vars.size() != Callee.Returns.size())
        report("call to " + procName(S.Callee) + " at label " + labelRef(L) +
               " binds " + std::to_string(S.Vars.size()) +
               " results but the signature has " +
               std::to_string(Callee.Returns.size()) + " returns");
      for (size_t I = 0; I < S.Args.size(); ++I) {
        checkExpr(L, Proc, S.Args[I]);
        if (I < Callee.Params.size() && S.Args[I] && S.Args[I]->type() &&
            S.Args[I]->type() != Callee.Params[I].Ty)
          report("call to " + procName(S.Callee) + " at label " + labelRef(L) +
                 " passes a " + S.Args[I]->type()->str() + " for parameter '" +
                 Ctx.name(Callee.Params[I].Name) + "' of type " +
                 Callee.Params[I].Ty->str());
      }
      checkVarList(L, Proc, S.Vars, "binds call result to");
      for (size_t I = 0; I < S.Vars.size() && I < Callee.Returns.size(); ++I)
        if (const Type *Declared = Proc.typeOf(S.Vars[I]);
            Declared && Declared != Callee.Returns[I].Ty)
          report("call to " + procName(S.Callee) + " at label " + labelRef(L) +
                 " binds return '" + Ctx.name(Callee.Returns[I].Name) +
                 "' of type " + Callee.Returns[I].Ty->str() +
                 " to variable '" + Ctx.name(S.Vars[I]) + "' of type " +
                 Declared->str());
      break;
    }
    }
  }

  /// Instrumentation shape of the reachability query variable: a bool global
  /// that passes may rewrite but must never havoc or bind as a call result,
  /// and whose assignments stay bool-typed. (Stronger shape checks — e.g.
  /// "every assert became a $err := true" — would reject legitimate prepass
  /// rewrites like slicing away an unreachable assert.)
  void checkErrShape() {
    Symbol Err = *ErrGlobal;
    const Type *ErrTy = nullptr;
    for (const VarDecl &G : Prog.Globals)
      if (G.Name == Err)
        ErrTy = G.Ty;
    if (!ErrTy) {
      report("query variable '" + Ctx.name(Err) +
             "' is not declared as a global");
      return;
    }
    if (!ErrTy->isBool())
      report("query variable '" + Ctx.name(Err) + "' has type " +
             ErrTy->str() + " but the instrumentation requires bool");

    for (LabelId L = 0; L < Prog.Labels.size(); ++L) {
      const CfgStmt &S = Prog.Labels[L].Stmt;
      switch (S.Kind) {
      case CfgStmtKind::Assign:
        if (S.Target == Err && S.E && S.E->type() && !S.E->type()->isBool())
          report("assignment to query variable '" + Ctx.name(Err) +
                 "' at label " + labelRef(L) + " has non-bool type " +
                 S.E->type()->str());
        break;
      case CfgStmtKind::Havoc:
        for (Symbol V : S.Vars)
          if (V == Err)
            report("query variable '" + Ctx.name(Err) +
                   "' is havocked at label " + labelRef(L) +
                   " (the instrumentation bit must stay deterministic)");
        break;
      case CfgStmtKind::Call:
        for (Symbol V : S.Vars)
          if (V == Err)
            report("query variable '" + Ctx.name(Err) +
                   "' is bound as a call result at label " + labelRef(L));
        break;
      case CfgStmtKind::Assume:
        break;
      }
    }
  }

  const AstContext &Ctx;
  const CfgProgram &Prog;
  ProcId Root;
  std::optional<Symbol> ErrGlobal;
  std::vector<std::string> Out;
};

} // namespace

std::vector<std::string> rmt::verifyCfg(const AstContext &Ctx,
                                        const CfgProgram &Prog, ProcId Root,
                                        std::optional<Symbol> ErrGlobal) {
  return CfgVerifier(Ctx, Prog, Root, ErrGlobal).run();
}
