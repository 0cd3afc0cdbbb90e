//===- Cfg.cpp ------------------------------------------------------------===//

#include "cfg/Cfg.h"

#include "ast/AstContext.h"
#include "ast/AstPrinter.h"

#include <algorithm>
#include <cassert>

using namespace rmt;

std::vector<ProcId> CfgProgram::calleesOf(ProcId P) const {
  std::vector<ProcId> Out;
  for (LabelId L : Procs[P].Labels)
    if (Labels[L].Stmt.Kind == CfgStmtKind::Call)
      Out.push_back(Labels[L].Stmt.Callee);
  return Out;
}

unsigned CfgProgram::numCallSites(ProcId P) const {
  unsigned Count = 0;
  for (LabelId L : Procs[P].Labels)
    if (Labels[L].Stmt.Kind == CfgStmtKind::Call)
      ++Count;
  return Count;
}

bool CfgProgram::hasAcyclicFlow() const {
  return !findCycleNode(Labels.size(), [this](uint32_t L) -> const auto & {
    return Labels[L].Targets;
  });
}

bool CfgProgram::hasAcyclicCallGraph() const {
  // Materialize adjacency once; calleesOf returns by value.
  std::vector<std::vector<ProcId>> Adj(Procs.size());
  for (ProcId P = 0; P < Procs.size(); ++P)
    Adj[P] = calleesOf(P);
  return !findCycleNode(Procs.size(), [&Adj](uint32_t P) -> const auto & {
    return Adj[P];
  });
}

std::vector<LabelId> CfgProgram::topoOrder(ProcId P) const {
  const CfgProc &Proc = Procs[P];
  // Kahn's algorithm restricted to the procedure's labels. A procedure's
  // labels need not be contiguous (`inv` appends its assumes at the end of
  // Labels), so in-degrees live in a dense array over [Lo, Hi].
  LabelId Lo = InvalidLabel, Hi = 0;
  for (LabelId L : Proc.Labels) {
    Lo = std::min(Lo, L);
    Hi = std::max(Hi, L);
  }
  std::vector<LabelId> Order;
  if (Proc.Labels.empty())
    return Order;
  std::vector<unsigned> InDegree(Hi - Lo + 1, 0);
  for (LabelId L : Proc.Labels)
    for (LabelId T : Labels[L].Targets) {
      assert(T >= Lo && T <= Hi && "flow edge leaves the procedure");
      ++InDegree[T - Lo];
    }

  // Seed with in-degree-zero labels in Proc.Labels order, for deterministic
  // output; Order doubles as the FIFO work queue.
  Order.reserve(Proc.Labels.size());
  for (LabelId L : Proc.Labels)
    if (InDegree[L - Lo] == 0)
      Order.push_back(L);
  for (size_t I = 0; I < Order.size(); ++I)
    for (LabelId T : Labels[Order[I]].Targets)
      if (--InDegree[T - Lo] == 0)
        Order.push_back(T);
  assert(Order.size() == Proc.Labels.size() &&
         "flow graph must be acyclic and closed within the procedure");
  return Order;
}

std::vector<ProcId> CfgProgram::bottomUpProcOrder() const {
  std::vector<std::vector<ProcId>> Callees(Procs.size());
  for (ProcId P = 0; P < Procs.size(); ++P)
    Callees[P] = calleesOf(P);

  std::vector<uint8_t> Done(Procs.size(), 0);
  std::vector<ProcId> Order;
  Order.reserve(Procs.size());
  // Iterative post-order over the call DAG.
  std::vector<std::pair<ProcId, size_t>> Stack;
  for (ProcId Root = 0; Root < Procs.size(); ++Root) {
    if (Done[Root])
      continue;
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      auto &[P, Next] = Stack.back();
      if (Done[P]) {
        Stack.pop_back();
        continue;
      }
      if (Next < Callees[P].size()) {
        ProcId C = Callees[P][Next++];
        if (!Done[C])
          Stack.push_back({C, 0});
        continue;
      }
      Done[P] = 1;
      Order.push_back(P);
      Stack.pop_back();
    }
  }
  return Order;
}

std::string CfgProgram::str(const AstContext &Ctx) const {
  std::string Out;
  for (ProcId P = 0; P < Procs.size(); ++P) {
    const CfgProc &Proc = Procs[P];
    Out += "proc " + Ctx.name(Proc.Name) + " entry=L" +
           std::to_string(Proc.Entry) + "\n";
    for (LabelId L : Proc.Labels) {
      const CfgLabel &Lbl = Labels[L];
      Out += "  L" + std::to_string(L) + ": ";
      switch (Lbl.Stmt.Kind) {
      case CfgStmtKind::Assume:
        Out += "assume " + printExpr(Ctx, Lbl.Stmt.E);
        break;
      case CfgStmtKind::Assign:
        Out += Ctx.name(Lbl.Stmt.Target) +
               " := " + printExpr(Ctx, Lbl.Stmt.E);
        break;
      case CfgStmtKind::Havoc: {
        Out += "havoc";
        for (size_t I = 0; I < Lbl.Stmt.Vars.size(); ++I)
          Out += (I ? ", " : " ") + Ctx.name(Lbl.Stmt.Vars[I]);
        break;
      }
      case CfgStmtKind::Call: {
        Out += "call ";
        for (size_t I = 0; I < Lbl.Stmt.Vars.size(); ++I)
          Out += (I ? ", " : "") + Ctx.name(Lbl.Stmt.Vars[I]);
        if (!Lbl.Stmt.Vars.empty())
          Out += " := ";
        Out += Ctx.name(Procs[Lbl.Stmt.Callee].Name) + "(";
        for (size_t I = 0; I < Lbl.Stmt.Args.size(); ++I)
          Out += (I ? ", " : "") + printExpr(Ctx, Lbl.Stmt.Args[I]);
        Out += ")";
        break;
      }
      }
      Out += " ->";
      for (LabelId T : Lbl.Targets)
        Out += " L" + std::to_string(T);
      if (Lbl.Targets.empty())
        Out += " <ret>";
      Out += "\n";
    }
  }
  return Out;
}
