//===- Cfg.h - The paper's hierarchical program form ------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program representation of the paper's Fig. 7: a program is a tuple
/// (gs, ls, ps, init, bs, ts) — globals, locals, a partition of labels among
/// procedures, per-procedure initial labels, one statement per label, and a
/// nondeterministic successor-set map. Control returns to the caller when a
/// label's successor set is empty.
///
/// Statements are `assume e`, `v := e`, `havoc vs` and `call p`. (The paper
/// encodes havoc via calls; we keep it first-class — its pVC clause is
/// trivial.) Calls carry actual arguments and result bindings; the paper
/// omits parameters from the formalization but notes they are simulated via
/// locals/globals, and our VC layer carries them in the node interfaces.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CFG_CFG_H
#define RMT_CFG_CFG_H

#include "ast/Expr.h"
#include "ast/Stmt.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rmt {

class AstContext;

/// Index of a label in CfgProgram::Labels.
using LabelId = uint32_t;
/// Index of a procedure in CfgProgram::Procs.
using ProcId = uint32_t;

constexpr LabelId InvalidLabel = ~0u;
constexpr ProcId InvalidProc = ~0u;

/// Three-colour DFS over the dense node ids 0..NumNodes-1, roots and
/// children visited in id order; \p Adjacent(N) returns N's successor ids.
/// Returns the node the first back edge points to (a node on a cycle), or
/// nullopt when the graph is acyclic.
template <typename AdjFn>
std::optional<uint32_t> findCycleNode(size_t NumNodes, AdjFn Adjacent) {
  enum : uint8_t { White, Grey, Black };
  std::vector<uint8_t> Color(NumNodes, White);
  std::vector<std::pair<uint32_t, size_t>> Stack;
  for (uint32_t Root = 0; Root < NumNodes; ++Root) {
    if (Color[Root] != White)
      continue;
    Color[Root] = Grey;
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      auto &[Node, NextChild] = Stack.back();
      const auto &Children = Adjacent(Node);
      if (NextChild == Children.size()) {
        Color[Node] = Black;
        Stack.pop_back();
        continue;
      }
      uint32_t Child = Children[NextChild++];
      if (Color[Child] == Grey)
        return Child;
      if (Color[Child] == White) {
        Color[Child] = Grey;
        Stack.push_back({Child, 0});
      }
    }
  }
  return std::nullopt;
}

/// Statement kinds at a label (paper Fig. 7 plus Havoc).
enum class CfgStmtKind { Assume, Assign, Havoc, Call };

/// The statement executed at a label.
struct CfgStmt {
  CfgStmtKind Kind = CfgStmtKind::Assume;
  /// Assume: the condition. Assign: the right-hand side.
  const Expr *E = nullptr;
  /// Assign: the assigned variable.
  Symbol Target;
  /// Havoc: the havocked variables. Call: the result bindings.
  std::vector<Symbol> Vars;
  /// Call: the callee.
  ProcId Callee = InvalidProc;
  /// Call: actual arguments.
  std::vector<const Expr *> Args;

  /// A skip: `assume true`.
  bool isSkip() const {
    return Kind == CfgStmtKind::Assume && E && E->kind() == ExprKind::BoolLit &&
           E->boolValue();
  }
};

/// One label: its statement, its successor set, and its owning procedure
/// (the ps map of Fig. 7 stored inline).
struct CfgLabel {
  CfgStmt Stmt;
  std::vector<LabelId> Targets;
  ProcId Proc = InvalidProc;
  SrcLoc Loc;
};

/// A procedure: its entry label (init), the labels it owns, and its variable
/// declarations.
struct CfgProc {
  Symbol Name;
  LabelId Entry = InvalidLabel;
  std::vector<LabelId> Labels;
  std::vector<VarDecl> Params;
  std::vector<VarDecl> Returns;
  std::vector<VarDecl> Locals;
  /// Scope map: every variable visible in this procedure (globals, params,
  /// returns, locals) with its type. Built by the lowering.
  std::unordered_map<Symbol, const Type *> VarTypes;

  const Type *typeOf(Symbol Var) const {
    auto It = VarTypes.find(Var);
    return It == VarTypes.end() ? nullptr : It->second;
  }
};

/// The whole lowered program.
struct CfgProgram {
  std::vector<VarDecl> Globals;
  std::vector<CfgProc> Procs;
  std::vector<CfgLabel> Labels;

  const CfgLabel &label(LabelId L) const { return Labels[L]; }
  const CfgProc &proc(ProcId P) const { return Procs[P]; }

  /// Procedure owning \p L.
  ProcId procOf(LabelId L) const { return Labels[L].Proc; }

  /// Finds a procedure by name; InvalidProc when absent.
  ProcId findProc(Symbol Name) const {
    for (ProcId P = 0; P < Procs.size(); ++P)
      if (Procs[P].Name == Name)
        return P;
    return InvalidProc;
  }

  /// Direct callees of \p P (with duplicates).
  std::vector<ProcId> calleesOf(ProcId P) const;

  /// True when every intraprocedural flow graph is acyclic.
  bool hasAcyclicFlow() const;
  /// True when the call graph is acyclic.
  bool hasAcyclicCallGraph() const;
  /// Hierarchical = both of the above (paper Section 3).
  bool isHierarchical() const {
    return hasAcyclicFlow() && hasAcyclicCallGraph();
  }

  /// Labels of \p P in a topological order of the flow graph (entry first).
  /// The flow graph must be acyclic.
  std::vector<LabelId> topoOrder(ProcId P) const;

  /// Procedures in reverse-topological (callees-first) call-graph order.
  /// The call graph must be acyclic.
  std::vector<ProcId> bottomUpProcOrder() const;

  /// Total number of call labels in procedure \p P.
  unsigned numCallSites(ProcId P) const;

  /// Debug rendering of the whole program, one label per line.
  std::string str(const AstContext &Ctx) const;
};

} // namespace rmt

#endif // RMT_CFG_CFG_H
