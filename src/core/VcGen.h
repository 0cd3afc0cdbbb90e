//===- VcGen.h - Fig. 8: pVC generation and the inlining DAG ----*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The imperative state of the paper's Fig. 8: nodes are dynamic procedure
/// instances, edges are calls, and the maps Src/Dest/Entry/Callee/CallSite/
/// Control/In/Out hang off them. genPvc() is Gen_pVC (lines 31–75): it mints
/// the BS/VS/VS' symbolic constants of a procedure's labels and emits the
/// procedural VC clauses (see PvcMode for the two encodings, which share
/// one label walk). bindEdge() is lines 24–25: binding an open
/// edge to a node and emitting Control[c] ⇒ (Control[n] ∧ In[c] = In[n] ∧
/// Out[c] = Out[n]).
///
/// One generalization over the paper's formal language: procedures carry
/// parameters and returns, so a node interface is globals⧺params on entry
/// and globals⧺returns on exit, and an edge interface is the globals at the
/// call site ⧺ the actual-argument terms / the globals after the call ⧺ the
/// result-binding constants. This matches the worked VC of Fig. 6
/// (v1 == a1 ∧ r == b1). Merging only relates instances of one procedure,
/// so interfaces always have equal shape.
///
/// Every emitted clause goes to one sink callback and nowhere else, so
/// engines assert them into an incremental solver as they are produced (the
/// paper's Push) and dumps collect them from the same stream.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_VCGEN_H
#define RMT_CORE_VCGEN_H

#include "ast/AstContext.h"
#include "cfg/Cfg.h"
#include "smt/Term.h"
#include "smt/Translate.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace rmt {

/// Index of a node / edge in the VcContext.
using NodeId = uint32_t;
using EdgeId = uint32_t;
constexpr NodeId InvalidNode = ~0u;
constexpr EdgeId InvalidEdge = ~0u;

/// A dynamic procedure instance (a DAG node).
struct VcNode {
  ProcId Proc = InvalidProc;
  LabelId Entry = InvalidLabel;
  TermRef Control;
  /// Interface: [globals..., params...] on entry.
  std::vector<TermRef> In;
  /// Interface: [globals..., returns...] on exit.
  std::vector<TermRef> Out;
  /// Out-going call edges, in call-site order.
  std::vector<EdgeId> OutEdges;
  /// BS[y] for every label y of the procedure (trace reconstruction).
  std::unordered_map<LabelId, TermRef> BlockConst;
  /// Pre-state of every label y (model inspection / trace values): VS[y],
  /// or in Passified mode a non-joining label's predecessor post-state.
  std::unordered_map<LabelId, VarTermMap> VarsAt;
};

/// A call (a DAG edge). Open until Dest is bound.
struct VcEdge {
  NodeId Src = InvalidNode;
  NodeId Dest = InvalidNode;
  ProcId Callee = InvalidProc;
  LabelId CallSite = InvalidLabel;
  TermRef Control;
  std::vector<TermRef> In;
  std::vector<TermRef> Out;

  bool isOpen() const { return Dest == InvalidNode; }
};

/// How procedural VCs are generated. Both modes walk a procedure's labels
/// once, computing each label's post-state as a term map over its pre-state;
/// they differ only in where variable incarnations become fresh constants.
enum class PvcMode {
  /// The paper's Fig. 8 Gen_pVC, literally: every label's pre-state is fresh
  /// VS[y] constants and its post-state fresh VS'[y] constants, tied to the
  /// computed post-state by one transition clause with frame equalities.
  /// Havocs and call outputs are VS'[y]. Clauses in label order.
  Paper,
  /// Boogie-style passification: fresh pre-state constants only at the
  /// entry, join and orphan labels; other labels read their predecessor's
  /// post-state terms, and havocs and call outputs are fresh constants. Same
  /// models, far fewer constants — the engineering the paper alludes to with
  /// "inlining at the VC level". Clauses in topological order, trivially
  /// true ones dropped.
  Passified,
};

/// Fig. 8's global state plus the pVC generator.
class VcContext {
public:
  /// \p Sink receives every pushed clause (may be empty: the clauses are
  /// then dropped). \p Ctx provides
  /// the canonical types (for the boolean control constants).
  VcContext(const AstContext &Ctx, const CfgProgram &Prog, TermArena &Arena,
            std::function<void(TermRef)> Sink = {},
            PvcMode Mode = PvcMode::Paper);

  /// Gen_pVC(q): creates a fresh node with fresh constants and pushes its
  /// procedural VC. New out-edges start open.
  NodeId genPvc(ProcId Q);

  /// Binds open edge \p C to node \p N (Dest[c] = n) and pushes the
  /// interface-equality clause. \p N must be an instance of Callee[c].
  /// Returns the pushed clause.
  TermRef bindEdge(EdgeId C, NodeId N);

  const VcNode &node(NodeId N) const { return Nodes[N]; }
  const VcEdge &edge(EdgeId E) const { return Edges[E]; }
  size_t numNodes() const { return Nodes.size(); }
  size_t numEdges() const { return Edges.size(); }

  /// Ids of currently open edges, in creation order.
  const std::vector<EdgeId> &openEdges() const { return Open; }

  /// All nodes that are instances of \p Q, in creation order (merge-candidate
  /// lists for the strategies).
  const std::vector<NodeId> &instancesOf(ProcId Q) const;

  const CfgProgram &program() const { return Prog; }
  TermArena &arena() { return Arena; }

  /// Number of Gen_pVC invocations == number of procedures inlined — the
  /// size metric of Figs. 4 and 17.
  size_t numInlined() const { return Nodes.size(); }

  PvcMode mode() const { return Mode; }

private:
  void push(TermRef Clause);

  /// Scope variables of \p Q in canonical order: globals, params, returns,
  /// locals (cached).
  const std::vector<VarDecl> &scopeVars(ProcId Q);

  const AstContext &Ctx;
  const CfgProgram &Prog;
  TermArena &Arena;
  std::function<void(TermRef)> Sink;
  PvcMode Mode;
  std::vector<VcNode> Nodes;
  std::vector<VcEdge> Edges;
  std::vector<EdgeId> Open;
  std::unordered_map<ProcId, std::vector<VarDecl>> ScopeCache;
  std::unordered_map<ProcId, std::vector<NodeId>> Instances;
  std::vector<NodeId> NoInstances;
};

} // namespace rmt

#endif // RMT_CORE_VCGEN_H
