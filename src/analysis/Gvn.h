//===- Gvn.h - Value numbering, propagation, assume pruning -----*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Global value numbering over the paper's label form: one forward dataflow
/// solve per procedure, then one rewrite sweep that propagates copies and
/// expressions, folds literals, and drops or sharpens assumes.
///
/// The analysis is a forward MUST dataflow: the abstract state at a label
/// maps each in-scope variable to a value number, and carries the set of
/// value numbers known to be true on *every* path reaching the label. Value
/// numbers live in a per-procedure hash-consed value table keyed on
/// (operator, operand VNs), with commutative operands normalized, so two
/// expressions get the same number exactly when the analysis can prove they
/// always evaluate to the same value. Integer literals fold through the
/// shared kernel in ast/Ops.h. The meet intersects variable bindings and fact
/// sets, which is what makes the propagation sound on merge-heavy graphs.
/// Bottom is "unreachable": an `assume` whose condition is refuted by, or
/// whose recorded conditions clash with, the facts on every path in has a
/// bottom post-state.
///
/// On acyclic flow graphs (our programs are hierarchical, Section 3) the
/// meet-over-all-paths solution this computes dominates the classic
/// dominator-tree-scoped formulation: a fact valid on all paths to L is in
/// particular valid at L's dominators, and the intersection meet keeps
/// precisely the facts valid along every path — there are no back edges to
/// force widening. Unlike SSA-based DVNT, leaders are drawn from the
/// *current* variable binding map, so a redefinition of `y` automatically
/// retires `y` as a leader without any renaming machinery.
///
/// The rewrite sweep visits every reachable label once:
///
///  * an `assume e` whose post-state is bottom becomes `assume false` with
///    its successors cut; the labels behind it become unreachable from the
///    entry, and the splicer's reachability sweep deletes them;
///  * an `assume e` where vn(e) is entailed true on all incoming paths
///    becomes a skip (to be spliced);
///  * every other expression is rewritten bottom-up, replacing any
///    subexpression whose value number has a cheaper leader (a literal, else
///    the smallest in-scope variable bound to that number), which collapses
///    `y := x; z := y + 1` chains and shrinks Gen_pVC term counts directly.
///
/// Every rewrite is verdict-preserving: it replaces expressions with
/// provably-equal values and drops assumes that are implied by (or
/// contradict) the path condition, so the set of feasible $err-executions is
/// unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_GVN_H
#define RMT_ANALYSIS_GVN_H

#include "ast/AstContext.h"
#include "cfg/Cfg.h"

#include <optional>

namespace rmt {

/// What the GVN pass did.
struct GvnReport {
  /// Subexpressions replaced by a congruent leader (literal or variable).
  unsigned PropagatedExprs = 0;
  /// `assume e` labels proven entailed and reduced to skips.
  unsigned RedundantAssumes = 0;
  /// `assume e` labels no execution passes, sharpened to `assume false`
  /// with their successors cut.
  unsigned ContradictedAssumes = 0;

  unsigned total() const {
    return PropagatedExprs + RedundantAssumes + ContradictedAssumes;
  }
};

/// Runs value numbering over every procedure of \p Prog and rewrites
/// statements in place. Changes the flow graph shape only by cutting the
/// successors of assumes sharpened to false.
GvnReport runGvn(AstContext &Ctx, CfgProgram &Prog);

} // namespace rmt

#endif // RMT_ANALYSIS_GVN_H
