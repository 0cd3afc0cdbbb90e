//===- InvariantGen.h - Invariant inference and injection -------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "+Inv" prepass of Section 4. Corral runs invariant generation and
/// injects every inferred invariant as an assume statement; we reproduce the
/// mechanism with an interval analysis over the call DAG: one least-fixpoint
/// (ascending Kleene) iteration computing, at once, every procedure's entry
/// invariant (join over all call contexts reachable from the root) and its
/// *contextual* exit summary (globals and returns on exit under that entry).
/// Entries and summaries are mutually dependent (a later call's context uses
/// an earlier call's summary), so the iteration runs to a post-fixpoint with
/// interval widening after a few rounds to force convergence. The widening
/// has one threshold, 0, so a counter that starts at 0 and only grows keeps
/// its lower bound. Should the iteration not stabilize within its round
/// budget, the analysis falls back to no facts: every entry and every exit
/// is top, so nothing is injected and nothing is proved.
///
/// injectInvariants() materializes the results the way Corral consumes
/// Houdini output: each procedure's entry invariant becomes an `assume`
/// label spliced in front of its entry, and each call site gets an `assume`
/// of the callee's contextual exit summary spliced after it. The call-site
/// assumes are what prune the stratified engines' havoc summaries of *open*
/// calls — the effect Section 4 describes ("invariants can be a powerful
/// mechanism to prune search; in the limit the search can conclude
/// trivially"). Sound by construction: every interval over-approximates all
/// reachable states, so no feasible execution is excluded.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_INVARIANTGEN_H
#define RMT_ANALYSIS_INVARIANTGEN_H

#include "analysis/Dataflow.h"
#include "analysis/Interval.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace rmt {

/// An abstract store: missing variables are top; Bottom means unreachable.
/// The bounded variables are a flat vector sorted by symbol, so lookups are
/// binary searches and joins are linear merges with no hashing.
class AbsEnv {
public:
  static AbsEnv bottomEnv() {
    AbsEnv E;
    E.Bottom = true;
    return E;
  }

  bool isBottom() const { return Bottom; }

  Interval get(Symbol Var) const {
    if (Bottom)
      return Interval::bottom();
    size_t I = position(Var);
    return I == Vals.size() || Vals[I].first != Var ? Interval::top()
                                                    : Vals[I].second;
  }

  /// Setting any variable to bottom collapses the whole env to bottom.
  void set(Symbol Var, const Interval &I) {
    if (Bottom)
      return;
    if (I.isBottom()) {
      Bottom = true;
      Vals.clear();
      return;
    }
    auto It = Vals.begin() + position(Var);
    bool Found = It != Vals.end() && It->first == Var;
    if (I.isTop()) {
      if (Found)
        Vals.erase(It);
    } else if (Found) {
      It->second = I;
    } else {
      Vals.insert(It, {Var, I});
    }
  }

  /// Joins \p O into this env.
  void joinWith(const AbsEnv &O);

  /// Abstract value of \p E (booleans as [0,1]); bottom in a bottom env.
  Interval eval(const Expr *E) const;
  /// Narrows the env to the states where \p E evaluates to \p Positive;
  /// a condition no state satisfies makes the env bottom.
  void assume(const Expr *E, bool Positive = true);

  friend bool operator==(const AbsEnv &A, const AbsEnv &B) {
    if (A.Bottom || B.Bottom)
      return A.Bottom == B.Bottom;
    return A.Vals == B.Vals;
  }

  /// Interval widening with the one threshold 0 of \p New against the
  /// previous iterate \p Old (requires New ⊒ Old). A bound that did not
  /// move is kept. A lower bound that moved goes to 0 if the new one is
  /// still >= 0, else to -inf; an upper bound that moved goes to 0 if the
  /// new one is still <= 0, else to +inf. The result contains New, and each
  /// bound moves at most twice more, which forces the ascending iteration
  /// to converge.
  static AbsEnv widen(const AbsEnv &Old, const AbsEnv &New);

private:
  using Binding = std::pair<Symbol, Interval>;

  /// Index of \p Var's binding, or of where it would be inserted.
  size_t position(Symbol Var) const {
    return std::lower_bound(
               Vals.begin(), Vals.end(), Var,
               [](const Binding &B, Symbol V) { return B.first < V; }) -
           Vals.begin();
  }

  bool Bottom = false;
  /// Bounded variables only (never top, never bottom), sorted by symbol.
  std::vector<Binding> Vals;
};

/// The interval analysis's per-statement transfer over one procedure, a
/// forward DataflowSolver client (defined in InvariantGen.cpp).
struct IntervalFlow;

/// Whole-program interval analysis results. Each procedure is solved by the
/// forward DataflowSolver (Dataflow.h) over AbsEnv; the fixpoint iteration
/// in the file comment repeats those solves over the call DAG.
class IntervalAnalysis {
public:
  /// Analyzes \p Prog with \p Entry as the root context.
  IntervalAnalysis(const CfgProgram &Prog, ProcId Entry);

  /// Entry invariant of \p P: intervals of globals and parameters holding on
  /// every entry reachable from the root. Bottom when \p P is unreachable.
  const AbsEnv &entryEnv(ProcId P) const { return EntryEnvs[P]; }

  /// Exit summary of \p P (globals and returns) under its entry invariant.
  /// Bottom when unreachable from the root.
  const AbsEnv &contextExitSummary(ProcId P) const {
    return ContextExitSummaries[P];
  }

private:
  /// Solves \p P from \p Entry in \p Solver (storage shared by every
  /// solve), taking call post-states from \p CallSummaries, and returns its
  /// exit summary. When \p Record is set, each reachable call site's context
  /// is joined into its callee's entry.
  AbsEnv solveProc(DataflowSolver<IntervalFlow> &Solver, ProcId P,
                   const AbsEnv &Entry,
                   const std::vector<AbsEnv> &CallSummaries, bool Record);

  const CfgProgram &Prog;
  std::vector<ProcFlow> Flows;
  std::vector<AbsEnv> EntryEnvs;
  std::vector<AbsEnv> ContextExitSummaries;
};

/// Result of invariant injection.
struct InvariantReport {
  unsigned ProcsAnnotated = 0;
  /// Conjuncts injected, over entry invariants and call-site summaries.
  unsigned Conjuncts = 0;
  /// The analysis alone proves the reachability query: the root's
  /// contextual exit summary is bottom (no execution of the root
  /// terminates) or pins the error global to false (no terminating
  /// execution sets it). The search then concludes trivially (Section 4).
  bool ProvesQuery = false;
};

/// Runs the analysis rooted at \p Entry, splices each non-trivial entry
/// invariant into \p Prog as an assume label before the procedure entry
/// and each call-site summary after the call, and reports whether the
/// analysis proves the query on \p ErrGlobal ($err; nullopt for plain
/// termination reachability).
InvariantReport injectInvariants(AstContext &Ctx, CfgProgram &Prog,
                                 ProcId Entry,
                                 std::optional<Symbol> ErrGlobal);

} // namespace rmt

#endif // RMT_ANALYSIS_INVARIANTGEN_H
