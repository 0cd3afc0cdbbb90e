//===- Solver.h - Abstract incremental SMT solver ---------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver seam between VC generation and backends. The inlining engines
/// need exactly this interface: incremental assertion (the paper's Push),
/// checking under assumption literals (the stratified checks block open
/// edges this way; there are no assertion scopes), the unsat core over those
/// literals, a cheap read of the search's final Boolean assignment (the
/// stratified frontier), and model extraction for constants (a Bug trace).
///
//===----------------------------------------------------------------------===//

#ifndef RMT_SMT_SOLVER_H
#define RMT_SMT_SOLVER_H

#include "smt/Term.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rmt {

/// Outcome of a satisfiability check.
enum class SolveResult { Sat, Unsat, Unknown };

/// Printable name of \p R ("sat", "unsat", "unknown").
const char *solveResultName(SolveResult R);

/// An incremental solver over terms of one TermArena.
class Solver {
public:
  virtual ~Solver();

  /// Conjoins \p T with the asserted formulas ("Push(e)" in Fig. 8).
  virtual void assertTerm(TermRef T) = 0;

  /// Checks satisfiability of the asserted formulas plus \p Assumptions
  /// (boolean literals: constants or their negations). \p TimeoutSeconds
  /// <= 0 means no timeout. The budget holds for this check only: the Z3
  /// backend sets it on its context before each check of its one plain
  /// incremental solver. Unknown covers timeouts, resource limits and
  /// backend errors (a failed assertion or translation). Unknown is final:
  /// every check after the first Unknown returns Unknown, and
  /// reasonUnknown() keeps that first reason, because a backend checked
  /// again after giving up may answer wrongly.
  virtual SolveResult check(const std::vector<TermRef> &Assumptions,
                            double TimeoutSeconds) = 0;
  SolveResult check() { return check({}, 0); }

  /// Unsat core of the last check; valid only directly after an Unsat
  /// result. Positions (ascending) into that check's assumption list of a
  /// subset of the assumptions that is unsat together with the assertions.
  /// Empty when the assertions alone are unsat. Not necessarily minimal.
  virtual std::vector<unsigned> unsatCore() = 0;

  /// Why the last check returned Unknown: the backend's recorded error,
  /// else its own reason (for Z3 e.g. "timeout" or "canceled"). Empty after
  /// a Sat or Unsat result.
  virtual std::string reasonUnknown() = 0;

  /// True when the final Boolean assignment of the last check, which must
  /// have been Sat, set \p BoolConst (a Bool TermOp::Const term) to true. A
  /// constant the assignment leaves unassigned (or that the backend's
  /// preprocessing removed) reads false. This is a heuristic read of the
  /// search state, not a model value: it may disagree with modelBool, and
  /// it builds no model. The stratified engine picks its frontier with it.
  virtual bool assignedTrue(TermRef BoolConst) = 0;

  /// Model access; valid only directly after a Sat result (no assertTerm or
  /// check in between). The model is built on the first access after that
  /// result, so a run that never reads it pays nothing for it. \p ConstTerm
  /// must be a TermOp::Const term. Unconstrained constants yield an
  /// arbitrary value of their sort.
  virtual bool modelBool(TermRef ConstTerm) = 0;
  /// Exact decimal numeral of an Int or bit-vector value (bit-vectors
  /// unsigned), whatever its magnitude.
  virtual std::string modelNumeral(TermRef ConstTerm) = 0;

  /// Number of check() calls made so far.
  unsigned numChecks() const { return NumChecks; }

  /// Number of assertTerm() calls made so far.
  unsigned numAsserts() const { return NumAsserts; }

protected:
  unsigned NumChecks = 0;
  unsigned NumAsserts = 0;
};

} // namespace rmt

#endif // RMT_SMT_SOLVER_H
