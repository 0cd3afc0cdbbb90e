//===- Z3Solver.h - Z3 backend ----------------------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Solver backend over the Z3 C API (the same solver the paper's stack —
/// Corral/Boogie — bottoms out in). Uses the C API rather than z3++ so the
/// library stays exception-free. Z3 errors surface as Unknown results, and
/// Unknown is final: after a Z3 error or a check that gave up, every later
/// check on that solver returns Unknown with the first reason.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_SMT_Z3SOLVER_H
#define RMT_SMT_Z3SOLVER_H

#include "smt/Solver.h"

#include <memory>

namespace rmt {

class Trace;

/// Creates a Z3-backed solver over \p Arena. The arena must outlive the
/// solver. Each solver owns a private Z3 context holding one plain
/// incremental solver (Z3's SMT kernel, with no tactic front end); each
/// check sets its deadline on that context, so a budget never outlives its
/// check. When \p Telemetry is given (and enabled), every check() records
/// a "z3.check_sat" span with the assertion/assumption counts, its deadline
/// (timeout_ms), the conflicts and decisions of its own search, and the
/// result, and a model built on first access after a Sat check records one
/// "z3.get_model" span. assignedTrue reads Z3's trail (the SMT kernel's
/// final Boolean assignment) and builds no model.
std::unique_ptr<Solver> createZ3Solver(const TermArena &Arena,
                                       Trace *Telemetry = nullptr);

} // namespace rmt

#endif // RMT_SMT_Z3SOLVER_H
