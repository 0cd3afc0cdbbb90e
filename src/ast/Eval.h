//===- Eval.h - Concrete reference interpreter ------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small-step concrete interpreter over the structured AST. It resolves
/// every source of nondeterminism (initial globals, locals, havoc, `*`
/// guards) from a seeded RNG and reports whether the run violated an
/// assertion, got blocked by an assume, or completed. Integer arithmetic is
/// the unbounded SMT-LIB semantics computed through the literal-fold kernel
/// (ast/Ops.h); a result outside int64 ends the run as Overflow rather than
/// wrapping, so the oracle never reports a verdict the solver would not.
///
/// This is the differential-testing oracle: any concretely failing run whose
/// loop iteration counts and recursion depth fit inside the engines' bound R
/// must make every engine (eager / SI / DI, any merging strategy) report the
/// bug; and when an engine proves an instance safe, no seed may produce a
/// failing run within the bound.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_AST_EVAL_H
#define RMT_AST_EVAL_H

#include "ast/AstContext.h"
#include "ast/Stmt.h"

#include <cstdint>

namespace rmt {

/// Knobs for one interpreter run.
struct EvalOptions {
  uint64_t Seed = 0;
  /// Statement budget; exceeding it yields Outcome OutOfFuel.
  unsigned MaxSteps = 200000;
  /// Nondeterministic integers are drawn uniformly from [IntLo, IntHi].
  int64_t IntLo = -8;
  int64_t IntHi = 8;
};

/// Terminal state of an interpreter run.
enum class EvalOutcome {
  Completed,    ///< entry procedure returned, all assertions held
  AssertFailed, ///< some assertion evaluated to false
  Blocked,      ///< an assume evaluated to false (the run "does not exist")
  OutOfFuel,    ///< exceeded MaxSteps
  Overflow,     ///< an int result left int64; the run abstains
};

/// Result of one interpreter run, including the bound profile of the trace.
struct EvalResult {
  EvalOutcome Outcome = EvalOutcome::Completed;
  /// Largest iteration count any single entry into a loop performed.
  unsigned MaxLoopIterations = 0;
  /// Largest number of frames of the same procedure simultaneously on the
  /// call stack (1 = no recursion observed).
  unsigned MaxRecursionDepth = 0;
  /// Location of the violated assertion, when Outcome == AssertFailed.
  SrcLoc FailedAssertLoc;
};

/// Runs \p Entry of \p Prog once under \p Opts. The program must be resolved
/// and type-checked (all expressions typed).
EvalResult evaluate(const AstContext &Ctx, const Program &Prog, Symbol Entry,
                    const EvalOptions &Opts);

} // namespace rmt

#endif // RMT_AST_EVAL_H
