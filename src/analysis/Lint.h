//===- Lint.h - HBPL lint diagnostics ---------------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lint pass over checked HBPL programs, reporting through DiagEngine and
/// a structured report:
///
///  * use-before-def (error) — a local or return variable read on some path
///    before any assignment, havoc, or call result reaches it, i.e. a read
///    of garbage the program never chose to make nondeterministic;
///  * havoc of undeclared variables (error) — the program is malformed;
///  * unreachable code (warning) — statements no control-flow path from the
///    procedure entry reaches (e.g. code after `return`);
///  * dead stores (warning) — assignments to locals whose value no later
///    statement can read.
///
/// Error-severity findings make `hbpl_verify --lint` exit nonzero (exit
/// code 2), so the lint gate is scriptable in CI.
///
/// The pass reuses the verification front half: asserts become empty
/// branches (so their conditions still count as reads), loops are unrolled a
/// couple of times (so loop-carried definitions are seen), and the analyses
/// from Dataflow.h run on the lowered label form. Statement copies produced
/// by unrolling are reconciled by source location: a statement is flagged
/// unreachable or dead only when *every* copy is, and flagged use-before-def
/// when *any* copy is.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_LINT_H
#define RMT_ANALYSIS_LINT_H

#include "ast/AstContext.h"
#include "ast/Stmt.h"
#include "support/Diag.h"

#include <string>
#include <vector>

namespace rmt {

/// Which check produced a finding.
enum class LintCheck {
  UseBeforeDef,
  UnreachableCode,
  DeadStore,
  UndeclaredHavoc,
};

/// Severity of a finding. Errors gate the CLI's exit code; warnings are
/// advisory.
enum class LintSeverity { Error, Warning };

/// Severity a check carries (use-before-def and undeclared havocs are
/// errors; unreachable code and dead stores are warnings).
LintSeverity lintSeverityOf(LintCheck Check);

/// One deduplicated finding, in source order.
struct LintFinding {
  LintCheck Check;
  LintSeverity Severity;
  SrcLoc Loc;
  std::string Message;
};

/// Structured lint results: the findings themselves plus per-category counts.
struct LintReport {
  std::vector<LintFinding> Findings;

  unsigned UseBeforeDef = 0;
  unsigned UnreachableCode = 0;
  unsigned DeadStores = 0;
  unsigned UndeclaredHavocs = 0;

  unsigned total() const {
    return UseBeforeDef + UnreachableCode + DeadStores + UndeclaredHavocs;
  }
  unsigned errors() const { return UseBeforeDef + UndeclaredHavocs; }
  unsigned warnings() const { return UnreachableCode + DeadStores; }
  bool hasErrors() const { return errors() != 0; }
};

/// Lints \p Prog (which must be type-checked), returning the structured
/// report and mirroring every finding into \p Diags at its severity, in
/// source order per check.
LintReport lintProgram(AstContext &Ctx, const Program &Prog,
                       DiagEngine &Diags);

} // namespace rmt

#endif // RMT_ANALYSIS_LINT_H
