//===- PassManager.h - The prepass pass table and runner --------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass layer over the lowered label form. Every prepass transformation
/// is one entry of a constant table (BuiltinPasses) with a stable name, so
/// pipelines can be assembled from CLI strings (`--passes slice,splice`)
/// by parsePassSpec() and run by one loop, runPasses(), which times and
/// counts each pass, prints the program after every step
/// (`--print-after-all`), and re-verifies it against the Fig. 7 structural
/// invariants after every step (`--verify-each`, see VerifyCfg.h) — the
/// discipline LLVM's pass manager and Boogie's `/trace` stack apply to their
/// own IRs.
///
/// Builtin passes (table order; the first three, in this order, are the
/// default pipeline DefaultPrepassPasses):
///
///   slice    — cone-of-influence query slicing (Slicer.h)
///   splice   — splice `assume true` skip labels out of the flow graph and
///              sweep labels unreachable from their procedure's entry
///   deadproc — drop procedures unreachable from the root
///   lint     — read-only audit of residual dead stores and unreachable
///              labels; not part of the default pipeline (the AST-level
///              `--lint` hygiene checks live in Lint.h — this pass audits
///              what the transforming passes left behind)
///   inv      — interval-invariant injection (InvariantGen.h); not part of
///              the default pipeline, appended by +Inv configurations
///
/// The prepass is configured by one spec string (PrepassOptions::Passes):
/// `--no-prepass` is the empty spec, and +Inv appends `inv`. runPrepass()
/// (Dataflow.h) parses that spec against the table and runs it; tests run a
/// fake pass by parsing against a table of their own.
///
/// Passes mutate the program through a PassContext and accumulate their
/// reduction counters into the shared PrepassReport (Dataflow.h), which keeps
/// the one-line summary and "prepass.*" stats keys stable.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_PASSMANAGER_H
#define RMT_ANALYSIS_PASSMANAGER_H

#include "analysis/Dataflow.h"
#include "ast/AstContext.h"
#include "cfg/Cfg.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rmt {

/// Everything a pass may touch. Root is a reference: passes that renumber
/// procedures (deadproc) update the caller's root id.
struct PassContext {
  AstContext &Ctx;
  CfgProgram &Prog;
  ProcId &Root;
  std::optional<Symbol> ErrGlobal;
  PrepassReport &Report;
};

/// A verdict-preserving transformation over the lowered program.
struct PassInfo {
  /// CLI spelling.
  std::string_view Name;
  /// One-line description for --list-passes.
  std::string_view Description;
  /// Runs the pass; returns true when the program changed.
  bool (*Run)(PassContext &PC);
};

/// The builtin passes, in default-pipeline order (see the file comment).
extern const std::span<const PassInfo> BuiltinPasses;

/// Parses a comma-separated pass list against \p Table; blanks around names
/// and empty items are ignored. Returns nullopt and sets \p Error to
/// "unknown pass 'X' (available: ...)" on a name not in the table.
std::optional<std::vector<const PassInfo *>>
parsePassSpec(std::string_view Spec, std::string *Error = nullptr,
              std::span<const PassInfo> Table = BuiltinPasses);

/// Runs \p Pipeline in order, each pass under a "pass.<name>" span of
/// \p Telemetry. Per-pass wall time and change counters land in \p S (when
/// given) under "pass.<name>.seconds" / ".runs" / ".changed"; with
/// \p PrintAfterAll every pass that changed the program dumps it to stderr.
/// With \p VerifyEach, verifyCfg runs on the input and after every pass, and
/// the first violation stops the pipeline. Returns those diagnostics (empty
/// on success).
std::vector<std::string> runPasses(PassContext &PC,
                                   std::span<const PassInfo *const> Pipeline,
                                   bool VerifyEach, bool PrintAfterAll,
                                   Trace *Telemetry, Stats *S);

} // namespace rmt

#endif // RMT_ANALYSIS_PASSMANAGER_H
