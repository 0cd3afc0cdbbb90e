//===- PassManager.h - The prepass pass table and runner --------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass layer over the lowered label form. Every prepass transformation
/// is one entry of a constant table (BuiltinPasses) with a stable name, and
/// one loop, runPasses(), runs a list of them: it times and counts each
/// pass, prints the program after every step (`--print-after-all`), and
/// re-verifies it against the Fig. 7 structural invariants after every step
/// (`--verify-each`, see VerifyCfg.h) — the discipline LLVM's pass manager
/// and Boogie's `/trace` stack apply to their own IRs.
///
/// Builtin passes, in table order, which is the one prepass sequence:
///
///   slice    — cone-of-influence query slicing (Slicer.h)
///   splice   — splice `assume true` skip labels out of the flow graph and
///              sweep labels unreachable from their procedure's entry
///   deadproc — drop procedures unreachable from the root
///   inv      — interval-invariant injection (InvariantGen.h), the paper's
///              +Inv; runs only under PrepassOptions::Invariants
///
/// runPrepass() (Dataflow.h) runs prepassPipeline(); tests run other lists,
/// and fake passes, through runPasses() directly.
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
  /// Name in spans and "pass.<name>.*" stats keys.
  std::string_view Name;
  /// Runs the pass; returns true when the program changed.
  bool (*Run)(PassContext &PC);
};

/// The builtin passes, in pipeline order with `inv` last (see the file
/// comment).
extern const std::span<const PassInfo> BuiltinPasses;

/// The passes runPrepass runs: the structural passes, then `inv` when
/// \p Invariants is set.
std::span<const PassInfo> prepassPipeline(bool Invariants);

/// The names of \p Passes, comma-separated ("slice,splice,deadproc").
std::string passNames(std::span<const PassInfo> Passes);

/// Runs \p Pipeline in order, each pass under a "pass.<name>" span of
/// \p Telemetry. Per-pass wall time and change counters land in \p S (when
/// given) under "pass.<name>.seconds" / ".runs" / ".changed"; with
/// \p PrintAfterAll every pass that changed the program dumps it to stderr.
/// With \p VerifyEach, verifyCfg runs on the input and after every pass, and
/// the first violation stops the pipeline. Returns those diagnostics (empty
/// on success).
std::vector<std::string> runPasses(PassContext &PC,
                                   std::span<const PassInfo> Pipeline,
                                   bool VerifyEach, bool PrintAfterAll,
                                   Trace *Telemetry, Stats *S);

} // namespace rmt

#endif // RMT_ANALYSIS_PASSMANAGER_H
