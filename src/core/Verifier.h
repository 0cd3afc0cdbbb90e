//===- Verifier.h - End-to-end bounded verification API ---------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public one-call API: take a (possibly loopy, recursive) checked
/// program with assertions, a bound R, an engine configuration, and decide
/// whether an assertion can fail within the bound. Composes the whole
/// pipeline:
///
///   unroll(R) → unfold(R) → error-bit instrumentation → CFG lowering
///   → [interval-invariant injection]  → eager / SI / DI engine.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_VERIFIER_H
#define RMT_CORE_VERIFIER_H

#include "analysis/Dataflow.h"
#include "core/Engine.h"

#include <string>

namespace rmt {

/// End-to-end options.
struct VerifierOptions {
  /// Loop-iteration / recursion-depth bound R.
  unsigned Bound = 2;
  /// Run the interval-invariant prepass ("+Inv" of Section 4).
  bool UseInvariants = false;
  /// Run the static-analysis prepass pipeline (Prepass.Passes, by default
  /// GVN, query slicing, skip splicing, dead-procedure elimination) on the
  /// lowered program before the engine. On by default; --no-prepass in the
  /// CLI empties the pipeline spec. With UseInvariants, invariant injection
  /// runs as the pipeline's last pass, with or without the prepass. A
  /// pipeline failure (--verify-each violation or a bad --passes spec) makes
  /// the run return Verdict::Unknown with diagnostics in
  /// Prepass.PipelineErrors rather than solve a possibly-miscompiled
  /// program.
  bool UsePrepass = true;
  /// Pipeline spec and knobs (Passes is ignored when !UsePrepass).
  PrepassOptions Prepass;
  /// Engine configuration (strategy, timeout, eager mode, limits).
  EngineOptions Engine;
  /// Optional event recorder for the whole pipeline (support/Trace.h):
  /// bounding, lowering, the prepass pipeline, and the engine all record
  /// onto it. Propagated to Prepass/Engine unless those set their own.
  rmt::Trace *Telemetry = nullptr;
};

/// End-to-end result.
struct VerifierRunResult {
  VerifyResult Result;
  /// Assert statements found and instrumented.
  unsigned NumAsserts = 0;
  /// Procedures after bounding (hierarchical program size).
  size_t NumProcs = 0;
  /// Labels after bounding.
  size_t NumLabels = 0;
  /// Program size the engine actually saw (== the above when no pass ran).
  size_t NumProcsSolved = 0;
  size_t NumLabelsSolved = 0;
  /// What the prepass did (all zeros when no pass ran).
  PrepassReport Prepass;
  /// Per-pass reduction counters under "prepass.*" keys.
  Stats PrepassStats;
  /// Invariant conjuncts injected (0 without +Inv).
  unsigned InvariantConjuncts = 0;
  /// Rendered counterexample (empty unless the verdict is Bug).
  std::string TraceText;
};

/// Verifies \p Prog starting at procedure \p Entry. \p Prog must be
/// resolved/type-checked (parseAndCheck or the typed builder API). \p Ctx
/// must be the context owning \p Prog's nodes.
VerifierRunResult verifyProgram(AstContext &Ctx, const Program &Prog,
                                Symbol Entry, const VerifierOptions &Opts);

/// Corral-style bound escalation: runs verifyProgram at bounds 1, 2, 4, ...
/// up to \p MaxBound (inclusive, clamped to a power-of-two ladder plus
/// MaxBound itself), sharing one wall-clock budget
/// (Opts.Engine.TimeoutSeconds). Returns on the first Bug; a Safe verdict
/// means "safe up to MaxBound". Opts.Bound is ignored. The result's
/// ReachedBound (see below) reports the largest bound fully decided.
struct DeepeningResult {
  VerifierRunResult Last;
  /// Largest bound that produced a definite verdict.
  unsigned ReachedBound = 0;
  /// Bounds attempted (for reporting).
  std::vector<unsigned> BoundsTried;
};
DeepeningResult verifyIterativeDeepening(AstContext &Ctx,
                                         const Program &Prog, Symbol Entry,
                                         VerifierOptions Opts,
                                         unsigned MaxBound);

/// Renders a counterexample trace with procedure names and source lines.
std::string renderTrace(const AstContext &Ctx, const CfgProgram &Prog,
                        const std::vector<TraceStep> &Trace);

} // namespace rmt

#endif // RMT_CORE_VERIFIER_H
