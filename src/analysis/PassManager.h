//===- PassManager.h - Registered CFG passes and pipelines ------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass-manager layer over the lowered label form. Every prepass
/// transformation is a registered `Pass` with a stable name, so pipelines can
/// be assembled from CLI strings (`--passes gvn,slice,splice`), timed and
/// counted per pass, printed after every step (`--print-after-all`), and
/// re-verified against the Fig. 7 structural invariants after every step
/// (`--verify-each`, see VerifyCfg.h) — the discipline LLVM's pass manager
/// and Boogie's `/trace` stack apply to their own IRs.
///
/// Builtin passes (registration order; the first four, in this order, are
/// the default pipeline DefaultPrepassPasses):
///
///   gvn      — value numbering: copy/expression propagation, literal
///              folding, entailed assumes to skips, and assumes no execution
///              passes to `assume false` with their successors cut (Gvn.h)
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
/// `--no-prepass` is the empty spec, and +Inv appends `inv`.
///
/// Passes mutate the program through a PassContext and accumulate their
/// reduction counters into the shared PrepassReport (Dataflow.h), which keeps
/// the one-line summary and "prepass.*" stats keys stable across the
/// refactor.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_PASSMANAGER_H
#define RMT_ANALYSIS_PASSMANAGER_H

#include "analysis/Dataflow.h"
#include "ast/AstContext.h"
#include "cfg/Cfg.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <memory>
#include <optional>
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
class Pass {
public:
  virtual ~Pass() = default;
  /// Registry key and CLI spelling.
  virtual std::string_view name() const = 0;
  /// One-line description for --list-passes.
  virtual std::string_view description() const = 0;
  /// Runs the pass; returns true when the program changed.
  virtual bool run(PassContext &PC) = 0;
};

/// Process-wide pass factory registry. Builtins self-register on first use;
/// tests may register additional passes.
class PassRegistry {
public:
  using Factory = std::unique_ptr<Pass> (*)();

  static PassRegistry &instance();

  /// Registers \p Make under \p Name; later registrations win (tests shadow
  /// builtins).
  void registerPass(std::string_view Name, Factory Make);

  /// Instantiates the pass registered under \p Name; null when unknown.
  std::unique_ptr<Pass> create(std::string_view Name) const;

  /// Registered names in registration order (builtins first).
  std::vector<std::string> names() const;

private:
  std::vector<std::pair<std::string, Factory>> Factories;
};

/// Pipeline-wide execution knobs.
struct PipelineOptions {
  /// Run verifyCfg on the input and after every pass; a violation aborts the
  /// pipeline with the offending pass named in the diagnostics.
  bool VerifyEach = false;
  /// Dump the program to stderr after every pass that changed it.
  bool PrintAfterAll = false;
  /// Optional event recorder: each pass runs under a "pass.<name>" span so
  /// pipeline time and solver time land on one timeline (support/Trace.h).
  Trace *Telemetry = nullptr;
};

/// An ordered list of passes plus the runner. Move-only (owns the passes).
class PassPipeline {
public:
  PassPipeline() = default;
  PassPipeline(PassPipeline &&) = default;
  PassPipeline &operator=(PassPipeline &&) = default;

  void append(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }
  size_t size() const { return Passes.size(); }
  bool empty() const { return Passes.empty(); }

  /// "gvn,slice,splice" — parseable back via parse().
  std::string str() const;

  /// Runs every pass in order. Per-pass wall time and change counters land in
  /// \p S (when given) under "pass.<name>.seconds" / ".runs" / ".changed".
  /// Returns structural-verifier diagnostics (empty on success); with
  /// VerifyEach set, the first failing pass stops the pipeline.
  std::vector<std::string> run(PassContext &PC,
                               const PipelineOptions &Opts = {},
                               Stats *S = nullptr) const;

  /// Parses a comma-separated pass list against the registry. Returns
  /// nullopt and sets \p Error on an unknown pass name.
  static std::optional<PassPipeline> parse(std::string_view Spec,
                                           std::string *Error = nullptr);

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

} // namespace rmt

#endif // RMT_ANALYSIS_PASSMANAGER_H
