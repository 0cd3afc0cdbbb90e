//===- Engine.h - Eager, stratified and DAG-inlining engines ----*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reachability engines of Section 4:
///
///  * Eager     — inline every open edge up front (tree unless a merging
///                strategy is given), then one solver call. This is the
///                CBMC-style baseline of Fig. 3.
///  * Stratified— Corral's stratified inlining: keep open edges as havoc
///                summaries; alternate an under-approximate check (all open
///                edges blocked — SAT means a real bug) with an
///                over-approximate check (open edges free — UNSAT means
///                safe, SI's early stop). With the NONE strategy this is SI;
///                with any merging strategy it is DI ("We implemented DAG
///                inlining using the framework of SI").
///
/// The stratified frontier rule (§4's footnote: every such policy is a
/// heuristic). An unsat under-approximate check yields an unsat core, a
/// subset of its blocked ¬Control[e] assumptions. An empty core proves the
/// formula unsat with no edge blocked, so the run ends Safe with no
/// over-approximate check. Otherwise the over-approximate check runs; on
/// SAT the engine inlines, in open-edge order, the union of the open edges
/// the solver's assignment enters and the open edges named in the core.
/// The assignment is the SAT search's final Boolean assignment
/// (Solver::assignedTrue), read without building a model; only a Bug trace
/// reads a model. The assignment keeps the search aimed at bugs; the core
/// inlines what the refutation depends on, which cuts iterations on safe
/// programs and keeps every frontier non-empty.
///
/// Both engines, and every size-only caller (Figs. 4/17, --dump-dag), grow
/// the inlining DAG through one Inliner: Gen_VC's "pick compatible n, else
/// Gen_pVC, then bind" loop (Fig. 8 lines 17–30). The engine owns the
/// TermArena, the solver and the Inliner, and reports the statistics the
/// paper's tables use (#inlined, times, solver calls, merge-lookup
/// overhead).
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_ENGINE_H
#define RMT_CORE_ENGINE_H

#include "core/Strategies.h"
#include "core/VcGen.h"
#include "smt/Solver.h"
#include "support/Stats.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <optional>
#include <string>

namespace rmt {

/// Gen_VC's bookkeeping (Fig. 8 lines 17–30) over one VcContext: owns the
/// DisjointAnalysis, the ConsistencyChecker and the merging strategy, and
/// keeps them in lock-step with genPvc/bindEdge. Building one creates the
/// root instance (node 0).
class Inliner {
public:
  /// How resolve() bound an open edge.
  struct Binding {
    NodeId Node = InvalidNode;
    /// True when Node already existed (a merge), false for a fresh Gen_pVC.
    bool Merged = false;
    /// Disj_blk lookups the pick made.
    uint64_t DisjQueries = 0;
    /// Wall time of the strategy's pick.
    double LookupSeconds = 0;
  };

  /// \p Sink and \p Mode are passed to the VcContext (see VcContext).
  Inliner(const AstContext &Ctx, const CfgProgram &Prog, ProcId Root,
          TermArena &Arena, const StrategyOptions &Opts,
          std::function<void(TermRef)> Sink = {},
          PvcMode Mode = PvcMode::Paper);
  // The checker and the strategy refer to Vc: never copy or move.
  Inliner(const Inliner &) = delete;
  Inliner &operator=(const Inliner &) = delete;

  /// Resolves open edge \p C (lines 20–25): binds it to the node the
  /// strategy picks, else to a fresh instance of its callee.
  Binding resolve(EdgeId C);

  /// Resolves open edges first-in-first-out until none is left. Returns
  /// false, leaving edges open, once more than \p MaxNodes instances exist
  /// (the engine's MaxInlined rule).
  bool inlineAll(size_t MaxNodes);

  const VcContext &vc() const { return Vc; }
  const ConsistencyChecker &checker() const { return Checker; }

private:
  VcContext Vc;
  DisjointAnalysis Disj;
  ConsistencyChecker Checker;
  std::unique_ptr<MergeStrategy> Strategy;
};

/// Outcome of one engine run.
enum class Verdict {
  Bug,         ///< a terminating execution reaching the error bit exists
  Safe,        ///< no such execution within the bound
  Timeout,     ///< wall-clock budget exhausted (paper's #TO)
  ResourceOut, ///< inlining limit exceeded (paper's spaceout)
  Unknown,     ///< solver gave up
};

/// Printable name of \p V.
const char *verdictName(Verdict V);

/// One step of a counterexample trace.
struct TraceStep {
  ProcId Proc = InvalidProc;
  LabelId Label = InvalidLabel;
  SrcLoc Loc;
  /// Model value of each global (aligned with CfgProgram::Globals) at this
  /// label's entry: "true"/"false", an exact decimal numeral for Int and
  /// bit-vector globals, empty for arrays (not rendered).
  std::vector<std::string> GlobalValues;
};

/// Result and statistics of one engine run.
struct VerifyResult {
  Verdict Outcome = Verdict::Unknown;
  double Seconds = 0;
  /// Gen_pVC invocations — the paper's "#Inlined".
  size_t NumInlined = 0;
  /// Open-edge bindings that reused an existing node.
  size_t NumMerged = 0;
  size_t NumSolverChecks = 0;
  /// NumSolverChecks split by check kind: under-approximate (all open edges
  /// blocked; the eager engine's single exact check counts here — it has no
  /// open edges left) vs over-approximate (open edges free).
  size_t NumUnderChecks = 0;
  size_t NumOverChecks = 0;
  /// Wall time spent inside Solver::check across all checks.
  double SolverSeconds = 0;
  size_t NumIterations = 0;
  /// Wall time spent inside strategy picks (the paper reports 0.4% for
  /// FIRST).
  double MergeLookupSeconds = 0;
  uint64_t NumDisjQueries = 0;
  /// Sum of the unsat-core sizes of the unsat under-approximate checks.
  size_t NumCoreEdges = 0;
  /// Frontier edges inlined only because a core named them (the
  /// over-approximate check's assignment did not enter them).
  size_t NumCoreOnly = 0;
  /// On Timeout, ResourceOut or Unknown: why the run is undecided (the
  /// exhausted budget or inline limit, the solver's reason for giving up,
  /// or a front-end error). Empty otherwise.
  std::string Reason;
  /// On Safe: what proved it. "invariants" when the +Inv interval analysis
  /// proved the query before any engine work (verifyProgram); otherwise the
  /// engine's last check: "empty_core", "over_unsat" or "fully_inlined".
  /// Empty otherwise.
  std::string Proof;
  /// On Bug: an error trace (pre-order over the inlining structure).
  std::vector<TraceStep> Trace;

  /// Records everything above (minus the trace) into \p S under "engine.*"
  /// keys, for --stats/--stats-json style reporting.
  void record(Stats &S) const;
};

/// Engine configuration.
struct EngineOptions {
  /// Merging strategy. None = tree inlining (plain SI / eager tree).
  StrategyOptions Strategy;
  /// pVC generation mode: the passified variant, or the paper's literal
  /// Gen_pVC (the Fig. 8 reproduction and differential oracle; see PvcMode).
  PvcMode Pvc = PvcMode::Passified;
  /// Wall-clock budget; <= 0 disables.
  double TimeoutSeconds = 0;
  /// Eager mode: fully inline before the single solver call.
  bool Eager = false;
  /// Abort with ResourceOut past this many inlined instances.
  size_t MaxInlined = 1u << 20;
  /// Optional event recorder (see support/Trace.h). The engine emits
  /// per-iteration spans, under-/over-approximate check spans (an unsat
  /// under check notes its core size, a Sat over check the number of open
  /// edges its assignment enters), one instant event per inline/merge
  /// decision, and a final verdict event (with the proof behind a Safe
  /// verdict, VerifyResult::Proof, and the reason for an undecided one;
  /// each empty otherwise). Null or disabled costs one branch per site.
  rmt::Trace *Telemetry = nullptr;
};

/// Decides the reachability query "does \p Entry have a terminating
/// execution in which global \p ErrGlobal is true on exit?" over the
/// hierarchical program \p Prog. When \p ErrGlobal is nullopt the query is
/// plain termination reachability (Definition 1).
VerifyResult solveReachability(const AstContext &Ctx, const CfgProgram &Prog,
                               ProcId Entry, std::optional<Symbol> ErrGlobal,
                               const EngineOptions &Opts);

} // namespace rmt

#endif // RMT_CORE_ENGINE_H
