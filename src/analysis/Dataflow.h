//===- Dataflow.h - Generic worklist dataflow over CfgProgram ---*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small generic dataflow framework over the paper's label form, plus the
/// static-analysis prepass built on top of it.
///
/// Hierarchical programs have acyclic intraprocedural flow graphs, so every
/// monotone analysis converges in a single pass over a topological order.
/// The solver is still a worklist algorithm (it re-enqueues on change), which
/// keeps it correct on any graph and makes the acyclic case exactly one visit
/// per label.
///
/// Analyses plug in as a type with:
///
///   using Value = ...;                       // the lattice
///   static constexpr FlowDirection Direction;
///   Value bottom() const;                    // join identity ("unreachable")
///   Value boundary() const;                  // entry (fwd) / exit (bwd) state
///   bool join(Value &Into, const Value &From) const;  // true if Into grew
///   Value transfer(LabelId L, const CfgStmt &S, const Value &X) const;
///
/// For a forward analysis, pre(L) is the join over predecessors' post states
/// (boundary at the procedure entry) and post(L) = transfer(pre(L)). For a
/// backward analysis the roles flip: post(L) joins the successors' pre states
/// (boundary at exit labels, i.e. labels with no successors) and
/// pre(L) = transfer(post(L)). Pre/post are always named in *program* order.
///
/// On top of the framework this header exposes the verification prepass
/// entry point runPrepass() and the structural passes it shares: skip-chain
/// compaction and dead-procedure elimination. Value numbering lives in
/// Gvn.h, cone-of-influence slicing in Slicer.h.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_DATAFLOW_H
#define RMT_ANALYSIS_DATAFLOW_H

#include "ast/AstContext.h"
#include "cfg/Cfg.h"
#include "support/Stats.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace rmt {

class Trace;

//===----------------------------------------------------------------------===//
// Flow-graph view
//===----------------------------------------------------------------------===//

/// Per-procedure view of the intraprocedural flow graph: predecessor lists,
/// a dense label index, and a topological order (entry-first).
class ProcFlow {
public:
  ProcFlow(const CfgProgram &Prog, ProcId P);

  ProcId proc() const { return P; }
  LabelId entry() const { return Entry; }
  size_t size() const { return Topo.size(); }

  /// Labels in topological order of the flow graph.
  const std::vector<LabelId> &topo() const { return Topo; }

  unsigned indexOf(LabelId L) const { return Index.at(L); }
  const std::vector<LabelId> &preds(LabelId L) const {
    return Preds[indexOf(L)];
  }
  const std::vector<LabelId> &succs(LabelId L) const {
    return Prog.label(L).Targets;
  }

  const CfgProgram &program() const { return Prog; }

private:
  const CfgProgram &Prog;
  ProcId P;
  LabelId Entry;
  std::vector<LabelId> Topo;
  std::unordered_map<LabelId, unsigned> Index;
  std::vector<std::vector<LabelId>> Preds;
};

/// Direction of a dataflow analysis.
enum class FlowDirection { Forward, Backward };

//===----------------------------------------------------------------------===//
// Worklist solver
//===----------------------------------------------------------------------===//

template <typename Analysis> class DataflowSolver {
public:
  using Value = typename Analysis::Value;

  DataflowSolver(const ProcFlow &Flow, const Analysis &A) : Flow(Flow), A(A) {}

  void solve() {
    constexpr bool Fwd = Analysis::Direction == FlowDirection::Forward;
    size_t N = Flow.size();
    Pre.assign(N, A.bottom());
    Post.assign(N, A.bottom());

    // Seed in solve order: one visit per label suffices on acyclic graphs.
    std::deque<LabelId> Work(Flow.topo().begin(), Flow.topo().end());
    if (!Fwd)
      std::reverse(Work.begin(), Work.end());
    std::vector<char> Queued(N, 1);

    while (!Work.empty()) {
      LabelId L = Work.front();
      Work.pop_front();
      unsigned I = Flow.indexOf(L);
      Queued[I] = 0;
      const CfgStmt &S = Flow.program().label(L).Stmt;

      if (Fwd) {
        Value In = L == Flow.entry() ? A.boundary() : A.bottom();
        for (LabelId P : Flow.preds(L))
          A.join(In, Post[Flow.indexOf(P)]);
        Pre[I] = std::move(In);
        Value Out = A.transfer(L, S, Pre[I]);
        if (A.join(Post[I], Out))
          for (LabelId T : Flow.succs(L))
            enqueue(Work, Queued, T);
      } else {
        Value Out = Flow.succs(L).empty() ? A.boundary() : A.bottom();
        for (LabelId T : Flow.succs(L))
          A.join(Out, Pre[Flow.indexOf(T)]);
        Post[I] = std::move(Out);
        Value In = A.transfer(L, S, Post[I]);
        if (A.join(Pre[I], In))
          for (LabelId P : Flow.preds(L))
            enqueue(Work, Queued, P);
      }
    }
  }

  /// State before the label's statement executes.
  const Value &pre(LabelId L) const { return Pre[Flow.indexOf(L)]; }
  /// State after the label's statement executes.
  const Value &post(LabelId L) const { return Post[Flow.indexOf(L)]; }

private:
  void enqueue(std::deque<LabelId> &Work, std::vector<char> &Queued,
               LabelId L) {
    unsigned I = Flow.indexOf(L);
    if (!Queued[I]) {
      Queued[I] = 1;
      Work.push_back(L);
    }
  }

  const ProcFlow &Flow;
  const Analysis &A;
  std::vector<Value> Pre;
  std::vector<Value> Post;
};

//===----------------------------------------------------------------------===//
// Shared utilities
//===----------------------------------------------------------------------===//

/// Collects every variable occurring in \p E into \p Out.
void collectExprVars(const Expr *E, std::set<Symbol> &Out);

/// Transitive may-effect summary of a procedure on the globals.
struct ProcEffects {
  std::unordered_set<Symbol> ModGlobals; ///< globals possibly written
  std::unordered_set<Symbol> UseGlobals; ///< globals possibly read
};

/// Bottom-up (callees-first) may-mod/may-use sets over the acyclic call
/// graph, indexed by ProcId.
std::vector<ProcEffects> computeProcEffects(const CfgProgram &Prog);

//===----------------------------------------------------------------------===//
// The verification prepass
//===----------------------------------------------------------------------===//

/// The default prepass pipeline (see PassManager.h for the passes).
inline constexpr const char *DefaultPrepassPasses = "gvn,slice,splice,deadproc";

/// Prepass configuration: one pipeline spec plus pipeline-level knobs.
struct PrepassOptions {
  /// Append interval-invariant injection (the paper's +Inv) as the last
  /// pass. Off by default; the verifier sets it from
  /// VerifierOptions::UseInvariants.
  bool Invariants = false;
  /// Comma-separated pipeline spec, e.g. "gvn,slice". Empty runs no pass
  /// (except `inv` under Invariants).
  std::string Passes = DefaultPrepassPasses;
  /// Run the structural CFG verifier (VerifyCfg.h) on the input and after
  /// every pass; any violation aborts the pipeline. Also enabled by the
  /// RMT_VERIFY_EACH environment variable (CI runs Debug tests with it).
  bool VerifyEach = false;
  /// Dump the program to stderr after every pass that changed it.
  bool PrintAfterAll = false;
  /// Optional event recorder (support/Trace.h): the pipeline runs under a
  /// "prepass.pipeline" span with per-pass child spans.
  Trace *Telemetry = nullptr;

  /// The pipeline this configuration runs: Passes, then `inv` under
  /// Invariants.
  std::string spec() const;
};

/// What the prepass did, for Stats and reporting.
struct PrepassReport {
  size_t LabelsBefore = 0, LabelsAfter = 0;
  size_t ProcsBefore = 0, ProcsAfter = 0;
  /// Statements the slicer reduced to skips (plus havoc lists shrunk).
  unsigned SlicedStmts = 0;
  /// Calls to effect-free procedures elided by the slicer.
  unsigned ElidedCalls = 0;
  /// Skip labels spliced out of the flow graph.
  unsigned SplicedLabels = 0;
  /// Procedures removed by call-graph reachability.
  unsigned DeadProcs = 0;
  /// Subexpressions replaced by a congruent leader (a literal or a copy).
  unsigned PropagatedExprs = 0;
  /// `assume e` labels proven entailed and reduced to skips.
  unsigned RedundantAssumes = 0;
  /// `assume e` labels no execution passes, sharpened to `assume false`
  /// with their successors cut.
  unsigned ContradictedAssumes = 0;
  /// Invariant conjuncts injected by the inv pass (0 without +Inv).
  unsigned InvariantConjuncts = 0;
  /// Lint-audit pass: assignments no later statement can observe — residual
  /// dead stores the transforming passes left behind (read-only diagnostic).
  unsigned AuditDeadStores = 0;
  /// Lint-audit pass: labels unreachable from their procedure's entry.
  unsigned AuditUnreachableLabels = 0;
  /// Structural-verifier diagnostics (--verify-each) or a pipeline
  /// configuration error; nonempty means the pipeline aborted early and the
  /// program must not be trusted.
  std::vector<std::string> PipelineErrors;

  bool ok() const { return PipelineErrors.empty(); }

  /// Records every counter into \p S under "prepass.*" keys.
  void record(Stats &S) const;
  /// One-line human-readable summary.
  std::string str() const;
};

/// Deletes labels with KeepLabel[L] == false, renumbering labels and
/// filtering target lists. Entry labels of every procedure must be kept.
/// Returns the number of labels removed.
unsigned compactLabels(CfgProgram &Prog, const std::vector<bool> &KeepLabel);

/// Removes procedures unreachable from \p Root in the call graph (and their
/// labels), renumbering ProcIds. Updates \p Root. Returns procedures removed.
unsigned dropDeadProcs(CfgProgram &Prog, ProcId &Root);

/// Splices `assume true` labels out of every flow graph (fast-forwarding
/// entries, short-circuiting skip chains, and collapsing skip-only returns),
/// then removes labels no longer reachable from their procedure entry.
/// Returns the number of labels removed.
unsigned spliceSkips(CfgProgram &Prog);

/// Runs the prepass pipeline Opts.spec() on \p Prog rooted at \p Root. The
/// default is
///
///   GVN (propagation, assume pruning)  →  query slicing  →  skip splicing
///   →  dead-procedure elimination
///
/// executed through the pass manager (PassManager.h), which times each pass
/// into \p S (when given) and re-verifies the structural invariants after
/// each pass when Opts.VerifyEach is set.
///
/// \p ErrGlobal is the reachability query variable ($err); when nullopt the
/// query is plain termination reachability and only control-flow-relevant
/// variables are kept. \p Root is updated if procedures are renumbered.
/// Every transformation is verdict-preserving: the pruned program has a
/// terminating $err-execution iff the original does, and every surviving
/// counterexample is a counterexample of the original. Check
/// PrepassReport::ok() — a pipeline configuration error or verifier failure
/// leaves diagnostics in PipelineErrors.
PrepassReport runPrepass(AstContext &Ctx, CfgProgram &Prog, ProcId &Root,
                         std::optional<Symbol> ErrGlobal,
                         const PrepassOptions &Opts = {},
                         Stats *S = nullptr);

} // namespace rmt

#endif // RMT_ANALYSIS_DATAFLOW_H
