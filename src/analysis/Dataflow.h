//===- Dataflow.h - One-sweep dataflow over CfgProgram ---------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small generic dataflow framework over the paper's label form, plus the
/// static-analysis prepass built on top of it.
///
/// Bounding makes every program hierarchical, so every intraprocedural flow
/// graph is acyclic (CfgProgram::topoOrder asserts it) and one sweep over a
/// topological order reaches the fixpoint: a forward solve visits each label
/// after all of its predecessors, a backward solve after all of its
/// successors. There is no worklist and no edge array; the sweep reads each
/// label's successor list (CfgLabel::Targets) directly.
///
/// Analyses plug in as a type with:
///
///   using Value = ...;                       // the lattice
///   static constexpr FlowDirection Direction;
///   Value bottom() const;                    // join identity ("unreachable")
///   Value boundary() const;                  // entry (fwd) / exit (bwd) state
///   void join(Value &Into, const Value &From) const;  // Into ⊔= From
///   void transfer(LabelId L, const CfgStmt &S, Value &X) const;  // in place
///
/// For a forward analysis, pre(L) is the join over predecessors' post states
/// (and the boundary at the procedure entry) and post(L) = transfer(pre(L)).
/// For a backward analysis the roles flip: post(L) joins the successors' pre
/// states (boundary at exit labels, i.e. labels with no successors) and
/// pre(L) = transfer(post(L)). Pre/post are always named in *program* order.
/// transfer rewrites its input state into its output state, so a solver
/// reused across solves keeps its values' storage and allocates little.
///
/// On top of the framework this header exposes the dense variable numbering
/// with per-label read and write sets (VarSlots) and the global effect
/// summaries built on it, the verification prepass entry point runPrepass()
/// and the structural passes it shares: skip-chain compaction and
/// dead-procedure elimination. Cone-of-influence slicing lives in Slicer.h.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_DATAFLOW_H
#define RMT_ANALYSIS_DATAFLOW_H

#include "ast/AstContext.h"
#include "cfg/Cfg.h"
#include "support/Bitset.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace rmt {

class Trace;

//===----------------------------------------------------------------------===//
// Flow-graph view
//===----------------------------------------------------------------------===//

/// Per-procedure view of the intraprocedural flow graph: a topological order
/// and each label's dense index (its position in that order). The entry need
/// not come first: an unreachable label with no predecessors can precede it.
class ProcFlow {
public:
  ProcFlow(const CfgProgram &Prog, ProcId P);

  ProcId proc() const { return P; }
  LabelId entry() const { return Entry; }
  size_t size() const { return Topo.size(); }

  /// Labels in topological order of the flow graph.
  const std::vector<LabelId> &topo() const { return Topo; }

  /// Dense index of \p L (solvers work on indices).
  unsigned indexOf(LabelId L) const {
    assert(L - Lo < Index.size() && Index[L - Lo] != ~0u &&
           "label not in procedure");
    return Index[L - Lo];
  }

  const CfgProgram &program() const { return Prog; }

private:
  const CfgProgram &Prog;
  ProcId P;
  LabelId Entry;
  std::vector<LabelId> Topo;
  /// Index[L - Lo] is L's index; ~0u for labels of other procedures. A
  /// procedure's labels need not be contiguous, so this spans [Lo, Hi].
  LabelId Lo = 0;
  std::vector<unsigned> Index;
};

/// Direction of a dataflow analysis.
enum class FlowDirection { Forward, Backward };

//===----------------------------------------------------------------------===//
// One-sweep solver
//===----------------------------------------------------------------------===//

template <typename Analysis> class DataflowSolver {
public:
  using Value = typename Analysis::Value;

  /// Solves \p A over \p Flow; pre/post then read this solve. Storage is
  /// kept from one solve to the next, so one solver reused across
  /// procedures and rounds stops allocating once it has seen the largest.
  void solve(const ProcFlow &Flow, const Analysis &A) {
    this->Flow = &Flow;
    const std::vector<LabelId> &Topo = Flow.topo();
    const CfgProgram &Prog = Flow.program();
    size_t N = Topo.size();
    if (Pre.size() < N) {
      Pre.resize(N);
      Post.resize(N);
    }
    const Value Bottom = A.bottom();

    if constexpr (Analysis::Direction == FlowDirection::Forward) {
      // Seed the entry by index, not topo()[0]: an unreachable label with
      // no predecessors can precede it.
      for (size_t I = 0; I < N; ++I)
        Pre[I] = Bottom;
      if (N != 0)
        Pre[Flow.indexOf(Flow.entry())] = A.boundary();
      for (size_t I = 0; I < N; ++I) {
        const CfgLabel &Lbl = Prog.label(Topo[I]);
        Post[I] = Pre[I];
        A.transfer(Topo[I], Lbl.Stmt, Post[I]);
        for (LabelId T : Lbl.Targets)
          A.join(Pre[Flow.indexOf(T)], Post[I]);
      }
    } else {
      for (size_t I = N; I-- > 0;) {
        const CfgLabel &Lbl = Prog.label(Topo[I]);
        if (Lbl.Targets.empty()) {
          Post[I] = A.boundary();
        } else {
          Post[I] = Bottom;
          for (LabelId T : Lbl.Targets)
            A.join(Post[I], Pre[Flow.indexOf(T)]);
        }
        Pre[I] = Post[I];
        A.transfer(Topo[I], Lbl.Stmt, Pre[I]);
      }
    }
  }

  /// State before the label's statement executes.
  const Value &pre(LabelId L) const { return Pre[Flow->indexOf(L)]; }
  /// State after the label's statement executes.
  const Value &post(LabelId L) const { return Post[Flow->indexOf(L)]; }

private:
  const ProcFlow *Flow = nullptr;
  /// The first Flow->size() entries belong to the last solve.
  std::vector<Value> Pre;
  std::vector<Value> Post;
};

//===----------------------------------------------------------------------===//
// Shared utilities
//===----------------------------------------------------------------------===//

/// Collects every variable occurring in \p E into \p Out.
void collectExprVars(const Expr *E, std::set<Symbol> &Out);

/// Dense variable numbering of a program, with every label's expressions
/// walked once into read sets. Each procedure numbers its variables into
/// slots: the globals first, at the same slot in every procedure (slot I is
/// Prog.Globals[I]), then its returns, its parameters, and every other
/// variable its labels mention. A local named like a global is the global,
/// as everywhere in the prepass. The read and write sets describe the
/// statements as they were when the numbering was built.
class VarSlots {
public:
  static constexpr uint32_t NoSlot = ~0u;
  using Slots = std::span<const uint32_t>;

  explicit VarSlots(const CfgProgram &Prog);

  const CfgProgram &program() const { return Prog; }
  unsigned numGlobals() const { return NumGlobals; }
  unsigned numSlots(ProcId P) const { return Procs[P].NumSlots; }

  /// Slot of \p V in \p P; NoSlot when P neither declares nor mentions it.
  uint32_t slot(ProcId P, Symbol V) const;
  /// Slot of the global \p V; NoSlot when it is not a global.
  uint32_t globalSlot(Symbol V) const;
  /// Slots of \p P's I-th return and parameter.
  uint32_t returnSlot(ProcId P, unsigned I) const {
    return DeclSlots[Procs[P].FirstDecl + I];
  }
  uint32_t paramSlot(ProcId P, unsigned I) const {
    return DeclSlots[Procs[P].FirstDecl + Prog.proc(P).Returns.size() + I];
  }

  /// Each variable read by expression \p I of label \p L, once: the
  /// condition of an assume or the right-hand side of an assignment (I = 0),
  /// or argument I of a call. A havoc has no expression.
  Slots reads(LabelId L, unsigned I = 0) const {
    return exprRange(Labels[L].FirstExpr + I, 1);
  }
  /// The reads of all of \p L's expressions (a variable read by two call
  /// arguments appears twice).
  Slots allReads(LabelId L) const {
    return exprRange(Labels[L].FirstExpr, Labels[L].NumExprs);
  }
  /// The variables \p L writes, in statement order: an assignment's target,
  /// a havoc's variables or a call's result bindings.
  Slots writes(LabelId L) const {
    return {WriteSlots.data() + Labels[L].FirstWrite, Labels[L].NumWrites};
  }

private:
  struct ProcSlots {
    uint32_t NumSlots = 0;
    /// Returns then parameters at DeclSlots[FirstDecl ..].
    uint32_t FirstDecl = 0;
    /// (variable, slot) of every non-global slot, sorted by variable, at
    /// LocalIndex[FirstLocal .. FirstLocal + NumSlots - numGlobals()).
    uint32_t FirstLocal = 0;
  };
  struct LabelSlots {
    uint32_t FirstExpr = 0, NumExprs = 0, FirstWrite = 0, NumWrites = 0;
  };

  Slots exprRange(uint32_t First, uint32_t Count) const {
    return {ReadSlots.data() + ExprBegin[First],
            ExprBegin[First + Count] - ExprBegin[First]};
  }

  const CfgProgram &Prog;
  unsigned NumGlobals = 0;
  std::vector<ProcSlots> Procs;
  std::vector<LabelSlots> Labels;
  std::vector<uint32_t> DeclSlots;
  /// Expression E reads ReadSlots[ExprBegin[E] .. ExprBegin[E + 1]).
  std::vector<uint32_t> ExprBegin, ReadSlots;
  std::vector<uint32_t> WriteSlots;
  std::vector<std::pair<Symbol, uint32_t>> GlobalIndex, LocalIndex;
};

/// Transitive may-effect summary of a procedure on the globals, as bitsets
/// over the global slots of VarSlots (bit I is Prog.Globals[I]).
struct ProcEffects {
  Bitset ModGlobals; ///< globals possibly written
  Bitset UseGlobals; ///< globals possibly read
};

/// Bottom-up (callees-first) may-mod/may-use sets over the acyclic call
/// graph, indexed by ProcId.
std::vector<ProcEffects> computeProcEffects(const VarSlots &Slots);

/// Indexed by LabelId: whether the label is reachable from its procedure's
/// entry in the flow graph.
std::vector<bool> entryReachableLabels(const CfgProgram &Prog);

//===----------------------------------------------------------------------===//
// The verification prepass
//===----------------------------------------------------------------------===//

/// The default prepass pipeline (see PassManager.h for the passes).
inline constexpr const char *DefaultPrepassPasses = "slice,splice,deadproc";

/// Prepass configuration: one pipeline spec plus pipeline-level knobs.
struct PrepassOptions {
  /// Append interval-invariant injection (the paper's +Inv, the best row of
  /// Fig. 12) as the last pass. On by default; a -Inv configuration sets it
  /// to false.
  bool Invariants = true;
  /// Comma-separated pipeline spec, e.g. "slice,splice". Empty runs no pass
  /// (except `inv` under Invariants).
  std::string Passes = DefaultPrepassPasses;
  /// Run the structural CFG verifier (VerifyCfg.h) on the input and after
  /// every pass; any violation aborts the pipeline. Builds with assertions
  /// enabled (no NDEBUG) always verify.
  bool VerifyEach = false;
  /// Dump the program to stderr after every pass that changed it.
  bool PrintAfterAll = false;
  /// Optional event recorder (support/Trace.h): the pipeline runs under a
  /// "prepass.pipeline" span with per-pass child spans.
  Trace *Telemetry = nullptr;

  /// The pipeline this configuration runs: Passes, then `inv` under
  /// Invariants unless Passes already runs it.
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
  /// Invariant conjuncts injected by the inv pass (0 without +Inv).
  unsigned InvariantConjuncts = 0;
  /// The inv pass proved the query unreachable (InvariantReport::
  /// ProvesQuery): the program needs no engine run. Never set without +Inv.
  bool InvariantsProveQuery = false;
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
///   query slicing  →  skip splicing  →  dead-procedure elimination
///
/// executed through the pass manager (PassManager.h), which times each pass
/// into \p S (when given) and re-verifies the structural invariants after
/// each pass when Opts.VerifyEach is set or assertions are enabled.
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
