//===- Slicer.h - Cone-of-influence query slicing ---------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slices a lowered program against its reachability query, keeping exactly
/// the statements that can influence the verdict.
///
/// The query asks for a terminating execution of the root (with the $err
/// global true on exit when the program came from assert instrumentation).
/// Two things influence it: which paths can complete — governed by `assume`
/// conditions — and the value of $err at exit. The slicer therefore:
///
///  1. computes a flow-insensitive *relevance* closure over variables,
///     seeded with every variable read by an assume and with $err, closed
///     under assignment, call-argument and call-result dataflow;
///  2. runs a backward *strong liveness* pass per procedure (an instance of
///     the Dataflow.h framework) with the relevant globals and returns live
///     at procedure exit, and deletes assignments and havocs whose target is
///     dead — their value can never reach an assume or the query variable;
///  3. elides calls to procedures whose body is nothing but skips: such a
///     callee always returns, and its (never-assigned) returns are
///     nondeterministic, so the call is equivalent to havocking the live
///     result bindings.
///
/// Every rewrite is verdict-preserving in both directions: dropped statements
/// only produce values no surviving statement ever reads, so executions of
/// the sliced and unsliced programs are in a bijection that preserves
/// termination and the exit value of $err.
///
/// All three steps run over dense indices (Dataflow.h): VarSlots numbers
/// each procedure's variables into slots once (globals at the same slot in
/// every procedure) and walks every label's expressions once into read
/// sets, which the relevance closure, the global effects and liveness's
/// gen/kill all reuse. Relevance is one bitset over the globals plus one per
/// procedure; a liveness value is a word bitset over the procedure's slots,
/// so join is OR and a transfer clears the written bits and sets the read
/// ones.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_SLICER_H
#define RMT_ANALYSIS_SLICER_H

#include "analysis/Dataflow.h"

#include <optional>
#include <vector>

namespace rmt {

/// Flow-insensitive relevance closure: which variables can influence an
/// assume condition or the query variable. Globals are tracked program-wide,
/// locals (incl. params and returns) per procedure.
class Relevance {
public:
  /// The closure for the query on $err (\p ErrGlobal; nullopt for plain
  /// termination reachability). \p Slots must outlive the Relevance.
  Relevance(const VarSlots &Slots, std::optional<Symbol> ErrGlobal);

  /// Is \p V (seen from procedure \p P) relevant to the query?
  bool relevant(ProcId P, Symbol V) const {
    uint32_t S = Slots->slot(P, V);
    return S != VarSlots::NoSlot && relevantSlot(P, S);
  }
  bool relevantGlobal(Symbol V) const {
    uint32_t S = Slots->globalSlot(V);
    return S != VarSlots::NoSlot && RelGlobals.test(S);
  }
  /// Is slot \p S of procedure \p P relevant?
  bool relevantSlot(ProcId P, uint32_t S) const {
    return S < Slots->numGlobals() ? RelGlobals.test(S) : RelLocals[P].test(S);
  }
  /// The relevant globals, by global slot.
  const Bitset &relevantGlobals() const { return RelGlobals; }

private:
  /// Marks slot \p S of \p P relevant; true when it was not yet.
  bool mark(ProcId P, uint32_t S);

  const VarSlots *Slots;
  Bitset RelGlobals;
  std::vector<Bitset> RelLocals;
};

/// Backward strong liveness restricted to relevant variables, a
/// DataflowSolver client. A variable is live when its current value can
/// reach an assume, or a relevant global or return at procedure exit. Calls
/// read the arguments of relevant parameters and the callee's transitive
/// relevant global reads, and never kill the globals they write, so a store
/// whose target is dead is unobservable.
class QueryLiveness {
public:
  /// Bit S is slot S of the procedure (VarSlots).
  using Value = Bitset;
  static constexpr FlowDirection Direction = FlowDirection::Backward;

  /// Liveness over procedure \p P; \p FX comes from computeProcEffects().
  QueryLiveness(const VarSlots &Slots, const Relevance &Rel,
                const std::vector<ProcEffects> &FX, ProcId P);

  Value bottom() const { return Bitset(Slots.numSlots(P)); }
  Value boundary() const { return ExitLive; }
  void join(Value &Into, const Value &From) const { Into.orWith(From); }
  void transfer(LabelId L, const CfgStmt &S, Value &X) const;

  /// Is \p V live in \p X?
  bool live(const Value &X, Symbol V) const {
    uint32_t S = Slots.slot(P, V);
    return S != VarSlots::NoSlot && X.test(S);
  }

private:
  const VarSlots &Slots;
  const Relevance &Rel;
  const std::vector<ProcEffects> &FX;
  ProcId P;
  Value ExitLive;
};

/// What the slicer removed.
struct SliceReport {
  /// Assignments and havocs rewritten to `assume true`.
  unsigned StmtsDropped = 0;
  /// Variables removed from surviving havoc lists.
  unsigned HavocVarsDropped = 0;
  /// Calls to skip-only procedures elided (rewritten to havoc or skip).
  unsigned CallsElided = 0;
};

/// Slices \p Prog in place against the reachability query of its root.
/// \p ErrGlobal is the $err query variable; nullopt for plain termination
/// reachability. Statements are rewritten to skips rather than deleted —
/// run spliceSkips() afterwards to compact the flow graph.
///
/// The root needs no special case: every procedure is assumed to be reached
/// from it, so each exit feeds some caller. prepareBounded() establishes
/// this. On a program with unreached procedures the slice stays sound, only
/// less precise: their assumes still seed relevance, so it keeps stores the
/// query cannot observe.
SliceReport sliceForQuery(AstContext &Ctx, CfgProgram &Prog,
                          std::optional<Symbol> ErrGlobal);

} // namespace rmt

#endif // RMT_ANALYSIS_SLICER_H
