//===- Strategies.h - Merging strategies (Section 3.4) ----------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's strategies for resolving the nondeterministic "pick compatible
/// n" of Fig. 8 line 20:
///
///  * NONE       — always inline fresh (degenerates to tree inlining / SI).
///  * FIRST      — first compatible node in chronological order (the paper's
///                 default: "fast in practice yet provides compression close
///                 to OPT in the limit").
///  * RANDOM     — with probability 32/256 returns None even when candidates
///                 exist; otherwise a uniformly random candidate.
///  * RANDOMPICK — uniformly random compatible candidate.
///  * MAXC       — compatible candidate with the most descendants.
///  * OPT        — precomputes the best-compression DAG Do of the fully
///                 inlined tree (conflict-graph colouring per procedure) and
///                 keeps the working DAG embedded in Do.
///
/// A strategy is created over one Inliner's VcContext and checker, and is
/// only driven by that Inliner (core/Engine.h). Every pick passes
/// ConsistencyChecker::canBind; Debug builds re-check it before binding.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_STRATEGIES_H
#define RMT_CORE_STRATEGIES_H

#include "core/Consistency.h"
#include "core/Disjoint.h"
#include "core/VcGen.h"

#include <memory>
#include <optional>
#include <string>

namespace rmt {

/// Selector for createStrategy.
enum class MergeStrategyKind { None, First, Random, RandomPick, MaxC, Opt };

/// Parses "none"/"first"/"random"/"randompick"/"maxc"/"opt".
std::optional<MergeStrategyKind> parseStrategyKind(const std::string &Name);
/// Printable name of \p Kind.
const char *strategyName(MergeStrategyKind Kind);

/// A policy object answering line 20 of Fig. 8 over one VcContext.
class MergeStrategy {
public:
  MergeStrategy(const VcContext &Vc, ConsistencyChecker &Checker)
      : Vc(Vc), Checker(Checker) {}
  MergeStrategy(const MergeStrategy &) = delete;
  MergeStrategy &operator=(const MergeStrategy &) = delete;
  virtual ~MergeStrategy();

  /// Returns the node to merge open edge \p C into, or nullopt for None
  /// (inline a fresh copy). Implementations must only return nodes passing
  /// Checker.canBind(C, n).
  virtual std::optional<NodeId> pick(EdgeId C) = 0;

  /// Notifies the strategy that a fresh node \p N was inlined to resolve
  /// edge \p Cause (InvalidEdge for the root).
  virtual void noteNewNode(NodeId N, EdgeId Cause);

protected:
  /// The first compatible instance of C's callee in chronological order
  /// (FIRST's answer).
  std::optional<NodeId> firstCompatible(EdgeId C);
  /// Every compatible instance of C's callee in chronological order (the
  /// paper's set M).
  std::vector<NodeId> compatibleNodes(EdgeId C);

  const VcContext &Vc;
  ConsistencyChecker &Checker;
};

/// Configuration for strategy construction.
struct StrategyOptions {
  MergeStrategyKind Kind = MergeStrategyKind::First;
  /// Seed for the randomized strategies.
  uint64_t Seed = 1;
  /// OPT: give up precomputing Do beyond this many tree instances and fall
  /// back to FIRST behaviour (the paper's OPT column shows a T/O as well).
  /// The colouring is quadratic per procedure, so keep this moderate.
  size_t MaxTreeNodes = 500000;
};

/// Creates a strategy picking nodes of \p Vc validated by \p Checker. OPT
/// needs the analysis and the root procedure to precompute Do; the others
/// ignore those arguments.
std::unique_ptr<MergeStrategy> createStrategy(const StrategyOptions &Opts,
                                              const VcContext &Vc,
                                              ConsistencyChecker &Checker,
                                              const DisjointAnalysis &Disj,
                                              ProcId Root);

/// Statistics of an OPT precomputation; exposed for tests and Fig. 17.
struct OptPrecomputeStats {
  bool Succeeded = false;
  size_t TreeSize = 0;  ///< dynamic instances in the full tree
  size_t DagSize = 0;   ///< colour classes = nodes of Do
};

/// Runs only the OPT precomputation (full-tree enumeration + colouring) and
/// reports its sizes. Used by the Fig. 17 bench to get the Tree and OPT
/// columns without solving.
OptPrecomputeStats precomputeOptDag(const CfgProgram &Prog,
                                    const DisjointAnalysis &Disj, ProcId Root,
                                    size_t MaxTreeNodes);

} // namespace rmt

#endif // RMT_CORE_STRATEGIES_H
