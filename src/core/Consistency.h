//===- Consistency.h - DAG consistency (Def. 2, Alg. 1, Fig. 10) -*- C++ -*-=//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides whether binding an open edge to an existing node keeps the
/// inlining DAG *consistent* (Definition 2: every node's set of represented
/// configurations is mutually disjoint).
///
/// The batch check generalizes Algorithm 1 from successor-node pairs to
/// out-edge pairs, which also covers parallel edges from one node to the
/// same destination through different call sites (two such edges give the
/// destination two configurations diverging exactly at those call sites).
///
/// The incremental check used inside the inlining loop (resolving line 20 of
/// Fig. 8 per Fig. 10) exploits that the committed DAG is consistent: adding
/// edge s→n can only create new common descendants for an edge pair (a, b)
/// when a's destination reaches s and b's destination reaches n's sub-DAG
/// (or symmetrically). Only those pairs are re-examined, against the same
/// Disj_blk tables. Descendant sets are maintained as dense bitsets and
/// updated on every commit.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_CORE_CONSISTENCY_H
#define RMT_CORE_CONSISTENCY_H

#include "core/Disjoint.h"
#include "core/VcGen.h"
#include "support/Bitset.h"

#include <cstdint>
#include <vector>

namespace rmt {

/// Incrementally maintained consistency oracle over a VcContext's DAG.
/// Build it over an empty VcContext and drive it in lock-step: call
/// onNewNode after genPvc and onBind after bindEdge (Inliner does both).
class ConsistencyChecker {
public:
  ConsistencyChecker(const VcContext &Vc, const DisjointAnalysis &Disj)
      : Vc(Vc), Disj(Disj) {}

  /// Registers a freshly created node.
  void onNewNode(NodeId N);

  /// True when Dest[C] = N keeps the DAG consistent (the `compatible` test
  /// of Fig. 10). Does not modify state.
  bool canBind(EdgeId C, NodeId N);

  /// Commits the binding (updates descendant sets).
  void onBind(EdgeId C, NodeId N);

  /// Batch generalized Algorithm 1 over the currently bound DAG.
  bool isConsistentFull() const;

  /// Number of descendants of \p N, including itself (the MaxC strategy's
  /// ranking key).
  size_t numDescendants(NodeId N) const { return Desc[N].count(); }

  /// Total Disj_blk lookups performed (merge-overhead accounting).
  uint64_t numDisjQueries() const { return NumDisjQueries; }

private:
  bool disjSites(LabelId A, LabelId B) {
    ++NumDisjQueries;
    return Disj.disjointLabels(A, B);
  }

  const VcContext &Vc;
  const DisjointAnalysis &Disj;
  /// Desc[N] = descendants of N in the bound DAG, including N itself.
  std::vector<Bitset> Desc;
  uint64_t NumDisjQueries = 0;
};

/// All configurations represented by node \p N: each is the node's entry
/// label followed by the call-site labels along one root path (innermost
/// first). Exponential in general; tests and the OPT strategy only.
std::vector<std::vector<LabelId>> allConfigsOf(const VcContext &Vc, NodeId N);

} // namespace rmt

#endif // RMT_CORE_CONSISTENCY_H
