//===- Consistency.cpp ----------------------------------------------------===//

#include "core/Consistency.h"

#include <cassert>

using namespace rmt;

void ConsistencyChecker::onNewNode(NodeId N) {
  assert(N == Desc.size() && "nodes must be registered in creation order");
  Desc.emplace_back();
  Desc.back().set(N);
}

bool ConsistencyChecker::canBind(EdgeId C, NodeId N) {
  const VcEdge &E = Vc.edge(C);
  NodeId S = E.Src;
  assert(E.isOpen() && "checking an already-bound edge");
  assert(!Desc[N].test(S) && "binding would create a cycle (impossible for "
                             "hierarchical programs)");

  const Bitset &DescN = Desc[N];

  // New sibling pairs at S: the candidate edge against every bound out-edge
  // of S whose destination shares a descendant with N's sub-DAG.
  for (EdgeId Sib : Vc.node(S).OutEdges) {
    if (Sib == C)
      continue;
    const VcEdge &SibE = Vc.edge(Sib);
    if (SibE.isOpen())
      continue;
    if (!Desc[SibE.Dest].intersects(DescN))
      continue;
    if (!disjSites(SibE.CallSite, E.CallSite))
      return false;
  }

  // Pairs elsewhere that become newly common through the prospective edge:
  // (a, b) at some node x where Dest[a] reaches S and Dest[b] reaches N's
  // sub-DAG. Pairs with a pre-existing common descendant were validated when
  // their own later edge was committed, so only these mixed pairs matter.
  for (NodeId X = 0; X < Vc.numNodes(); ++X) {
    const VcNode &Node = Vc.node(X);
    if (Node.OutEdges.size() < 2)
      continue;
    for (EdgeId A : Node.OutEdges) {
      const VcEdge &EA = Vc.edge(A);
      if (EA.isOpen() || !Desc[EA.Dest].test(S))
        continue;
      for (EdgeId B : Node.OutEdges) {
        if (A == B)
          continue;
        const VcEdge &EB = Vc.edge(B);
        if (EB.isOpen() || !Desc[EB.Dest].intersects(DescN))
          continue;
        if (!disjSites(EA.CallSite, EB.CallSite))
          return false;
      }
    }
  }
  return true;
}

void ConsistencyChecker::onBind(EdgeId C, NodeId N) {
  const VcEdge &E = Vc.edge(C);
  assert(E.Dest == N && "commit order: VcContext::bindEdge first");
  NodeId S = E.Src;
  const Bitset Delta = Desc[N];
  for (NodeId X = 0; X < Vc.numNodes(); ++X)
    if (Desc[X].test(S))
      Desc[X].orWith(Delta);
}

bool ConsistencyChecker::isConsistentFull() const {
  for (NodeId X = 0; X < Vc.numNodes(); ++X) {
    const VcNode &Node = Vc.node(X);
    const auto &Out = Node.OutEdges;
    for (size_t I = 0; I < Out.size(); ++I) {
      const VcEdge &EA = Vc.edge(Out[I]);
      if (EA.isOpen())
        continue;
      for (size_t J = I + 1; J < Out.size(); ++J) {
        const VcEdge &EB = Vc.edge(Out[J]);
        if (EB.isOpen())
          continue;
        if (!Desc[EA.Dest].intersects(Desc[EB.Dest]))
          continue;
        if (!Disj.disjointLabels(EA.CallSite, EB.CallSite))
          return false;
      }
    }
  }
  return true;
}

std::vector<std::vector<LabelId>> rmt::allConfigsOf(const VcContext &Vc,
                                                    NodeId N) {
  // Parent edges per node (edges whose Dest is that node).
  std::vector<std::vector<EdgeId>> Parents(Vc.numNodes());
  for (EdgeId E = 0; E < Vc.numEdges(); ++E)
    if (!Vc.edge(E).isOpen())
      Parents[Vc.edge(E).Dest].push_back(E);

  std::vector<std::vector<LabelId>> Out;
  // DFS over reversed edges accumulating call-site suffixes.
  struct Frame {
    NodeId Node;
    std::vector<LabelId> Suffix;
  };
  std::vector<Frame> Work{{N, {}}};
  while (!Work.empty()) {
    Frame F = std::move(Work.back());
    Work.pop_back();
    if (Parents[F.Node].empty()) {
      // Reached the root (only the root has no parents in Gen_VC's DAG).
      std::vector<LabelId> Config;
      Config.push_back(Vc.node(N).Entry);
      Config.insert(Config.end(), F.Suffix.begin(), F.Suffix.end());
      Out.push_back(std::move(Config));
      continue;
    }
    for (EdgeId P : Parents[F.Node]) {
      Frame Next;
      Next.Node = Vc.edge(P).Src;
      Next.Suffix = F.Suffix;
      Next.Suffix.push_back(Vc.edge(P).CallSite);
      Work.push_back(std::move(Next));
    }
  }
  return Out;
}
