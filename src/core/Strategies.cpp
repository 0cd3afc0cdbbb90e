//===- Strategies.cpp -----------------------------------------------------===//

#include "core/Strategies.h"

#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

using namespace rmt;

MergeStrategy::~MergeStrategy() = default;
void MergeStrategy::noteNewNode(NodeId, EdgeId) {}

std::optional<MergeStrategyKind>
rmt::parseStrategyKind(const std::string &Name) {
  if (Name == "none")
    return MergeStrategyKind::None;
  if (Name == "first")
    return MergeStrategyKind::First;
  if (Name == "random")
    return MergeStrategyKind::Random;
  if (Name == "randompick")
    return MergeStrategyKind::RandomPick;
  if (Name == "maxc")
    return MergeStrategyKind::MaxC;
  if (Name == "opt")
    return MergeStrategyKind::Opt;
  return std::nullopt;
}

const char *rmt::strategyName(MergeStrategyKind Kind) {
  switch (Kind) {
  case MergeStrategyKind::None:
    return "none";
  case MergeStrategyKind::First:
    return "first";
  case MergeStrategyKind::Random:
    return "random";
  case MergeStrategyKind::RandomPick:
    return "randompick";
  case MergeStrategyKind::MaxC:
    return "maxc";
  case MergeStrategyKind::Opt:
    return "opt";
  }
  return "?";
}

std::optional<NodeId> MergeStrategy::firstCompatible(EdgeId C) {
  for (NodeId N : Vc.instancesOf(Vc.edge(C).Callee))
    if (Checker.canBind(C, N))
      return N;
  return std::nullopt;
}

std::vector<NodeId> MergeStrategy::compatibleNodes(EdgeId C) {
  std::vector<NodeId> M;
  for (NodeId N : Vc.instancesOf(Vc.edge(C).Callee))
    if (Checker.canBind(C, N))
      M.push_back(N);
  return M;
}

namespace {

class NoneStrategy final : public MergeStrategy {
public:
  using MergeStrategy::MergeStrategy;
  std::optional<NodeId> pick(EdgeId) override { return std::nullopt; }
};

class FirstStrategy final : public MergeStrategy {
public:
  using MergeStrategy::MergeStrategy;
  std::optional<NodeId> pick(EdgeId C) override { return firstCompatible(C); }
};

class RandomStrategy final : public MergeStrategy {
public:
  RandomStrategy(const VcContext &Vc, ConsistencyChecker &Checker,
                 uint64_t Seed, bool AlwaysPick)
      : MergeStrategy(Vc, Checker), Gen(Seed), AlwaysPick(AlwaysPick) {}

  std::optional<NodeId> pick(EdgeId C) override {
    // RANDOM declines a merge with probability 32/256.
    if (!AlwaysPick && Gen.chance(32, 256))
      return std::nullopt;
    std::vector<NodeId> M = compatibleNodes(C);
    if (M.empty())
      return std::nullopt;
    return M[Gen.below(M.size())];
  }

private:
  Rng Gen;
  bool AlwaysPick; // true => RANDOMPICK, false => RANDOM
};

class MaxCStrategy final : public MergeStrategy {
public:
  using MergeStrategy::MergeStrategy;
  std::optional<NodeId> pick(EdgeId C) override {
    std::optional<NodeId> Best;
    size_t BestSize = 0;
    for (NodeId N : compatibleNodes(C)) {
      size_t Size = Checker.numDescendants(N);
      if (!Best || Size > BestSize) {
        Best = N;
        BestSize = Size;
      }
    }
    return Best;
  }
};

//===----------------------------------------------------------------------===//
// OPT
//===----------------------------------------------------------------------===//

/// The precomputed optimal-compression DAG Do.
struct OptDag {
  bool Ok = false;
  size_t TreeSize = 0;
  uint32_t RootDoNode = 0;
  size_t NumDoNodes = 0;
  /// (DoSrc, call-site) -> DoDst. First writer wins; OptStrategy::pick's
  /// canBind check keeps any residual ambiguity sound.
  std::unordered_map<uint64_t, uint32_t> Edge;

  static uint64_t key(uint32_t DoSrc, LabelId Site) {
    return (static_cast<uint64_t>(DoSrc) << 32) | Site;
  }
};

OptDag buildOptDag(const CfgProgram &Prog, const DisjointAnalysis &Disj,
                   ProcId Root, size_t MaxTreeNodes) {
  OptDag Do;

  struct TNode {
    ProcId Proc;
    uint32_t Parent;   // ~0u for the root
    LabelId Site;      // call site in the parent
    uint32_t Depth;
  };
  std::vector<TNode> Tree;
  Tree.push_back({Root, ~0u, InvalidLabel, 0});

  // Call labels per procedure, cached.
  std::unordered_map<ProcId, std::vector<LabelId>> CallLabels;
  auto callsOf = [&](ProcId P) -> const std::vector<LabelId> & {
    auto It = CallLabels.find(P);
    if (It != CallLabels.end())
      return It->second;
    std::vector<LabelId> Calls;
    for (LabelId L : Prog.proc(P).Labels)
      if (Prog.label(L).Stmt.Kind == CfgStmtKind::Call)
        Calls.push_back(L);
    return CallLabels.emplace(P, std::move(Calls)).first->second;
  };

  // Breadth-first full unrolling of the call graph.
  for (size_t I = 0; I < Tree.size(); ++I) {
    if (Tree.size() > MaxTreeNodes)
      return Do; // Ok stays false: the paper's OPT T/O case
    for (LabelId Call : callsOf(Tree[I].Proc))
      Tree.push_back({Prog.label(Call).Stmt.Callee, static_cast<uint32_t>(I),
                      Call, Tree[I].Depth + 1});
  }
  Do.TreeSize = Tree.size();

  // Two instances of one procedure conflict iff their configurations are
  // not disjoint, i.e. iff the call sites where their root paths diverge
  // are not Disj_blk (Lemma 1). Instances of one procedure are never
  // ancestor-related (the call graph is acyclic).
  auto conflicts = [&](uint32_t A, uint32_t B) {
    while (Tree[A].Depth > Tree[B].Depth)
      A = Tree[A].Parent;
    while (Tree[B].Depth > Tree[A].Depth)
      B = Tree[B].Parent;
    assert(A != B && "instances of one procedure cannot be nested");
    while (Tree[A].Parent != Tree[B].Parent) {
      A = Tree[A].Parent;
      B = Tree[B].Parent;
    }
    return !Disj.disjointLabels(Tree[A].Site, Tree[B].Site);
  };

  // Group instances per procedure (tree order == chronological order).
  std::unordered_map<ProcId, std::vector<uint32_t>> ByProc;
  for (uint32_t I = 0; I < Tree.size(); ++I)
    ByProc[Tree[I].Proc].push_back(I);

  // Colour each per-procedure conflict graph. Minimum colouring is NP-hard;
  // "colour with minimum colours possible" becomes the best of three
  // heuristics: chronological first-fit (optimal for the interval-like
  // graphs sequential control flow induces), Welsh-Powell, and DSATUR.
  std::vector<uint32_t> ColorOf(Tree.size(), 0);
  uint32_t NextDoNode = 0;
  for (auto &[Proc, Instances] : ByProc) {
    (void)Proc;
    size_t K = Instances.size();
    std::vector<Bitset> Adj(K);
    std::vector<size_t> Degree(K, 0);
    for (size_t I = 0; I < K; ++I)
      for (size_t J = I + 1; J < K; ++J)
        if (conflicts(Instances[I], Instances[J])) {
          Adj[I].set(J);
          Adj[J].set(I);
          ++Degree[I];
          ++Degree[J];
        }

    auto FirstFit = [&](const std::vector<size_t> &Order,
                        std::vector<uint32_t> &Colors) -> uint32_t {
      Colors.assign(K, ~0u);
      uint32_t NumColors = 0;
      for (size_t Pos : Order) {
        std::vector<bool> Used(NumColors, false);
        for (size_t J = 0; J < K; ++J)
          if (Colors[J] != ~0u && Adj[Pos].test(J))
            Used[Colors[J]] = true;
        uint32_t Color = 0;
        while (Color < NumColors && Used[Color])
          ++Color;
        if (Color == NumColors)
          ++NumColors;
        Colors[Pos] = Color;
      }
      return NumColors;
    };

    std::vector<size_t> Chrono(K);
    for (size_t I = 0; I < K; ++I)
      Chrono[I] = I;
    std::vector<size_t> ByDegree = Chrono;
    std::stable_sort(ByDegree.begin(), ByDegree.end(),
                     [&](size_t A, size_t B) { return Degree[A] > Degree[B]; });

    std::vector<uint32_t> Best, Candidate;
    uint32_t BestColors = FirstFit(Chrono, Best);
    if (uint32_t N = FirstFit(ByDegree, Candidate); N < BestColors) {
      BestColors = N;
      Best = Candidate;
    }

    // DSATUR: colour the vertex with the most distinctly-coloured
    // neighbours next (ties by degree).
    {
      std::vector<uint32_t> Colors(K, ~0u);
      std::vector<std::set<uint32_t>> Saturation(K);
      uint32_t NumColors = 0;
      for (size_t Step = 0; Step < K; ++Step) {
        size_t Pick = K;
        for (size_t I = 0; I < K; ++I) {
          if (Colors[I] != ~0u)
            continue;
          if (Pick == K ||
              Saturation[I].size() > Saturation[Pick].size() ||
              (Saturation[I].size() == Saturation[Pick].size() &&
               Degree[I] > Degree[Pick]))
            Pick = I;
        }
        uint32_t Color = 0;
        while (Saturation[Pick].count(Color))
          ++Color;
        Colors[Pick] = Color;
        if (Color >= NumColors)
          NumColors = Color + 1;
        for (size_t J = 0; J < K; ++J)
          if (Adj[Pick].test(J) && Colors[J] == ~0u)
            Saturation[J].insert(Color);
      }
      if (NumColors < BestColors) {
        BestColors = NumColors;
        Best = Colors;
      }
    }

    for (size_t I = 0; I < K; ++I)
      ColorOf[Instances[I]] = NextDoNode + Best[I];
    NextDoNode += BestColors;
  }
  Do.NumDoNodes = NextDoNode;
  Do.RootDoNode = ColorOf[0];

  for (uint32_t I = 1; I < Tree.size(); ++I)
    Do.Edge.emplace(OptDag::key(ColorOf[Tree[I].Parent], Tree[I].Site),
                    ColorOf[I]);

  Do.Ok = true;
  return Do;
}

class OptStrategy final : public MergeStrategy {
public:
  OptStrategy(const VcContext &Vc, ConsistencyChecker &Checker, OptDag Do)
      : MergeStrategy(Vc, Checker), Do(std::move(Do)) {
    if (this->Do.Ok)
      Host.assign(this->Do.NumDoNodes, InvalidNode);
  }

  std::optional<NodeId> pick(EdgeId C) override {
    if (!Do.Ok)
      return firstCompatible(C); // precompute overflowed: FIRST behaviour
    std::optional<uint32_t> Target = imageOfEdgeTarget(C);
    if (!Target)
      return std::nullopt;
    NodeId H = Host[*Target];
    if (H == InvalidNode)
      return std::nullopt; // fresh node will claim this Do slot
    if (!Checker.canBind(C, H))
      return std::nullopt; // safety net; should not trigger
    return H;
  }

  void noteNewNode(NodeId N, EdgeId Cause) override {
    if (!Do.Ok)
      return;
    if (Cause == InvalidEdge) {
      setImage(N, Do.RootDoNode);
      return;
    }
    if (std::optional<uint32_t> Target = imageOfEdgeTarget(Cause))
      setImage(N, *Target);
  }

private:
  std::optional<uint32_t> imageOfEdgeTarget(EdgeId C) const {
    const VcEdge &E = Vc.edge(C);
    auto ImgIt = Image.find(E.Src);
    if (ImgIt == Image.end())
      return std::nullopt;
    auto It = Do.Edge.find(OptDag::key(ImgIt->second, E.CallSite));
    if (It == Do.Edge.end())
      return std::nullopt;
    return It->second;
  }

  void setImage(NodeId N, uint32_t DoNode) {
    Image[N] = DoNode;
    if (Host[DoNode] == InvalidNode)
      Host[DoNode] = N;
  }

  OptDag Do;
  std::vector<NodeId> Host;                    // Do node -> hosting D node
  std::unordered_map<NodeId, uint32_t> Image;  // D node -> Do node
};

} // namespace

std::unique_ptr<MergeStrategy>
rmt::createStrategy(const StrategyOptions &Opts, const VcContext &Vc,
                    ConsistencyChecker &Checker, const DisjointAnalysis &Disj,
                    ProcId Root) {
  switch (Opts.Kind) {
  case MergeStrategyKind::None:
    return std::make_unique<NoneStrategy>(Vc, Checker);
  case MergeStrategyKind::First:
    return std::make_unique<FirstStrategy>(Vc, Checker);
  case MergeStrategyKind::Random:
    return std::make_unique<RandomStrategy>(Vc, Checker, Opts.Seed,
                                            /*AlwaysPick=*/false);
  case MergeStrategyKind::RandomPick:
    return std::make_unique<RandomStrategy>(Vc, Checker, Opts.Seed,
                                            /*AlwaysPick=*/true);
  case MergeStrategyKind::MaxC:
    return std::make_unique<MaxCStrategy>(Vc, Checker);
  case MergeStrategyKind::Opt:
    return std::make_unique<OptStrategy>(
        Vc, Checker,
        buildOptDag(Vc.program(), Disj, Root, Opts.MaxTreeNodes));
  }
  return std::make_unique<FirstStrategy>(Vc, Checker);
}

OptPrecomputeStats rmt::precomputeOptDag(const CfgProgram &Prog,
                                         const DisjointAnalysis &Disj,
                                         ProcId Root, size_t MaxTreeNodes) {
  OptDag Do = buildOptDag(Prog, Disj, Root, MaxTreeNodes);
  OptPrecomputeStats Stats;
  Stats.Succeeded = Do.Ok;
  Stats.TreeSize = Do.TreeSize;
  Stats.DagSize = Do.NumDoNodes;
  return Stats;
}
