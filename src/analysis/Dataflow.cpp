//===- Dataflow.cpp -------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>

using namespace rmt;

//===----------------------------------------------------------------------===//
// ProcFlow
//===----------------------------------------------------------------------===//

ProcFlow::ProcFlow(const CfgProgram &Prog, ProcId P)
    : Prog(Prog), P(P), Entry(Prog.proc(P).Entry) {
  Topo = Prog.topoOrder(P);
  if (Topo.empty())
    return;
  auto [MinIt, MaxIt] = std::minmax_element(Topo.begin(), Topo.end());
  Lo = *MinIt;
  Index.assign(*MaxIt - Lo + 1, ~0u);
  for (unsigned I = 0; I < Topo.size(); ++I)
    Index[Topo[I] - Lo] = I;
}

//===----------------------------------------------------------------------===//
// Shared utilities
//===----------------------------------------------------------------------===//

void rmt::collectExprVars(const Expr *E, std::set<Symbol> &Out) {
  if (!E)
    return;
  std::vector<const Expr *> Stack{E};
  while (!Stack.empty()) {
    const Expr *Cur = Stack.back();
    Stack.pop_back();
    if (Cur->kind() == ExprKind::Var) {
      Out.insert(Cur->var());
      continue;
    }
    for (unsigned I = 0; I < Cur->numOps(); ++I)
      Stack.push_back(I == 0 ? Cur->op0() : I == 1 ? Cur->op1() : Cur->op2());
  }
}

VarSlots::VarSlots(const CfgProgram &Prog)
    : Prog(Prog), NumGlobals(static_cast<unsigned>(Prog.Globals.size())),
      Procs(Prog.Procs.size()), Labels(Prog.Labels.size()) {
  // SlotOf[V.id()] is V's slot in the procedure being numbered: globals
  // keep theirs throughout, a procedure's locals are cleared after it.
  std::vector<uint32_t> SlotOf;
  auto SlotRef = [&](Symbol V) -> uint32_t & {
    if (V.id() >= SlotOf.size())
      SlotOf.resize(V.id() + 1, NoSlot);
    return SlotOf[V.id()];
  };
  for (unsigned I = 0; I < NumGlobals; ++I) {
    Symbol G = Prog.Globals[I].Name;
    GlobalIndex.push_back({G, I});
    if (SlotRef(G) == NoSlot)
      SlotRef(G) = I;
  }
  std::sort(GlobalIndex.begin(), GlobalIndex.end());

  ExprBegin.push_back(0);
  std::vector<Symbol> Locals;       // this procedure's non-global slots
  std::vector<uint32_t> Stamp;      // by slot: last expression that read it
  std::vector<const Expr *> Stack;  // expression walk
  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    const CfgProc &Proc = Prog.proc(P);
    Locals.clear();
    auto SlotFor = [&](Symbol V) {
      uint32_t S = SlotRef(V);
      if (S == NoSlot) {
        S = NumGlobals + static_cast<uint32_t>(Locals.size());
        SlotRef(V) = S;
        Locals.push_back(V);
      }
      return S;
    };
    auto AddExpr = [&](const Expr *E) {
      uint32_t Id = static_cast<uint32_t>(ExprBegin.size());
      if (E)
        Stack.push_back(E);
      while (!Stack.empty()) {
        const Expr *Cur = Stack.back();
        Stack.pop_back();
        if (Cur->kind() == ExprKind::Var) {
          uint32_t S = SlotFor(Cur->var());
          if (S >= Stamp.size())
            Stamp.resize(S + 1, 0);
          if (Stamp[S] != Id) {
            Stamp[S] = Id;
            ReadSlots.push_back(S);
          }
          continue;
        }
        for (unsigned I = 0; I < Cur->numOps(); ++I)
          Stack.push_back(I == 0 ? Cur->op0() : I == 1 ? Cur->op1()
                                                       : Cur->op2());
      }
      ExprBegin.push_back(static_cast<uint32_t>(ReadSlots.size()));
    };

    Procs[P].FirstDecl = static_cast<uint32_t>(DeclSlots.size());
    for (const VarDecl &D : Proc.Returns)
      DeclSlots.push_back(SlotFor(D.Name));
    for (const VarDecl &D : Proc.Params)
      DeclSlots.push_back(SlotFor(D.Name));
    for (LabelId L : Proc.Labels) {
      const CfgStmt &S = Prog.label(L).Stmt;
      LabelSlots &LS = Labels[L];
      LS.FirstExpr = static_cast<uint32_t>(ExprBegin.size() - 1);
      LS.FirstWrite = static_cast<uint32_t>(WriteSlots.size());
      switch (S.Kind) {
      case CfgStmtKind::Assume:
        AddExpr(S.E);
        break;
      case CfgStmtKind::Assign:
        AddExpr(S.E);
        WriteSlots.push_back(SlotFor(S.Target));
        break;
      case CfgStmtKind::Havoc:
      case CfgStmtKind::Call:
        for (const Expr *A : S.Args)
          AddExpr(A);
        for (Symbol V : S.Vars)
          WriteSlots.push_back(SlotFor(V));
        break;
      }
      LS.NumExprs =
          static_cast<uint32_t>(ExprBegin.size() - 1) - LS.FirstExpr;
      LS.NumWrites = static_cast<uint32_t>(WriteSlots.size()) - LS.FirstWrite;
    }

    Procs[P].NumSlots = NumGlobals + static_cast<uint32_t>(Locals.size());
    Procs[P].FirstLocal = static_cast<uint32_t>(LocalIndex.size());
    for (Symbol V : Locals) {
      LocalIndex.push_back({V, SlotRef(V)});
      SlotRef(V) = NoSlot;
    }
    std::sort(LocalIndex.begin() + Procs[P].FirstLocal, LocalIndex.end());
  }
}

namespace {

uint32_t lookupSlot(std::span<const std::pair<Symbol, uint32_t>> Sorted,
                    Symbol V) {
  auto It = std::lower_bound(
      Sorted.begin(), Sorted.end(), V,
      [](const std::pair<Symbol, uint32_t> &E, Symbol X) {
        return E.first < X;
      });
  return It != Sorted.end() && It->first == V ? It->second : VarSlots::NoSlot;
}

} // namespace

uint32_t VarSlots::globalSlot(Symbol V) const {
  return lookupSlot(GlobalIndex, V);
}

uint32_t VarSlots::slot(ProcId P, Symbol V) const {
  uint32_t S = globalSlot(V);
  if (S != NoSlot)
    return S;
  const ProcSlots &PS = Procs[P];
  return lookupSlot({LocalIndex.data() + PS.FirstLocal,
                     PS.NumSlots - NumGlobals},
                    V);
}

std::vector<ProcEffects> rmt::computeProcEffects(const VarSlots &Slots) {
  const CfgProgram &Prog = Slots.program();
  unsigned G = Slots.numGlobals();
  std::vector<ProcEffects> FX(Prog.Procs.size());
  for (ProcId P : Prog.bottomUpProcOrder()) {
    ProcEffects &E = FX[P];
    E.ModGlobals = Bitset(G);
    E.UseGlobals = Bitset(G);
    for (LabelId L : Prog.proc(P).Labels) {
      for (uint32_t V : Slots.allReads(L))
        if (V < G)
          E.UseGlobals.set(V);
      for (uint32_t V : Slots.writes(L))
        if (V < G)
          E.ModGlobals.set(V);
      const CfgStmt &S = Prog.label(L).Stmt;
      if (S.Kind == CfgStmtKind::Call) {
        E.ModGlobals.orWith(FX[S.Callee].ModGlobals);
        E.UseGlobals.orWith(FX[S.Callee].UseGlobals);
      }
    }
  }
  return FX;
}

std::vector<bool> rmt::entryReachableLabels(const CfgProgram &Prog) {
  std::vector<bool> Reached(Prog.Labels.size(), false);
  for (const CfgProc &P : Prog.Procs) {
    std::vector<LabelId> Work{P.Entry};
    Reached[P.Entry] = true;
    while (!Work.empty()) {
      LabelId L = Work.back();
      Work.pop_back();
      for (LabelId T : Prog.label(L).Targets)
        if (!Reached[T]) {
          Reached[T] = true;
          Work.push_back(T);
        }
    }
  }
  return Reached;
}

//===----------------------------------------------------------------------===//
// Structural compaction
//===----------------------------------------------------------------------===//

unsigned rmt::compactLabels(CfgProgram &Prog,
                            const std::vector<bool> &KeepLabel) {
  assert(KeepLabel.size() == Prog.Labels.size());
  size_t Before = Prog.Labels.size();

  std::vector<LabelId> NewId(Before, InvalidLabel);
  LabelId Next = 0;
  for (LabelId L = 0; L < Before; ++L)
    if (KeepLabel[L])
      NewId[L] = Next++;
  if (Next == Before)
    return 0;

  // Renumber in place: a kept label only moves down.
  for (LabelId L = 0; L < Before; ++L) {
    if (!KeepLabel[L])
      continue;
    CfgLabel &Lbl = Prog.Labels[L];
    size_t K = 0;
    for (LabelId T : Lbl.Targets)
      if (NewId[T] != InvalidLabel)
        Lbl.Targets[K++] = NewId[T];
    Lbl.Targets.resize(K);
    if (NewId[L] != L)
      Prog.Labels[NewId[L]] = std::move(Lbl);
  }
  Prog.Labels.resize(Next);

  for (CfgProc &P : Prog.Procs) {
    assert(NewId[P.Entry] != InvalidLabel &&
           "procedure entry labels must be kept");
    P.Entry = NewId[P.Entry];
    size_t K = 0;
    for (LabelId L : P.Labels)
      if (NewId[L] != InvalidLabel)
        P.Labels[K++] = NewId[L];
    P.Labels.resize(K);
  }
  return static_cast<unsigned>(Before - Next);
}

unsigned rmt::dropDeadProcs(CfgProgram &Prog, ProcId &Root) {
  size_t NumProcs = Prog.Procs.size();
  std::vector<char> Reach(NumProcs, 0);
  std::vector<ProcId> Work{Root};
  Reach[Root] = 1;
  while (!Work.empty()) {
    ProcId P = Work.back();
    Work.pop_back();
    for (ProcId C : Prog.calleesOf(P))
      if (!Reach[C]) {
        Reach[C] = 1;
        Work.push_back(C);
      }
  }

  unsigned Removed = 0;
  for (ProcId P = 0; P < NumProcs; ++P)
    if (!Reach[P])
      ++Removed;
  if (Removed == 0)
    return 0;

  // Drop the dead procedures' labels first (their entries go with them), then
  // renumber the surviving procedures.
  std::vector<ProcId> NewId(NumProcs, InvalidProc);
  ProcId NextProc = 0;
  for (ProcId P = 0; P < NumProcs; ++P)
    if (Reach[P])
      NewId[P] = NextProc++;

  std::vector<bool> KeepLabel(Prog.Labels.size());
  for (LabelId L = 0; L < Prog.Labels.size(); ++L)
    KeepLabel[L] = Reach[Prog.Labels[L].Proc] != 0;

  std::vector<CfgProc> NewProcs;
  NewProcs.reserve(NextProc);
  for (ProcId P = 0; P < NumProcs; ++P)
    if (Reach[P])
      NewProcs.push_back(std::move(Prog.Procs[P]));
  Prog.Procs = std::move(NewProcs);

  compactLabels(Prog, KeepLabel);

  for (CfgLabel &Lbl : Prog.Labels) {
    Lbl.Proc = NewId[Lbl.Proc];
    if (Lbl.Stmt.Kind == CfgStmtKind::Call) {
      assert(NewId[Lbl.Stmt.Callee] != InvalidProc &&
             "live label calls a dead procedure");
      Lbl.Stmt.Callee = NewId[Lbl.Stmt.Callee];
    }
  }
  Root = NewId[Root];
  assert(Root != InvalidProc);
  return Removed;
}

unsigned rmt::spliceSkips(CfgProgram &Prog) {
  size_t N = Prog.Labels.size();

  // Resolve each label to the labels that replace it as a jump target:
  // non-skips and skip returns stand for themselves; a skip with successors
  // stands for its resolved successors. Reverse-topological order makes this
  // a single pass. L resolves to Flat[Begin[L] .. Begin[L] + Count[L]).
  std::vector<uint32_t> Begin(N, 0), Count(N, 0);
  std::vector<LabelId> Flat;
  Flat.reserve(N);
  // Seen[X] == Stamp: X is already in the list being built.
  std::vector<uint32_t> Seen(N, 0);
  uint32_t Stamp = 0;
  auto AppendResolved = [&](LabelId T, std::vector<LabelId> &Out) {
    for (uint32_t I = Begin[T], E = Begin[T] + Count[T]; I < E; ++I) {
      LabelId X = Flat[I];
      if (Seen[X] != Stamp) {
        Seen[X] = Stamp;
        Out.push_back(X);
      }
    }
  };
  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    std::vector<LabelId> Topo = Prog.topoOrder(P);
    for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
      LabelId L = *It;
      const CfgLabel &Lbl = Prog.label(L);
      Begin[L] = static_cast<uint32_t>(Flat.size());
      if (!Lbl.Stmt.isSkip() || Lbl.Targets.empty()) {
        Flat.push_back(L);
      } else {
        ++Stamp;
        for (LabelId T : Lbl.Targets)
          AppendResolved(T, Flat);
      }
      Count[L] = static_cast<uint32_t>(Flat.size()) - Begin[L];
    }
  }

  // Rewire every target list through the resolution, and let a label whose
  // only remaining successor is a skip return (a no-op before returning)
  // return directly.
  std::vector<LabelId> NewTargets;
  for (CfgLabel &Lbl : Prog.Labels) {
    NewTargets.clear();
    ++Stamp;
    for (LabelId T : Lbl.Targets)
      AppendResolved(T, NewTargets);
    if (NewTargets.size() == 1) {
      const CfgLabel &T = Prog.label(NewTargets[0]);
      if (T.Stmt.isSkip() && T.Targets.empty())
        NewTargets.clear();
    }
    Lbl.Targets.assign(NewTargets.begin(), NewTargets.end());
  }

  // Fast-forward entries through straight-line skips.
  for (CfgProc &P : Prog.Procs) {
    for (;;) {
      const CfgLabel &E = Prog.label(P.Entry);
      if (!E.Stmt.isSkip() || E.Targets.size() != 1)
        break;
      P.Entry = E.Targets[0];
    }
  }

  // Sweep everything the rewiring orphaned.
  return compactLabels(Prog, entryReachableLabels(Prog));
}

//===----------------------------------------------------------------------===//
// The prepass pipeline
//===----------------------------------------------------------------------===//

void PrepassReport::record(Stats &S) const {
  S.add("prepass.labels.before", static_cast<int64_t>(LabelsBefore));
  S.add("prepass.labels.after", static_cast<int64_t>(LabelsAfter));
  S.add("prepass.procs.before", static_cast<int64_t>(ProcsBefore));
  S.add("prepass.procs.after", static_cast<int64_t>(ProcsAfter));
  S.add("prepass.labels.spliced", SplicedLabels);
  S.add("prepass.stmts.sliced", SlicedStmts);
  S.add("prepass.calls.elided", ElidedCalls);
  S.add("prepass.procs.dead", DeadProcs);
  S.add("prepass.inv.conjuncts", InvariantConjuncts);
}

std::string PrepassReport::str() const {
  std::string Out;
  Out += "labels " + std::to_string(LabelsBefore) + " -> " +
         std::to_string(LabelsAfter);
  Out += ", procs " + std::to_string(ProcsBefore) + " -> " +
         std::to_string(ProcsAfter);
  Out += " (sliced " + std::to_string(SlicedStmts) + ", spliced " +
         std::to_string(SplicedLabels) + ", elided calls " +
         std::to_string(ElidedCalls) + ", dead procs " +
         std::to_string(DeadProcs) + ")";
  if (!PipelineErrors.empty())
    Out += " PIPELINE ABORTED: " + PipelineErrors.front();
  return Out;
}
