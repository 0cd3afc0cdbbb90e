//===- InvariantGen.cpp ---------------------------------------------------===//

#include "analysis/InvariantGen.h"

#include "ast/Ops.h"

using namespace rmt;

void AbsEnv::joinWith(const AbsEnv &O) {
  if (O.Bottom)
    return;
  if (Bottom) {
    *this = O;
    return;
  }
  // Missing keys are top; a key survives only if bounded on both sides. One
  // merge over the two sorted vectors, compacting this one in place.
  auto OIt = O.Vals.begin(), OEnd = O.Vals.end();
  size_t Kept = 0;
  for (size_t I = 0; I < Vals.size(); ++I) {
    Symbol Var = Vals[I].first;
    while (OIt != OEnd && OIt->first < Var)
      ++OIt;
    if (OIt == OEnd || OIt->first != Var)
      continue;
    Interval J = Vals[I].second.join(OIt->second);
    if (!J.isTop())
      Vals[Kept++] = {Var, J};
  }
  Vals.resize(Kept);
}

AbsEnv AbsEnv::widen(const AbsEnv &Old, const AbsEnv &New) {
  if (Old.isBottom())
    return New; // first value: nothing to widen against
  if (New.isBottom())
    return New;
  AbsEnv Out;
  // Missing keys are top; only keys present in both can keep bounds. A
  // bound that did not move since the previous iterate survives; one that
  // moved jumps to the threshold 0 if the new bound is still on its side,
  // else to infinity. New is sorted, so Out is built in order.
  auto OldIt = Old.Vals.begin(), OldEnd = Old.Vals.end();
  for (const auto &[Var, NewI] : New.Vals) {
    while (OldIt != OldEnd && OldIt->first < Var)
      ++OldIt;
    if (OldIt == OldEnd || OldIt->first != Var)
      continue; // absent before, so top then: the bound moved
    const Interval &OldI = OldIt->second;
    Interval W = Interval::top();
    if (NewI.hasLo() && OldI.hasLo()) {
      if (NewI.lo() == OldI.lo())
        W = W.meet(Interval::atLeast(NewI.lo()));
      else if (NewI.lo() >= 0)
        W = W.meet(Interval::atLeast(0));
    }
    if (NewI.hasHi() && OldI.hasHi()) {
      if (NewI.hi() == OldI.hi())
        W = W.meet(Interval::atMost(NewI.hi()));
      else if (NewI.hi() <= 0)
        W = W.meet(Interval::atMost(0));
    }
    if (!W.isTop())
      Out.Vals.push_back({Var, W});
  }
  return Out;
}

/// Call post-states come from the callee summaries: a bottom summary means
/// "no terminated execution of the callee is known (yet)", so the
/// continuation is unreachable. During the ascending iteration this is the
/// least-fixpoint reading; at the fixpoint it is exact (callees always
/// terminate control-wise, so a reachable call's callee has a non-bottom
/// summary).
struct rmt::IntervalFlow {
  using Value = AbsEnv;
  static constexpr FlowDirection Direction = FlowDirection::Forward;

  const CfgProgram &Prog;
  const CfgProc &Proc;
  /// Constrains globals and parameters only; returns and locals start
  /// nondeterministic (which "top" already expresses).
  const AbsEnv &Entry;
  const std::vector<AbsEnv> &CallSummaries;

  Value bottom() const { return AbsEnv::bottomEnv(); }
  Value boundary() const { return Entry; }
  void join(Value &Into, const Value &From) const { Into.joinWith(From); }

  void transfer(LabelId, const CfgStmt &S, AbsEnv &X) const {
    if (X.isBottom())
      return; // unreachable label or dead branch
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      X.assume(S.E);
      break;
    case CfgStmtKind::Assign:
      X.set(S.Target, X.eval(S.E));
      break;
    case CfgStmtKind::Havoc:
      for (Symbol V : S.Vars)
        X.set(V, Proc.typeOf(V) && Proc.typeOf(V)->isBool()
                     ? Interval::boolTop()
                     : Interval::top());
      break;
    case CfgStmtKind::Call: {
      // Globals and results come from the callee's summary.
      const AbsEnv &Summary = CallSummaries[S.Callee];
      if (Summary.isBottom()) {
        X = Summary;
        return;
      }
      const CfgProc &Callee = Prog.proc(S.Callee);
      for (const VarDecl &G : Prog.Globals)
        X.set(G.Name, Summary.get(G.Name));
      for (size_t I = 0; I < S.Vars.size(); ++I)
        X.set(S.Vars[I], Summary.get(Callee.Returns[I].Name));
      break;
    }
    }
  }
};

IntervalAnalysis::IntervalAnalysis(const CfgProgram &Prog, ProcId Entry)
    : Prog(Prog) {
  Flows.reserve(Prog.Procs.size());
  for (ProcId P = 0; P < Prog.Procs.size(); ++P)
    Flows.emplace_back(Prog, P);
  EntryEnvs.assign(Prog.Procs.size(), AbsEnv::bottomEnv());
  ContextExitSummaries.assign(Prog.Procs.size(), AbsEnv::bottomEnv());

  // Ascending Kleene iteration for entries + contextual exits. Entries
  // accumulate joins of call contexts; exits are recomputed from entries;
  // both only grow, and widening after WidenAfter rounds forces convergence
  // despite the interval domain's infinite ascending chains.
  std::vector<ProcId> BottomUp = Prog.bottomUpProcOrder();
  DataflowSolver<IntervalFlow> Solver;
  EntryEnvs[Entry] = AbsEnv();
  constexpr int WidenAfter = 3;
  constexpr int MaxRounds = 24;
  for (int Round = 0; Round < MaxRounds; ++Round) {
    std::vector<AbsEnv> PrevEntries = EntryEnvs;
    std::vector<AbsEnv> PrevExits = ContextExitSummaries;

    // Callers first: propagate contexts (Record joins into EntryEnvs).
    for (auto It = BottomUp.rbegin(); It != BottomUp.rend(); ++It)
      if (!EntryEnvs[*It].isBottom())
        solveProc(Solver, *It, EntryEnvs[*It], ContextExitSummaries,
                  /*Record=*/true);
    // Callees first: recompute contextual exits under the new entries.
    for (ProcId P : BottomUp)
      if (!EntryEnvs[P].isBottom())
        ContextExitSummaries[P] =
            solveProc(Solver, P, EntryEnvs[P], ContextExitSummaries,
                      /*Record=*/false);

    if (Round >= WidenAfter) {
      for (size_t I = 0; I < EntryEnvs.size(); ++I) {
        EntryEnvs[I] = AbsEnv::widen(PrevEntries[I], EntryEnvs[I]);
        ContextExitSummaries[I] =
            AbsEnv::widen(PrevExits[I], ContextExitSummaries[I]);
      }
    }
    if (EntryEnvs == PrevEntries && ContextExitSummaries == PrevExits)
      return; // post-fixpoint reached: sound to consume
  }
  // Did not stabilize within the round budget (should not happen: once
  // widening starts, each bound moves at most twice). Fall back to no
  // facts: every entry and every contextual exit is top, so nothing is
  // injected and nothing is proved.
  EntryEnvs.assign(Prog.Procs.size(), AbsEnv());
  ContextExitSummaries.assign(Prog.Procs.size(), AbsEnv());
}

AbsEnv IntervalAnalysis::solveProc(DataflowSolver<IntervalFlow> &Solver,
                                   ProcId P, const AbsEnv &Entry,
                                   const std::vector<AbsEnv> &CallSummaries,
                                   bool Record) {
  const CfgProc &Proc = Prog.proc(P);
  Solver.solve(Flows[P], IntervalFlow{Prog, Proc, Entry, CallSummaries});

  AbsEnv Exit = AbsEnv::bottomEnv();
  for (LabelId L : Proc.Labels) {
    const CfgLabel &Lbl = Prog.label(L);
    const AbsEnv &In = Solver.pre(L);
    if (Record && Lbl.Stmt.Kind == CfgStmtKind::Call && !In.isBottom()) {
      // Contribute this context to the callee's entry invariant.
      const CfgStmt &S = Lbl.Stmt;
      const CfgProc &Callee = Prog.proc(S.Callee);
      AbsEnv Context;
      for (const VarDecl &G : Prog.Globals)
        Context.set(G.Name, In.get(G.Name));
      for (size_t I = 0; I < Callee.Params.size(); ++I)
        Context.set(Callee.Params[I].Name, In.eval(S.Args[I]));
      EntryEnvs[S.Callee].joinWith(Context);
    }
    const AbsEnv &Out = Solver.post(L);
    if (!Lbl.Targets.empty() || Out.isBottom())
      continue;
    // Exit label: project onto globals and returns for the summary.
    AbsEnv Projected;
    for (const VarDecl &G : Prog.Globals)
      Projected.set(G.Name, Out.get(G.Name));
    for (const VarDecl &R : Proc.Returns)
      Projected.set(R.Name, Out.get(R.Name));
    Exit.joinWith(Projected);
  }
  return Exit;
}

Interval AbsEnv::eval(const Expr *E) const {
  if (Bottom)
    return Interval::bottom();
  // Bitvector values wrap; the (mathematical-integer) interval domain does
  // not model them. Any bv-valued expression is top; comparisons over bv
  // operands then evaluate over top operands, which is sound.
  if (E->type() && E->type()->isBv())
    return Interval::top();
  switch (E->kind()) {
  case ExprKind::IntLit:
    return Interval::constant(E->intValue());
  case ExprKind::BoolLit:
    return Interval::constant(E->boolValue() ? 1 : 0);
  case ExprKind::Var: {
    Interval I = get(E->var());
    if (E->type() && E->type()->isBool())
      return I.meet(Interval::boolTop());
    return I;
  }
  case ExprKind::Unary: {
    Interval Sub = eval(E->op0());
    if (E->unOp() == UnOp::Neg)
      return Sub.neg();
    // Boolean negation: 1 - x over [0,1].
    return Interval::constant(1).sub(Sub).meet(Interval::boolTop());
  }
  case ExprKind::Binary: {
    Interval L = eval(E->op0());
    Interval R = eval(E->op1());
    switch (E->binOp()) {
    case BinOp::Add:
      return L.add(R);
    case BinOp::Sub:
      return L.sub(R);
    case BinOp::Mul:
      return L.mul(R);
    case BinOp::Div:
      return Interval::top();
    case BinOp::Mod:
      // SMT-LIB mod with a positive constant divisor c lands in [0, c-1].
      if (R.isConstant() && R.lo() > 0)
        return Interval::bounded(0, R.lo() - 1);
      return Interval::top();
    case BinOp::Lt:
      return L.ltCmp(R);
    case BinOp::Le:
      return L.leCmp(R);
    case BinOp::Gt:
      return R.ltCmp(L);
    case BinOp::Ge:
      return R.leCmp(L);
    case BinOp::Eq:
      return L.eqCmp(R);
    case BinOp::Ne:
      return Interval::constant(1).sub(L.eqCmp(R)).meet(Interval::boolTop());
    case BinOp::And:
      if ((L.isConstant() && L.lo() == 0) || (R.isConstant() && R.lo() == 0))
        return Interval::constant(0);
      if (L.isConstant() && R.isConstant())
        return Interval::constant(1);
      return Interval::boolTop();
    case BinOp::Or:
      if ((L.isConstant() && L.lo() == 1) || (R.isConstant() && R.lo() == 1))
        return Interval::constant(1);
      if (L.isConstant() && R.isConstant())
        return Interval::constant(0);
      return Interval::boolTop();
    case BinOp::Implies:
      if (L.isConstant() && L.lo() == 0)
        return Interval::constant(1);
      if (L.isConstant() && L.lo() == 1)
        return R.meet(Interval::boolTop());
      return Interval::boolTop();
    case BinOp::Iff:
      if (L.isConstant() && R.isConstant())
        return Interval::constant(L.lo() == R.lo() ? 1 : 0);
      return Interval::boolTop();
    }
    return Interval::top();
  }
  case ExprKind::Ite: {
    Interval C = eval(E->op0());
    if (C.isConstant())
      return eval(C.lo() ? E->op1() : E->op2());
    return eval(E->op1()).join(eval(E->op2()));
  }
  case ExprKind::Select:
  case ExprKind::Store:
    // Array contents are not tracked.
    return Interval::top();
  }
  return Interval::top();
}

void AbsEnv::assume(const Expr *E, bool Positive) {
  if (Bottom)
    return;
  switch (E->kind()) {
  case ExprKind::BoolLit:
    if (E->boolValue() != Positive)
      *this = bottomEnv();
    return;
  case ExprKind::Var:
    set(E->var(), get(E->var()).meet(Interval::constant(Positive ? 1 : 0)));
    return;
  case ExprKind::Unary:
    if (E->unOp() == UnOp::Not)
      assume(E->op0(), !Positive);
    return;
  case ExprKind::Binary:
    break;
  default:
    return;
  }

  BinOp Op = E->binOp();
  if (Op == BinOp::And && Positive) {
    assume(E->op0(), true);
    assume(E->op1(), true);
    return;
  }
  if (Op == BinOp::Or && !Positive) {
    assume(E->op0(), false);
    assume(E->op1(), false);
    return;
  }
  if ((Op == BinOp::And && !Positive) || (Op == BinOp::Or && Positive)) {
    // One of the two operands takes the value Positive: the join of the two
    // one-sided narrowings.
    AbsEnv Other = *this;
    assume(E->op0(), Positive);
    Other.assume(E->op1(), Positive);
    joinWith(Other);
    return;
  }

  // Normalize comparisons to a positive operator.
  auto Negated = [](BinOp O) {
    switch (O) {
    case BinOp::Lt:
      return BinOp::Ge;
    case BinOp::Le:
      return BinOp::Gt;
    case BinOp::Gt:
      return BinOp::Le;
    case BinOp::Ge:
      return BinOp::Lt;
    case BinOp::Eq:
      return BinOp::Ne;
    case BinOp::Ne:
      return BinOp::Eq;
    default:
      return O;
    }
  };
  bool IsCmp = Op == BinOp::Lt || Op == BinOp::Le || Op == BinOp::Gt ||
               Op == BinOp::Ge || Op == BinOp::Eq || Op == BinOp::Ne;
  if (!IsCmp)
    return;
  if (!Positive)
    Op = Negated(Op);
  const Expr *L = E->op0();
  const Expr *R = E->op1();
  // Only integer comparisons refine (Eq/Ne over other types: skip).
  if (!L->type() || !L->type()->isInt())
    return;

  Interval LI = eval(L);
  Interval RI = eval(R);

  auto Clamp = [&](const Expr *Side, const Interval &NewBound) {
    if (Side->kind() != ExprKind::Var)
      return;
    set(Side->var(), get(Side->var()).meet(NewBound));
  };
  // Side <= Bound.hi - Strict and Side >= Bound.lo + Strict. A shifted bound
  // outside int64 is skipped, not bottom: `int` is the mathematical integer,
  // so `g > 9223372036854775807` is satisfiable.
  int64_t Strict = Op == BinOp::Lt || Op == BinOp::Gt ? 1 : 0;
  auto AtMost = [&](const Expr *Side, const Interval &Bound) {
    if (Bound.hasHi())
      if (auto V = foldIntArith(BinOp::Sub, Bound.hi(), Strict))
        Clamp(Side, Interval::atMost(*V));
  };
  auto AtLeast = [&](const Expr *Side, const Interval &Bound) {
    if (Bound.hasLo())
      if (auto V = foldIntArith(BinOp::Add, Bound.lo(), Strict))
        Clamp(Side, Interval::atLeast(*V));
  };

  switch (Op) {
  case BinOp::Lt: // L < R
  case BinOp::Le:
    AtMost(L, RI);
    AtLeast(R, LI);
    break;
  case BinOp::Gt: // L > R
  case BinOp::Ge:
    AtLeast(L, RI);
    AtMost(R, LI);
    break;
  case BinOp::Eq:
    Clamp(L, RI);
    Clamp(R, LI);
    break;
  case BinOp::Ne:
    // Only the singleton-vs-singleton contradiction is caught.
    if (LI.isConstant() && RI.isConstant() && LI.lo() == RI.lo())
      *this = bottomEnv();
    break;
  default:
    break;
  }
}

//===----------------------------------------------------------------------===//
// Injection
//===----------------------------------------------------------------------===//

namespace {

/// Interval constraints of variable \p Name under \p I, appended to
/// \p Conjuncts. Only int and bool variables are expressible.
void addVarConjuncts(AstContext &Ctx, const Interval &I, Symbol Name,
                     const Type *Ty, std::vector<const Expr *> &Conjuncts) {
  if (I.isTop() || !Ty || !(Ty->isInt() || Ty->isBool()))
    return;
  if (Ty->isBool()) {
    if (!I.isConstant())
      return;
    const Expr *V = Ctx.tVar(Name, Ty);
    Conjuncts.push_back(I.lo() ? V : Ctx.tUnary(UnOp::Not, V));
    return;
  }
  const Expr *V = Ctx.tVar(Name, Ty);
  if (I.hasLo())
    Conjuncts.push_back(Ctx.tBinary(BinOp::Le, Ctx.tInt(I.lo()), V));
  if (I.hasHi())
    Conjuncts.push_back(Ctx.tBinary(BinOp::Le, V, Ctx.tInt(I.hi())));
}

/// Appends a label `assume /\ Conjuncts` of \p Owner flowing to \p Targets
/// and returns it; the caller places it in the procedure's label list.
LabelId appendAssume(AstContext &Ctx, CfgProgram &Prog, ProcId Owner,
                     const std::vector<const Expr *> &Conjuncts,
                     std::vector<LabelId> Targets) {
  CfgLabel Lbl;
  Lbl.Stmt.Kind = CfgStmtKind::Assume;
  Lbl.Stmt.E = Ctx.tAnd(Conjuncts);
  Lbl.Proc = Owner;
  Lbl.Targets = std::move(Targets);
  Prog.Labels.push_back(std::move(Lbl));
  return static_cast<LabelId>(Prog.Labels.size() - 1);
}

} // namespace

InvariantReport rmt::injectInvariants(AstContext &Ctx, CfgProgram &Prog,
                                      ProcId Entry,
                                      std::optional<Symbol> ErrGlobal) {
  IntervalAnalysis Analysis(Prog, Entry);
  InvariantReport Report;

  const AbsEnv &RootExit = Analysis.contextExitSummary(Entry);
  Report.ProvesQuery =
      RootExit.isBottom() ||
      (ErrGlobal && RootExit.get(*ErrGlobal) == Interval::constant(0));

  // --- Entry invariants: `assume inv` spliced before each entry. ----------
  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    const AbsEnv &Env = Analysis.entryEnv(P);
    if (Env.isBottom())
      continue; // unreachable procedure: nothing to constrain
    CfgProc &Proc = Prog.Procs[P];

    std::vector<const Expr *> Conjuncts;
    for (const VarDecl &G : Prog.Globals)
      addVarConjuncts(Ctx, Env.get(G.Name), G.Name, G.Ty, Conjuncts);
    for (const VarDecl &D : Proc.Params)
      addVarConjuncts(Ctx, Env.get(D.Name), D.Name, D.Ty, Conjuncts);
    if (Conjuncts.empty())
      continue;

    Proc.Entry = appendAssume(Ctx, Prog, P, Conjuncts, {Proc.Entry});
    Proc.Labels.insert(Proc.Labels.begin(), Proc.Entry);

    ++Report.ProcsAnnotated;
    Report.Conjuncts += static_cast<unsigned>(Conjuncts.size());
  }

  // --- Call-site summaries: `assume post` spliced after each call. --------
  // These are what prune the engines' havoc summaries of open calls.
  size_t NumLabels = Prog.Labels.size(); // snapshot: we append below
  for (LabelId L = 0; L < NumLabels; ++L) {
    const CfgStmt &S = Prog.Labels[L].Stmt;
    if (S.Kind != CfgStmtKind::Call)
      continue;
    const AbsEnv &Summary = Analysis.contextExitSummary(S.Callee);
    if (Summary.isBottom())
      continue;
    const CfgProc &Callee = Prog.proc(S.Callee);
    ProcId Owner = Prog.Labels[L].Proc;

    std::vector<const Expr *> Conjuncts;
    for (const VarDecl &G : Prog.Globals)
      addVarConjuncts(Ctx, Summary.get(G.Name), G.Name, G.Ty, Conjuncts);
    // Result bindings inherit the callee's return-variable intervals.
    for (size_t I = 0; I < S.Vars.size(); ++I)
      addVarConjuncts(Ctx, Summary.get(Callee.Returns[I].Name), S.Vars[I],
                      Prog.proc(Owner).typeOf(S.Vars[I]), Conjuncts);
    if (Conjuncts.empty())
      continue;

    LabelId New =
        appendAssume(Ctx, Prog, Owner, Conjuncts, Prog.Labels[L].Targets);
    Prog.Labels[L].Targets.assign(1, New);
    Prog.Procs[Owner].Labels.push_back(New);

    Report.Conjuncts += static_cast<unsigned>(Conjuncts.size());
  }
  return Report;
}
