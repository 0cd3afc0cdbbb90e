//===- Lint.cpp -----------------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/Dataflow.h"
#include "cfg/Lower.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

using namespace rmt;

namespace {

//===----------------------------------------------------------------------===//
// Havoc-of-undeclared (direct AST walk; the checker rejects these for parsed
// programs, but builder-API programs reach verification unchecked)
//===----------------------------------------------------------------------===//

void checkHavocs(const AstContext &Ctx, const Stmt *S,
                 const std::set<Symbol> &Scope,
                 std::vector<std::pair<SrcLoc, std::string>> &Out) {
  switch (S->kind()) {
  case StmtKind::Havoc:
    for (Symbol V : S->havocVars())
      if (!Scope.count(V))
        Out.push_back({S->loc(), "havoc of undeclared variable '" +
                                     Ctx.name(V) + "'"});
    return;
  case StmtKind::If:
    for (const Stmt *C : S->thenBlock())
      checkHavocs(Ctx, C, Scope, Out);
    for (const Stmt *C : S->elseBlock())
      checkHavocs(Ctx, C, Scope, Out);
    return;
  case StmtKind::While:
    for (const Stmt *C : S->loopBody())
      checkHavocs(Ctx, C, Scope, Out);
    return;
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Lintable CFG: asserts become empty branches, loops unroll
//===----------------------------------------------------------------------===//

const Stmt *rewriteForLint(AstContext &Ctx, const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Assert:
    // Keep the condition as a read without requiring instrumentation.
    return Ctx.ifStmt(S->condition(), {}, {}, S->loc());
  case StmtKind::If: {
    std::vector<const Stmt *> T, E;
    for (const Stmt *C : S->thenBlock())
      T.push_back(rewriteForLint(Ctx, C));
    for (const Stmt *C : S->elseBlock())
      E.push_back(rewriteForLint(Ctx, C));
    return Ctx.ifStmt(S->guard(), std::move(T), std::move(E), S->loc());
  }
  case StmtKind::While: {
    std::vector<const Stmt *> B;
    for (const Stmt *C : S->loopBody())
      B.push_back(rewriteForLint(Ctx, C));
    return Ctx.whileStmt(S->guard(), std::move(B), S->loc());
  }
  default:
    return S;
  }
}

//===----------------------------------------------------------------------===//
// Definite assignment (forward, intersection join)
//===----------------------------------------------------------------------===//

/// Set of definitely-assigned tracked variables; Universe is the join
/// identity ("unreachable: everything is assigned").
struct DefinedSet {
  bool Universe = false;
  std::set<Symbol> Defined;
};

class DefiniteAssignment {
public:
  using Value = DefinedSet;
  static constexpr FlowDirection Direction = FlowDirection::Forward;

  Value bottom() const { return {true, {}}; }
  Value boundary() const { return {false, {}}; }

  void join(Value &Into, const Value &From) const {
    if (From.Universe)
      return;
    if (Into.Universe) {
      Into = From;
      return;
    }
    std::erase_if(Into.Defined,
                  [&](Symbol V) { return !From.Defined.count(V); });
  }

  void transfer(LabelId, const CfgStmt &S, Value &X) const {
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      break;
    case CfgStmtKind::Assign:
      X.Defined.insert(S.Target);
      break;
    case CfgStmtKind::Havoc:
    case CfgStmtKind::Call:
      X.Defined.insert(S.Vars.begin(), S.Vars.end());
      break;
    }
  }
};

//===----------------------------------------------------------------------===//
// Plain liveness (backward; dead-store detection)
//===----------------------------------------------------------------------===//

/// Regular liveness with a maximally conservative call transfer (the callee
/// may read any global), so it stays sound on recursive programs without
/// needing call-graph summaries.
class PlainLiveness {
public:
  using Value = std::set<Symbol>;
  static constexpr FlowDirection Direction = FlowDirection::Backward;

  PlainLiveness(Value ExitLive, Value Globals)
      : ExitLive(std::move(ExitLive)), Globals(std::move(Globals)) {}

  Value bottom() const { return {}; }
  Value boundary() const { return ExitLive; }

  void join(Value &Into, const Value &From) const {
    Into.insert(From.begin(), From.end());
  }

  /// Pre holds the post-state and becomes the pre-state.
  void transfer(LabelId, const CfgStmt &S, Value &Pre) const {
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      collectExprVars(S.E, Pre);
      break;
    case CfgStmtKind::Assign:
      Pre.erase(S.Target);
      collectExprVars(S.E, Pre);
      break;
    case CfgStmtKind::Havoc:
      for (Symbol V : S.Vars)
        Pre.erase(V);
      break;
    case CfgStmtKind::Call:
      for (Symbol V : S.Vars)
        Pre.erase(V);
      for (const Expr *A : S.Args)
        collectExprVars(A, Pre);
      for (Symbol G : Globals)
        Pre.insert(G);
      break;
    }
  }

private:
  Value ExitLive;
  Value Globals;
};

/// Reads of a CFG statement.
void stmtReads(const CfgStmt &S, std::set<Symbol> &Out) {
  switch (S.Kind) {
  case CfgStmtKind::Assume:
  case CfgStmtKind::Assign:
    collectExprVars(S.E, Out);
    break;
  case CfgStmtKind::Havoc:
    break;
  case CfgStmtKind::Call:
    for (const Expr *A : S.Args)
      collectExprVars(A, Out);
    break;
  }
}

using LocKey = std::pair<unsigned, unsigned>;
LocKey keyOf(SrcLoc Loc) { return {Loc.Line, Loc.Col}; }

} // namespace

//===----------------------------------------------------------------------===//
// The pass
//===----------------------------------------------------------------------===//

LintSeverity rmt::lintSeverityOf(LintCheck Check) {
  switch (Check) {
  case LintCheck::UseBeforeDef:
  case LintCheck::UndeclaredHavoc:
    return LintSeverity::Error;
  case LintCheck::UnreachableCode:
  case LintCheck::DeadStore:
    return LintSeverity::Warning;
  }
  return LintSeverity::Warning;
}

LintReport rmt::lintProgram(AstContext &Ctx, const Program &Prog,
                            DiagEngine &Diags) {
  LintReport Report;
  // (loc, message) per category; deduped, then emitted in source order.
  std::vector<std::pair<SrcLoc, std::string>> Found[4];
  enum { UBD, Unreach, Dead, BadHavoc };

  // --- Havoc of undeclared variables (structured AST) ---------------------
  std::set<Symbol> GlobalScope;
  for (const VarDecl &G : Prog.Globals)
    GlobalScope.insert(G.Name);
  for (const Procedure &P : Prog.Procedures) {
    std::set<Symbol> Scope = GlobalScope;
    for (const std::vector<VarDecl> *Vars : {&P.Params, &P.Returns, &P.Locals})
      for (const VarDecl &V : *Vars)
        Scope.insert(V.Name);
    for (const Stmt *S : P.Body)
      checkHavocs(Ctx, S, Scope, Found[BadHavoc]);
  }

  // --- Build the lintable CFG ---------------------------------------------
  Program Rewritten;
  Rewritten.Globals = Prog.Globals;
  for (const Procedure &P : Prog.Procedures) {
    Procedure Q = P;
    Q.Body.clear();
    for (const Stmt *S : P.Body)
      Q.Body.push_back(rewriteForLint(Ctx, S));
    Rewritten.Procedures.push_back(std::move(Q));
  }
  // Two loop copies keep loop-carried definitions from reading as dead
  // stores or use-before-def.
  Program Bounded = unrollLoops(Ctx, Rewritten, 2);
  CfgProgram Cfg = lowerToCfg(Ctx, Bounded);

  std::set<Symbol> Globals = GlobalScope;

  // Structural reachability from each procedure's entry.
  std::vector<bool> Reachable = entryReachableLabels(Cfg);

  for (ProcId P = 0; P < Cfg.Procs.size(); ++P) {
    const CfgProc &Proc = Cfg.proc(P);

    // --- Unreachable code: a source location is dead only when no copy of
    // it is reachable (loop copies and branch joins share locations).
    std::map<LocKey, bool> AnyReachableAt;
    for (LabelId L : Proc.Labels) {
      SrcLoc Loc = Cfg.label(L).Loc;
      if (!Loc.isValid())
        continue;
      AnyReachableAt[keyOf(Loc)] |= Reachable[L];
    }
    for (LabelId L : Proc.Labels) {
      SrcLoc Loc = Cfg.label(L).Loc;
      if (Loc.isValid() && !AnyReachableAt[keyOf(Loc)])
        Found[Unreach].push_back({Loc, "unreachable code"});
    }

    std::set<Symbol> Tracked;
    for (const VarDecl &V : Proc.Locals)
      Tracked.insert(V.Name);
    for (const VarDecl &V : Proc.Returns)
      Tracked.insert(V.Name);

    // --- Use-before-def: flag a read when any copy can reach it undefined.
    {
      ProcFlow Flow(Cfg, P);
      DefiniteAssignment A;
      DataflowSolver<DefiniteAssignment> Solver;
      Solver.solve(Flow, A);
      for (LabelId L : Proc.Labels) {
        if (!Reachable[L])
          continue;
        const DefinedSet &In = Solver.pre(L);
        if (In.Universe)
          continue;
        std::set<Symbol> Reads;
        stmtReads(Cfg.label(L).Stmt, Reads);
        for (Symbol V : Reads)
          if (Tracked.count(V) && !In.Defined.count(V))
            Found[UBD].push_back(
                {Cfg.label(L).Loc, "variable '" + Ctx.name(V) +
                                       "' may be used before it is assigned"});
      }
    }

    // --- Dead stores: flag an assignment only when every copy is dead.
    {
      std::set<Symbol> ExitLive = Globals;
      for (const VarDecl &V : Proc.Returns)
        ExitLive.insert(V.Name);
      ProcFlow Flow(Cfg, P);
      PlainLiveness A(std::move(ExitLive), Globals);
      DataflowSolver<PlainLiveness> Solver;
      Solver.solve(Flow, A);

      std::map<std::pair<LocKey, Symbol>, bool> AnyLiveStore;
      for (LabelId L : Proc.Labels) {
        const CfgStmt &S = Cfg.label(L).Stmt;
        SrcLoc Loc = Cfg.label(L).Loc;
        if (S.Kind != CfgStmtKind::Assign || !Loc.isValid() ||
            !Tracked.count(S.Target) || !Reachable[L])
          continue;
        AnyLiveStore[{keyOf(Loc), S.Target}] |=
            Solver.post(L).count(S.Target) != 0;
      }
      for (const auto &[Key, Live] : AnyLiveStore)
        if (!Live)
          Found[Dead].push_back(
              {SrcLoc{Key.first.first, Key.first.second},
               "dead store to '" + Ctx.name(Key.second) + "'"});
    }
  }

  // --- Dedup, classify, and emit in source order --------------------------
  unsigned *Counters[4] = {&Report.UseBeforeDef, &Report.UnreachableCode,
                           &Report.DeadStores, &Report.UndeclaredHavocs};
  LintCheck Checks[4] = {LintCheck::UseBeforeDef, LintCheck::UnreachableCode,
                         LintCheck::DeadStore, LintCheck::UndeclaredHavoc};
  for (int C : {UBD, Unreach, Dead, BadHavoc}) {
    std::set<std::tuple<unsigned, unsigned, std::string>> Seen;
    std::vector<std::pair<SrcLoc, std::string>> Unique;
    for (auto &[Loc, Msg] : Found[C])
      if (Seen.insert({Loc.Line, Loc.Col, Msg}).second)
        Unique.push_back({Loc, Msg});
    std::sort(Unique.begin(), Unique.end(), [](const auto &A, const auto &B) {
      return std::tie(A.first.Line, A.first.Col, A.second) <
             std::tie(B.first.Line, B.first.Col, B.second);
    });
    LintSeverity Sev = lintSeverityOf(Checks[C]);
    for (auto &[Loc, Msg] : Unique) {
      if (Sev == LintSeverity::Error)
        Diags.error(Loc, Msg);
      else
        Diags.warning(Loc, Msg);
      Report.Findings.push_back({Checks[C], Sev, Loc, Msg});
      ++*Counters[C];
    }
  }
  return Report;
}
