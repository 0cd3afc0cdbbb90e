//===- Engine.cpp ---------------------------------------------------------===//

#include "core/Engine.h"

#include "smt/Z3Solver.h"

#include <algorithm>
#include <cassert>

using namespace rmt;

void VerifyResult::record(Stats &S) const {
  S.add("engine.inlined", static_cast<int64_t>(NumInlined));
  S.add("engine.merged", static_cast<int64_t>(NumMerged));
  S.add("engine.solver_checks", static_cast<int64_t>(NumSolverChecks));
  S.add("engine.under_checks", static_cast<int64_t>(NumUnderChecks));
  S.add("engine.over_checks", static_cast<int64_t>(NumOverChecks));
  S.add("engine.iterations", static_cast<int64_t>(NumIterations));
  S.add("engine.disj_queries", static_cast<int64_t>(NumDisjQueries));
  S.add("engine.core_edges", static_cast<int64_t>(NumCoreEdges));
  S.add("engine.frontier.core_only", static_cast<int64_t>(NumCoreOnly));
  S.add("engine.verdict." + std::string(verdictName(Outcome)));
  if (!Proof.empty())
    S.add("engine.proof." + Proof);
  S.addTime("engine.seconds", Seconds);
  S.addTime("engine.solver.seconds", SolverSeconds);
  S.addTime("engine.merge_lookup.seconds", MergeLookupSeconds);
}

const char *rmt::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Bug:
    return "bug";
  case Verdict::Safe:
    return "safe";
  case Verdict::Timeout:
    return "timeout";
  case Verdict::ResourceOut:
    return "resourceout";
  case Verdict::Unknown:
    return "unknown";
  }
  return "?";
}

Inliner::Inliner(const AstContext &Ctx, const CfgProgram &Prog, ProcId Root,
                 TermArena &Arena, const StrategyOptions &Opts,
                 std::function<void(TermRef)> Sink, PvcMode Mode)
    : Vc(Ctx, Prog, Arena, std::move(Sink), Mode), Disj(Prog),
      Checker(Vc, Disj),
      Strategy(createStrategy(Opts, Vc, Checker, Disj, Root)) {
  NodeId N = Vc.genPvc(Root);
  Checker.onNewNode(N);
  Strategy->noteNewNode(N, InvalidEdge);
}

Inliner::Binding Inliner::resolve(EdgeId C) {
  Binding B;
  uint64_t DisjBefore = Checker.numDisjQueries();
  Stopwatch PickWatch;
  std::optional<NodeId> Picked = Strategy->pick(C);
  B.LookupSeconds = PickWatch.seconds();
  if (Picked) {
    assert(Checker.canBind(C, *Picked) &&
           "strategy returned an incompatible node");
    B.Node = *Picked;
    B.Merged = true;
  } else {
    B.Node = Vc.genPvc(Vc.edge(C).Callee);
    Checker.onNewNode(B.Node);
    Strategy->noteNewNode(B.Node, C);
  }
  B.DisjQueries = Checker.numDisjQueries() - DisjBefore;
  Vc.bindEdge(C, B.Node);
  Checker.onBind(C, B.Node);
  return B;
}

bool Inliner::inlineAll(size_t MaxNodes) {
  while (!Vc.openEdges().empty()) {
    if (Vc.numInlined() > MaxNodes)
      return false;
    resolve(Vc.openEdges().front());
  }
  return true;
}

namespace {

class Engine {
public:
  Engine(const AstContext &Ctx, const CfgProgram &Prog, ProcId Entry,
         std::optional<Symbol> ErrGlobal, const EngineOptions &Opts)
      : Ctx(Ctx), Prog(Prog), Entry(Entry), ErrGlobal(ErrGlobal), Opts(Opts),
        Budget(Opts.TimeoutSeconds),
        Solver(createZ3Solver(Arena, Opts.Telemetry)),
        In(Ctx, Prog, Entry, Arena, Opts.Strategy,
           [this](TermRef T) { Solver->assertTerm(T); }, Opts.Pvc),
        Vc(In.vc()) {}

  VerifyResult run() {
    TraceSpan RunSpan(Opts.Telemetry, "engine.run",
                      {{"entry", Ctx.name(Prog.proc(Entry).Name)},
                       {"mode", Opts.Eager ? "eager" : "stratified"},
                       {"strategy", strategyName(Opts.Strategy.Kind)}});
    // Line 28: Push(Control[Root]); plus the error-bit query. The Inliner
    // already pushed the root's pVC.
    Solver->assertTerm(Vc.node(0).Control);
    if (ErrGlobal)
      Solver->assertTerm(errOutTerm(0));

    if (Opts.Eager)
      runEager();
    else
      runStratified();
    RunSpan.note({"verdict", verdictName(Result.Outcome)});
    return finish();
  }

private:
  /// The Out-interface term of the error-bit global of \p N (a boolean
  /// constant; asserting it requires the error to be set on exit).
  TermRef errOutTerm(NodeId N) {
    assert(ErrGlobal && "no error global configured");
    for (size_t I = 0; I < Prog.Globals.size(); ++I)
      if (Prog.Globals[I].Name == *ErrGlobal)
        return Vc.node(N).Out[I];
    assert(false && "error global not found in program globals");
    return TermRef();
  }

  VerifyResult finish() {
    Result.Seconds = Budget.elapsed();
    Result.NumInlined = Vc.numInlined();
    Result.NumSolverChecks = Solver->numChecks();
    Result.NumDisjQueries = In.checker().numDisjQueries();
    if (Trace *T = Opts.Telemetry; T && T->enabled())
      T->instant("engine.verdict",
                 {{"verdict", verdictName(Result.Outcome)},
                  {"proof", Result.Proof},
                  {"reason", Result.Reason},
                  {"inlined", Result.NumInlined},
                  {"merged", Result.NumMerged},
                  {"solver_checks", Result.NumSolverChecks},
                  {"iterations", Result.NumIterations}});
    return Result;
  }

  bool outOfTime() {
    if (!Budget.expired())
      return false;
    undecided(Verdict::Timeout, "time budget exhausted");
    return true;
  }

  bool overInlineLimit() {
    if (Vc.numInlined() <= Opts.MaxInlined)
      return false;
    undecided(Verdict::ResourceOut, "inline limit of " +
                                        std::to_string(Opts.MaxInlined) +
                                        " instances exceeded");
    return true;
  }

  /// Ends the run on a check the solver could not decide.
  void solverGaveUp() {
    undecided(Budget.expired() ? Verdict::Timeout : Verdict::Unknown,
              "solver: " + Solver->reasonUnknown());
  }

  /// Ends the run undecided (Timeout, ResourceOut or Unknown) for \p Why.
  void undecided(Verdict V, std::string Why) {
    Result.Outcome = V;
    Result.Reason = std::move(Why);
  }

  /// Resolves open edge \p C through the Inliner and accounts for it.
  void resolveEdge(EdgeId C) {
    Inliner::Binding B = In.resolve(C);
    Result.MergeLookupSeconds += B.LookupSeconds;
    if (B.Merged)
      ++Result.NumMerged;
    if (Trace *T = Opts.Telemetry; T && T->enabled())
      T->instant(B.Merged ? "engine.merge" : "engine.inline",
                 {{"callee", Ctx.name(Prog.proc(Vc.edge(C).Callee).Name)},
                  {"disj_queries", B.DisjQueries},
                  {"lookup_us", B.LookupSeconds * 1e6}});
  }

  /// One solver check with telemetry and the per-check stat split. \p Under
  /// marks the under-approximate (open edges blocked) check; the eager
  /// engine's single exact check also counts as under (no open edges left).
  /// An unsat under-approximate check leaves its unsat core in Core; a Sat
  /// over-approximate check leaves the next frontier in Frontier.
  SolveResult timedCheck(const std::vector<TermRef> &Assumptions,
                         bool Under) {
    TraceSpan Span(Opts.Telemetry,
                   Under ? "engine.under_check" : "engine.over_check",
                   {{"open_edges", Vc.openEdges().size()}});
    Stopwatch Watch;
    SolveResult R = Solver->check(Assumptions, checkBudget());
    Result.SolverSeconds += Watch.seconds();
    if (Under)
      ++Result.NumUnderChecks;
    else
      ++Result.NumOverChecks;
    Span.note({"result", solveResultName(R)});
    if (Under && R == SolveResult::Unsat) {
      Core = Solver->unsatCore();
      Result.NumCoreEdges += Core.size();
      Span.note({"core", Core.size()});
    }
    if (!Under && R == SolveResult::Sat)
      Span.note({"entered", pickFrontier()});
    return R;
  }

  /// Fills Frontier, in open-edge order, with the open edges the solver's
  /// assignment enters and the open edges blocked in the last
  /// under-approximate check's core; returns how many it enters. Core holds
  /// ascending positions in openEdges(), which is unchanged since that
  /// check. The assignment is Z3's trail, not a model: the frontier is a
  /// heuristic, and the core alone already makes it non-empty.
  size_t pickFrontier() {
    const std::vector<EdgeId> &Open = Vc.openEdges();
    Frontier.clear();
    size_t Entered = 0;
    for (size_t I = 0, K = 0; I < Open.size(); ++I) {
      bool InCore = K < Core.size() && Core[K] == I;
      K += InCore;
      if (Solver->assignedTrue(Vc.edge(Open[I]).Control)) {
        Frontier.push_back(Open[I]);
        ++Entered;
      } else if (InCore) {
        Frontier.push_back(Open[I]);
        ++Result.NumCoreOnly;
      }
    }
    return Entered;
  }

  /// Eager mode is the stratified loop after full inlining: with no open
  /// edges left, its first under-approximate check is the exact one.
  void runEager() {
    // Fully unfold: FIFO over open edges.
    while (!Vc.openEdges().empty()) {
      if (outOfTime() || overInlineLimit())
        return;
      resolveEdge(Vc.openEdges().front());
    }
    runStratified();
  }

  void runStratified() {
    for (;;) {
      ++Result.NumIterations;
      TraceSpan Iter(Opts.Telemetry, "engine.iteration",
                     {{"iteration", Result.NumIterations},
                      {"open_edges", Vc.openEdges().size()},
                      {"inlined", Vc.numInlined()}});
      if (outOfTime() || overInlineLimit())
        return;

      // Under-approximate check: block every open call. A model is an
      // execution entirely within the inlined region — a real bug.
      std::vector<TermRef> Blocked;
      for (EdgeId E : Vc.openEdges())
        Blocked.push_back(Arena.mkNot(Vc.edge(E).Control));
      switch (timedCheck(Blocked, /*Under=*/true)) {
      case SolveResult::Sat:
        Result.Outcome = Verdict::Bug;
        extractTrace();
        return;
      case SolveResult::Unsat:
        break;
      case SolveResult::Unknown:
        solverGaveUp();
        return;
      }

      // Fully inlined and under-approximation unsat: exact answer.
      if (Vc.openEdges().empty()) {
        safe("fully_inlined");
        return;
      }
      // An empty core means the formula is unsat with no edge blocked: the
      // over-approximation is unsat too, so skip its check.
      if (Core.empty()) {
        safe("empty_core");
        return;
      }

      // Over-approximate check: open calls stay havoc summaries. Unsat here
      // proves safety without further inlining (SI's early stop).
      switch (timedCheck({}, /*Under=*/false)) {
      case SolveResult::Unsat:
        safe("over_unsat");
        return;
      case SolveResult::Unknown:
        solverGaveUp();
        return;
      case SolveResult::Sat:
        break;
      }

      // Inline the frontier the over-approximate check picked.
      for (EdgeId E : Frontier) {
        if (outOfTime() || overInlineLimit())
          return;
        resolveEdge(E);
      }
    }
  }

  /// Ends the run Safe; \p Proof names the check that proved it.
  void safe(const char *Proof) {
    Result.Outcome = Verdict::Safe;
    Result.Proof = Proof;
  }

  /// Per-check solver timeout from the remaining wall budget.
  double checkBudget() {
    if (!Budget.enabled())
      return 0;
    double Left = Budget.remaining();
    return Left < 0.001 ? 0.001 : Left;
  }

  //===--------------------------------------------------------------------===//
  // Trace reconstruction
  //===--------------------------------------------------------------------===//

  void extractTrace() { traceNode(0); }

  void traceNode(NodeId N) {
    const VcNode &Node = Vc.node(N);
    // Guard against pathological model shapes; flow graphs are acyclic so
    // |labels| steps suffice.
    size_t Fuel = Prog.proc(Node.Proc).Labels.size() + 1;
    LabelId Y = Node.Entry;
    if (!Solver->modelBool(Node.BlockConst.at(Y)))
      return;
    while (Fuel--) {
      TraceStep Step{Node.Proc, Y, Prog.label(Y).Loc, {}};
      // Capture the globals' model values at this label's entry state.
      const VarTermMap &Vars = Node.VarsAt.at(Y);
      Step.GlobalValues.reserve(Prog.Globals.size());
      for (const VarDecl &G : Prog.Globals) {
        TermRef T = Vars.at(G.Name);
        if (G.Ty->isBool())
          Step.GlobalValues.push_back(Solver->modelBool(T) ? "true" : "false");
        else if (G.Ty->isInt() || G.Ty->isBv())
          Step.GlobalValues.push_back(Solver->modelNumeral(T));
        else
          Step.GlobalValues.emplace_back(); // arrays are not rendered
      }
      Result.Trace.push_back(std::move(Step));
      const CfgLabel &Lbl = Prog.label(Y);
      if (Lbl.Stmt.Kind == CfgStmtKind::Call) {
        // Control[edge] equals BS[Y]; if the edge is bound and taken,
        // descend into the callee instance.
        for (EdgeId E : Node.OutEdges) {
          const VcEdge &Edge = Vc.edge(E);
          if (Edge.CallSite == Y && !Edge.isOpen() &&
              Solver->modelBool(Edge.Control)) {
            traceNode(Edge.Dest);
            break;
          }
        }
      }
      LabelId Next = InvalidLabel;
      for (LabelId T : Lbl.Targets)
        if (Solver->modelBool(Node.BlockConst.at(T))) {
          Next = T;
          break;
        }
      if (Next == InvalidLabel)
        return; // procedure exit
      Y = Next;
    }
  }

  const AstContext &Ctx;
  const CfgProgram &Prog;
  ProcId Entry;
  std::optional<Symbol> ErrGlobal;
  const EngineOptions &Opts;
  Deadline Budget;
  TermArena Arena;
  std::unique_ptr<rmt::Solver> Solver;
  Inliner In;
  const VcContext &Vc;
  VerifyResult Result;
  /// Unsat core of the last unsat under-approximate check: ascending
  /// positions in its assumptions, i.e. in openEdges() at that check.
  std::vector<unsigned> Core;
  /// Open edges to inline after a Sat over-approximate check (see
  /// pickFrontier).
  std::vector<EdgeId> Frontier;
};

} // namespace

VerifyResult rmt::solveReachability(const AstContext &Ctx,
                                    const CfgProgram &Prog, ProcId Entry,
                                    std::optional<Symbol> ErrGlobal,
                                    const EngineOptions &Opts) {
  Engine E(Ctx, Prog, Entry, ErrGlobal, Opts);
  return E.run();
}
