//===- PassManager.cpp ----------------------------------------------------===//

#include "analysis/PassManager.h"

#include "analysis/Gvn.h"
#include "analysis/InvariantGen.h"
#include "analysis/Slicer.h"
#include "analysis/VerifyCfg.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Builtin passes
//===----------------------------------------------------------------------===//

namespace {

class GvnPass : public Pass {
public:
  std::string_view name() const override { return "gvn"; }
  std::string_view description() const override {
    return "value numbering: propagation, literal folding, assume pruning";
  }
  bool run(PassContext &PC) override {
    GvnReport R = runGvn(PC.Ctx, PC.Prog);
    PC.Report.PropagatedExprs += R.PropagatedExprs;
    PC.Report.RedundantAssumes += R.RedundantAssumes;
    PC.Report.ContradictedAssumes += R.ContradictedAssumes;
    return R.total() != 0;
  }
};

class SlicePass : public Pass {
public:
  std::string_view name() const override { return "slice"; }
  std::string_view description() const override {
    return "cone-of-influence slicing against the reachability query";
  }
  bool run(PassContext &PC) override {
    SliceReport R = sliceForQuery(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
    PC.Report.SlicedStmts += R.StmtsDropped;
    PC.Report.ElidedCalls += R.CallsElided;
    return R.StmtsDropped + R.HavocVarsDropped + R.CallsElided != 0;
  }
};

class SplicePass : public Pass {
public:
  std::string_view name() const override { return "splice"; }
  std::string_view description() const override {
    return "splice out `assume true` skips, sweep unreachable labels";
  }
  bool run(PassContext &PC) override {
    unsigned Removed = spliceSkips(PC.Prog);
    PC.Report.SplicedLabels += Removed;
    return Removed != 0;
  }
};

class DeadProcPass : public Pass {
public:
  std::string_view name() const override { return "deadproc"; }
  std::string_view description() const override {
    return "drop procedures unreachable from the root";
  }
  bool run(PassContext &PC) override {
    unsigned Removed = dropDeadProcs(PC.Prog, PC.Root);
    PC.Report.DeadProcs += Removed;
    return Removed != 0;
  }
};

/// Backward live-variable lattice for the lint-audit pass. Liveness is
/// over-approximated — calls keep their callee's transitive global reads
/// live and never kill the globals they write, and every global and return
/// variable is observable at exit — so a store flagged dead really is
/// unobservable.
struct AuditLiveness {
  using Value = std::set<Symbol>;
  static constexpr FlowDirection Direction = FlowDirection::Backward;

  const std::vector<ProcEffects> &FX;
  std::set<Symbol> Observable;

  Value bottom() const { return {}; }
  Value boundary() const { return Observable; }
  bool join(Value &Into, const Value &From) const {
    size_t N = Into.size();
    Into.insert(From.begin(), From.end());
    return Into.size() != N;
  }
  Value transfer(LabelId, const CfgStmt &S, const Value &Out) const {
    Value In = Out;
    switch (S.Kind) {
    case CfgStmtKind::Assume:
      collectExprVars(S.E, In);
      break;
    case CfgStmtKind::Assign:
      // Strong update: the right-hand side only matters if someone later
      // reads the target.
      if (In.erase(S.Target))
        collectExprVars(S.E, In);
      break;
    case CfgStmtKind::Havoc:
      for (Symbol V : S.Vars)
        In.erase(V);
      break;
    case CfgStmtKind::Call:
      for (Symbol V : S.Vars)
        In.erase(V);
      for (const Expr *A : S.Args)
        collectExprVars(A, In);
      In.insert(FX[S.Callee].UseGlobals.begin(),
                FX[S.Callee].UseGlobals.end());
      break;
    }
    return In;
  }
};

class LintAuditPass : public Pass {
public:
  std::string_view name() const override { return "lint"; }
  std::string_view description() const override {
    return "audit residual dead stores and unreachable labels (read-only)";
  }
  bool run(PassContext &PC) override {
    const CfgProgram &Prog = PC.Prog;
    std::vector<ProcEffects> FX = computeProcEffects(Prog);
    std::set<Symbol> Globals;
    for (const VarDecl &G : Prog.Globals)
      Globals.insert(G.Name);

    for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
      const CfgProc &Proc = Prog.proc(P);

      // Entry-reachability sweep over the flow graph.
      std::vector<char> Reached(Prog.Labels.size(), 0);
      std::vector<LabelId> Work{Proc.Entry};
      Reached[Proc.Entry] = 1;
      while (!Work.empty()) {
        LabelId L = Work.back();
        Work.pop_back();
        for (LabelId T : Prog.label(L).Targets)
          if (!Reached[T]) {
            Reached[T] = 1;
            Work.push_back(T);
          }
      }

      AuditLiveness A{FX, Globals};
      for (const VarDecl &R : Proc.Returns)
        A.Observable.insert(R.Name);
      ProcFlow Flow(Prog, P);
      DataflowSolver<AuditLiveness> Solver(Flow, A);
      Solver.solve();

      for (LabelId L : Proc.Labels) {
        if (!Reached[L]) {
          ++PC.Report.AuditUnreachableLabels;
          continue; // don't double-count its statement as a dead store
        }
        const CfgStmt &S = Prog.label(L).Stmt;
        if (S.Kind == CfgStmtKind::Assign && !Solver.post(L).count(S.Target))
          ++PC.Report.AuditDeadStores;
      }
    }
    return false; // read-only: only report counters change
  }
};

class InvariantPass : public Pass {
public:
  std::string_view name() const override { return "inv"; }
  std::string_view description() const override {
    return "inject interval invariants at procedure entries (+Inv)";
  }
  bool run(PassContext &PC) override {
    InvariantReport R = injectInvariants(PC.Ctx, PC.Prog, PC.Root);
    PC.Report.InvariantConjuncts += R.Conjuncts;
    return R.Conjuncts != 0;
  }
};

template <typename P> std::unique_ptr<Pass> make() {
  return std::make_unique<P>();
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::instance() {
  static PassRegistry R = [] {
    PassRegistry Reg;
    // Registration order defines the default pipeline order.
    Reg.registerPass("gvn", make<GvnPass>);
    Reg.registerPass("slice", make<SlicePass>);
    Reg.registerPass("splice", make<SplicePass>);
    Reg.registerPass("deadproc", make<DeadProcPass>);
    Reg.registerPass("lint", make<LintAuditPass>);
    Reg.registerPass("inv", make<InvariantPass>);
    return Reg;
  }();
  return R;
}

void PassRegistry::registerPass(std::string_view Name, Factory Make) {
  for (auto &[N, F] : Factories)
    if (N == Name) {
      F = Make;
      return;
    }
  Factories.emplace_back(std::string(Name), Make);
}

std::unique_ptr<Pass> PassRegistry::create(std::string_view Name) const {
  for (const auto &[N, F] : Factories)
    if (N == Name)
      return F();
  return nullptr;
}

std::vector<std::string> PassRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Factories.size());
  for (const auto &[N, F] : Factories)
    Out.push_back(N);
  return Out;
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

std::string PassPipeline::str() const {
  std::string Out;
  for (const auto &P : Passes) {
    if (!Out.empty())
      Out += ",";
    Out += P->name();
  }
  return Out;
}

std::optional<PassPipeline> PassPipeline::parse(std::string_view Spec,
                                                std::string *Error) {
  PassPipeline PL;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string_view::npos)
      Comma = Spec.size();
    std::string_view Name = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    while (!Name.empty() && Name.front() == ' ')
      Name.remove_prefix(1);
    while (!Name.empty() && Name.back() == ' ')
      Name.remove_suffix(1);
    if (Name.empty())
      continue;
    std::unique_ptr<Pass> P = PassRegistry::instance().create(Name);
    if (!P) {
      if (Error) {
        *Error = "unknown pass '" + std::string(Name) + "' (available:";
        for (const std::string &N : PassRegistry::instance().names())
          *Error += " " + N;
        *Error += ")";
      }
      return std::nullopt;
    }
    PL.append(std::move(P));
  }
  return PL;
}

std::vector<std::string> PassPipeline::run(PassContext &PC,
                                           const PipelineOptions &Opts,
                                           Stats *S) const {
  auto Verify = [&](std::string_view After) {
    std::vector<std::string> Bad =
        verifyCfg(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
    for (std::string &Msg : Bad)
      Msg = "VerifyCfg after " + std::string(After) + ": " + Msg;
    return Bad;
  };

  if (Opts.VerifyEach)
    if (std::vector<std::string> Bad = Verify("pipeline input"); !Bad.empty())
      return Bad;

  for (const auto &P : Passes) {
    std::string Name(P->name());
    TraceSpan Span(Opts.Telemetry, "pass." + Name);
    Stopwatch Watch;
    bool Changed = P->run(PC);
    Span.note({"changed", Changed ? 1 : 0});
    Span.close();
    if (S) {
      S->addTime("pass." + Name + ".seconds", Watch.seconds());
      S->add("pass." + Name + ".runs");
      if (Changed)
        S->add("pass." + Name + ".changed");
    }
    if (Opts.PrintAfterAll && Changed)
      std::fprintf(stderr, "*** IR after pass '%s' ***\n%s\n", Name.c_str(),
                   PC.Prog.str(PC.Ctx).c_str());
    if (Opts.VerifyEach)
      if (std::vector<std::string> Bad = Verify("pass '" + Name + "'");
          !Bad.empty())
        return Bad;
  }
  return {};
}

//===----------------------------------------------------------------------===//
// runPrepass — the options-driven entry point
//===----------------------------------------------------------------------===//

std::string PrepassOptions::spec() const {
  if (!Invariants)
    return Passes;
  return Passes.empty() ? "inv" : Passes + ",inv";
}

PrepassReport rmt::runPrepass(AstContext &Ctx, CfgProgram &Prog, ProcId &Root,
                              std::optional<Symbol> ErrGlobal,
                              const PrepassOptions &Opts, Stats *S) {
  PrepassReport R;
  R.LabelsBefore = Prog.Labels.size();
  R.ProcsBefore = Prog.Procs.size();

  std::string Error;
  std::optional<PassPipeline> PL = PassPipeline::parse(Opts.spec(), &Error);
  if (!PL) {
    R.PipelineErrors.push_back(Error);
    R.LabelsAfter = R.LabelsBefore;
    R.ProcsAfter = R.ProcsBefore;
    return R;
  }

  PipelineOptions PO;
  PO.VerifyEach = Opts.VerifyEach || std::getenv("RMT_VERIFY_EACH") != nullptr;
  PO.PrintAfterAll = Opts.PrintAfterAll;
  PO.Telemetry = Opts.Telemetry;

  TraceSpan Span(PO.Telemetry, "prepass.pipeline",
                 {{"passes", PL->str()}, {"labels", R.LabelsBefore}});
  PassContext PC{Ctx, Prog, Root, ErrGlobal, R};
  R.PipelineErrors = PL->run(PC, PO, S);
  Span.note({"labels_after", Prog.Labels.size()});
  Span.close();

  R.LabelsAfter = Prog.Labels.size();
  R.ProcsAfter = Prog.Procs.size();
  return R;
}
