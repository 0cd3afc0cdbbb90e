//===- PassManager.cpp ----------------------------------------------------===//

#include "analysis/PassManager.h"

#include "analysis/InvariantGen.h"
#include "analysis/Slicer.h"
#include "analysis/VerifyCfg.h"
#include "support/Timer.h"

#include <cstdio>
#include <iterator>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Builtin passes
//===----------------------------------------------------------------------===//

namespace {

bool runSlicePass(PassContext &PC) {
  SliceReport R = sliceForQuery(PC.Ctx, PC.Prog, PC.ErrGlobal);
  PC.Report.SlicedStmts += R.StmtsDropped;
  PC.Report.ElidedCalls += R.CallsElided;
  return R.StmtsDropped + R.HavocVarsDropped + R.CallsElided != 0;
}

bool runSplicePass(PassContext &PC) {
  unsigned Removed = spliceSkips(PC.Prog);
  PC.Report.SplicedLabels += Removed;
  return Removed != 0;
}

bool runDeadProcPass(PassContext &PC) {
  unsigned Removed = dropDeadProcs(PC.Prog, PC.Root);
  PC.Report.DeadProcs += Removed;
  return Removed != 0;
}

bool runInvariantPass(PassContext &PC) {
  InvariantReport R =
      injectInvariants(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
  PC.Report.InvariantConjuncts += R.Conjuncts;
  PC.Report.InvariantsProveQuery |= R.ProvesQuery;
  return R.Conjuncts != 0;
}

constexpr PassInfo BuiltinTable[] = {
    {"slice", runSlicePass},
    {"splice", runSplicePass},
    {"deadproc", runDeadProcPass},
    {"inv", runInvariantPass},
};
static_assert(std::end(BuiltinTable)[-1].Name == "inv",
              "prepassPipeline drops the last pass without +Inv");

} // namespace

const std::span<const PassInfo> rmt::BuiltinPasses = BuiltinTable;

std::span<const PassInfo> rmt::prepassPipeline(bool Invariants) {
  return BuiltinPasses.first(BuiltinPasses.size() - (Invariants ? 0 : 1));
}

std::string rmt::passNames(std::span<const PassInfo> Passes) {
  std::string Names;
  for (const PassInfo &P : Passes)
    Names += (Names.empty() ? "" : ",") + std::string(P.Name);
  return Names;
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

std::vector<std::string>
rmt::runPasses(PassContext &PC, std::span<const PassInfo> Pipeline,
               bool VerifyEach, bool PrintAfterAll, Trace *Telemetry,
               Stats *S) {
  auto Verify = [&](std::string_view After) {
    std::vector<std::string> Bad =
        verifyCfg(PC.Ctx, PC.Prog, PC.Root, PC.ErrGlobal);
    for (std::string &Msg : Bad)
      Msg = "VerifyCfg after " + std::string(After) + ": " + Msg;
    return Bad;
  };

  if (VerifyEach)
    if (std::vector<std::string> Bad = Verify("pipeline input"); !Bad.empty())
      return Bad;

  for (const PassInfo &P : Pipeline) {
    std::string Name(P.Name);
    TraceSpan Span(Telemetry, "pass." + Name);
    Stopwatch Watch;
    bool Changed = P.Run(PC);
    Span.note({"changed", Changed ? 1 : 0});
    Span.close();
    if (S) {
      S->addTime("pass." + Name + ".seconds", Watch.seconds());
      S->add("pass." + Name + ".runs");
      if (Changed)
        S->add("pass." + Name + ".changed");
    }
    if (PrintAfterAll && Changed)
      std::fprintf(stderr, "*** IR after pass '%s' ***\n%s\n", Name.c_str(),
                   PC.Prog.str(PC.Ctx).c_str());
    if (VerifyEach)
      if (std::vector<std::string> Bad = Verify("pass '" + Name + "'");
          !Bad.empty())
        return Bad;
  }
  return {};
}

//===----------------------------------------------------------------------===//
// runPrepass — the options-driven entry point
//===----------------------------------------------------------------------===//

PrepassReport rmt::runPrepass(AstContext &Ctx, CfgProgram &Prog, ProcId &Root,
                              std::optional<Symbol> ErrGlobal,
                              const PrepassOptions &Opts, Stats *S) {
  PrepassReport R;
  R.LabelsBefore = Prog.Labels.size();
  R.ProcsBefore = Prog.Procs.size();

  std::span<const PassInfo> Pipeline = prepassPipeline(Opts.Invariants);
  TraceSpan Span(Opts.Telemetry, "prepass.pipeline",
                 {{"passes", passNames(Pipeline)}, {"labels", R.LabelsBefore}});
  PassContext PC{Ctx, Prog, Root, ErrGlobal, R};
#ifdef NDEBUG
  bool VerifyEach = Opts.VerifyEach;
#else
  bool VerifyEach = true; // builds with assertions verify every pass
#endif
  R.PipelineErrors = runPasses(PC, Pipeline, VerifyEach, Opts.PrintAfterAll,
                               Opts.Telemetry, S);
  Span.note({"labels_after", Prog.Labels.size()});
  Span.close();

  R.LabelsAfter = Prog.Labels.size();
  R.ProcsAfter = Prog.Procs.size();
  return R;
}
