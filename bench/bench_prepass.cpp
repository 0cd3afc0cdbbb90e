//===- bench_prepass.cpp - Static-analysis prepass ablation -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Three-way ablation of the prepass pipeline on the SDV-like corpus:
//
//   off  — no prepass at all;
//   base — the structural reductions alone (slice,splice,deadproc);
//   full — the default pipeline, which runs value numbering first
//          (gvn,slice,splice,deadproc).
//
// For each configuration we report the program size the engine sees and the
// size of the fully inlined VC (hash-consed term count); end-to-end DI verify
// time is measured for off vs full. The base→full delta isolates what the
// value-numbering pass buys on top of the structural reductions. A pipeline
// that fails to run (an unknown pass name, a --verify-each violation) makes
// the bench exit nonzero instead of measuring an unreduced program, and so
// does a VC size cut short by the inlining cap. Knobs: RMT_BENCH_TIMEOUT,
// RMT_BENCH_COUNT (see BenchCommon.h).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/Dataflow.h"
#include "cfg/Lower.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "transform/Transforms.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

/// The default pipeline without value numbering.
const char *BaselinePasses = "slice,splice,deadproc";

/// Set when a prepass pipeline reports an error or inlining stops at the
/// instance cap; main() then fails.
bool BenchFailed = false;

struct VcSize {
  size_t Labels = 0;
  size_t Procs = 0;
  size_t Terms = 0;
  size_t Inlined = 0;
};

/// Instances past which inlinedVcSize gives up (no corpus instance gets
/// there).
constexpr size_t MaxInlined = 20000;

/// Fully inlines the instance (structure-only, DI/First strategy) and
/// reports the hash-consed term count — the static formula footprint the
/// solver would be handed if every open edge were expanded. \p Passes is the
/// prepass pipeline spec; null runs no prepass. Inlining that stops at the
/// MaxInlined cap fails the bench like a pipeline error does.
VcSize inlinedVcSize(const SdvInstance &I, const char *Passes) {
  AstContext Ctx;
  Program Prog = makeSdvProgram(Ctx, I.Params);
  BoundedInstance Inst = prepareBounded(Ctx, Prog, Ctx.sym("main"), 1);
  CfgProgram Cfg = lowerToCfg(Ctx, Inst.Prog);
  ProcId Root = Cfg.findProc(Inst.Entry);
  if (Passes) {
    PrepassOptions PO;
    PO.Passes = Passes;
    PrepassReport R = runPrepass(Ctx, Cfg, Root, Inst.ErrVar, PO);
    if (!R.ok()) {
      std::fprintf(stderr, "error: prepass '%s' failed: %s\n", Passes,
                   R.PipelineErrors.front().c_str());
      BenchFailed = true;
    }
  }

  TermArena Arena;
  StrategyOptions SOpts;
  SOpts.Kind = MergeStrategyKind::First;
  Inliner In(Ctx, Cfg, Root, Arena, SOpts);
  if (!In.inlineAll(MaxInlined)) {
    std::fprintf(stderr,
                 "error: %s: inlining stopped past the %zu-instance cap; "
                 "its VC size is not the fully inlined one\n",
                 I.Name.c_str(), MaxInlined);
    BenchFailed = true;
  }

  VcSize S;
  S.Labels = Cfg.Labels.size();
  S.Procs = Cfg.Procs.size();
  S.Terms = Arena.numTerms();
  S.Inlined = In.vc().numInlined();
  return S;
}

struct TimedRun {
  Verdict Outcome = Verdict::Unknown;
  double Seconds = 0;
};

TimedRun timedVerify(const SdvParams &Params, const char *Passes,
                     double Timeout) {
  AstContext Ctx;
  Program Prog = makeSdvProgram(Ctx, Params);
  VerifierOptions Opts;
  Opts.Bound = 1; // drivers are loop-free by construction
  Opts.UsePrepass = Passes != nullptr;
  if (Passes)
    Opts.Prepass.Passes = Passes;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::First;
  Opts.Engine.TimeoutSeconds = Timeout;
  Stopwatch W;
  VerifierRunResult R = verifyProgram(Ctx, Prog, Ctx.sym("main"), Opts);
  if (!R.Prepass.ok()) {
    std::fprintf(stderr, "error: prepass '%s' failed: %s\n", Passes,
                 R.Prepass.PipelineErrors.front().c_str());
    BenchFailed = true;
  }
  return {R.Result.Outcome, W.seconds()};
}

bool answered(Verdict V) { return V == Verdict::Safe || V == Verdict::Bug; }

} // namespace

int main() {
  double Timeout = envTimeout(10);
  unsigned Count = envCount(12);

  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/2015, Count, /*BugFraction=*/110);

  std::printf("Prepass ablation — %u SDV-like instances, DI (First), "
              "bound 1, timeout %.0fs\n"
              "base = %s\nfull = %s\n\n",
              Count, Timeout, BaselinePasses, DefaultPrepassPasses);

  Table T({"Instance", "Terms off", "Terms base", "Terms full", "Labels full",
           "Time off(s)", "Time full(s)", "Verdict"});
  size_t TermsOff = 0, TermsBase = 0, TermsFull = 0;
  size_t LabelsOff = 0, LabelsFull = 0;
  double TimeOff = 0, TimeFull = 0;
  unsigned Disagreements = 0;

  for (const SdvInstance &I : Corpus) {
    VcSize Off = inlinedVcSize(I, nullptr);
    VcSize Base = inlinedVcSize(I, BaselinePasses);
    VcSize Full = inlinedVcSize(I, DefaultPrepassPasses);
    TimedRun ROff = timedVerify(I.Params, nullptr, Timeout);
    TimedRun RBase = timedVerify(I.Params, BaselinePasses, Timeout);
    TimedRun RFull = timedVerify(I.Params, DefaultPrepassPasses, Timeout);

    // All configurations that answer must answer alike.
    Verdict Ref = Verdict::Unknown;
    for (Verdict V : {ROff.Outcome, RBase.Outcome, RFull.Outcome}) {
      if (!answered(V))
        continue;
      if (!answered(Ref))
        Ref = V;
      else if (V != Ref)
        ++Disagreements;
    }

    TermsOff += Off.Terms;
    TermsBase += Base.Terms;
    TermsFull += Full.Terms;
    LabelsOff += Off.Labels;
    LabelsFull += Full.Labels;
    TimeOff += ROff.Seconds;
    TimeFull += RFull.Seconds;

    T.row();
    T.cell(I.Name);
    T.cell(static_cast<int64_t>(Off.Terms));
    T.cell(static_cast<int64_t>(Base.Terms));
    T.cell(static_cast<int64_t>(Full.Terms));
    T.cell(static_cast<int64_t>(Full.Labels));
    T.cell(ROff.Seconds, 2);
    T.cell(RFull.Seconds, 2);
    T.cell(!answered(Ref) ? "t/o" : verdictName(Ref));
    std::fprintf(stderr,
                 "  %-10s terms %zu -> %zu -> %zu, %.2fs -> %.2fs\n",
                 I.Name.c_str(), Off.Terms, Base.Terms, Full.Terms,
                 ROff.Seconds, RFull.Seconds);
  }

  std::printf("%s\n", T.str().c_str());
  auto Pct = [](size_t From, size_t To) {
    return From ? 100.0 * static_cast<double>(From - To) /
                      static_cast<double>(From)
                : 0.0;
  };
  std::printf("totals: labels %zu -> %zu (-%.1f%%), VC terms off %zu -> "
              "base %zu (-%.1f%%) -> full %zu (-%.1f%% vs base), verify "
              "time %.1fs -> %.1fs\n",
              LabelsOff, LabelsFull, Pct(LabelsOff, LabelsFull), TermsOff,
              TermsBase, Pct(TermsOff, TermsBase), TermsFull,
              Pct(TermsBase, TermsFull), TimeOff, TimeFull);
  std::printf("verdict disagreements: %u (must be 0 — every pipeline is "
              "verdict-preserving)\n",
              Disagreements);

  writeBenchJson(
      "prepass", T,
      {{"count", std::to_string(Count)},
       {"timeout_s", std::to_string(Timeout)},
       {"baseline_passes", BaselinePasses},
       {"terms_off", std::to_string(TermsOff)},
       {"terms_base", std::to_string(TermsBase)},
       {"terms_full", std::to_string(TermsFull)},
       {"labels_off", std::to_string(LabelsOff)},
       {"labels_full", std::to_string(LabelsFull)},
       {"time_off_s", std::to_string(TimeOff)},
       {"time_full_s", std::to_string(TimeFull)},
       {"disagreements", std::to_string(Disagreements)}});

  if (BenchFailed)
    std::printf("bench errors: see stderr\n");
  return !BenchFailed && Disagreements == 0 && TermsFull <= TermsBase &&
                 TermsBase <= TermsOff
             ? 0
             : 1;
}
