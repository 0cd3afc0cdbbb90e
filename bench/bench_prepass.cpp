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
#include "support/Table.h"

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

/// Fully inlines the instance as \p Config's front end leaves it
/// (structure-only, with its strategy) and reports the hash-consed term
/// count — the static formula footprint the solver would be handed if every
/// open edge were expanded. A prepass error or inlining that stops at the
/// MaxInlined cap fails the bench.
VcSize inlinedVcSize(const SdvInstance &I, const EngineConfig &Config) {
  AstContext Ctx;
  Program Prog = makeSdvProgram(Ctx, I.Params);
  VerifierRunResult Front;
  LoweredInstance L =
      lowerInstance(Ctx, Prog, Ctx.sym("main"), Config.Opts, Front);
  if (!Front.Prepass.ok()) {
    std::fprintf(stderr, "error: %s [%s]: prepass failed: %s\n",
                 I.Name.c_str(), Config.Name.c_str(),
                 Front.Prepass.PipelineErrors.front().c_str());
    BenchFailed = true;
  }

  TermArena Arena;
  Inliner In(Ctx, L.Cfg, L.Entry, Arena, Config.Opts.Engine.Strategy);
  if (!In.inlineAll(MaxInlined)) {
    std::fprintf(stderr,
                 "error: %s: inlining stopped past the %zu-instance cap; "
                 "its VC size is not the fully inlined one\n",
                 I.Name.c_str(), MaxInlined);
    BenchFailed = true;
  }

  VcSize S;
  S.Labels = L.Cfg.Labels.size();
  S.Procs = L.Cfg.Procs.size();
  S.Terms = Arena.numTerms();
  S.Inlined = In.vc().numInlined();
  return S;
}

/// DI (First) with the prepass spec \p Passes; null runs no prepass.
EngineConfig prepassConfig(const char *Name, const char *Passes) {
  EngineConfig C = makeConfig(Name, MergeStrategyKind::First);
  C.Opts.UsePrepass = Passes != nullptr;
  if (Passes)
    C.Opts.Prepass.Passes = Passes;
  return C;
}

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
  EngineConfig OffCfg = prepassConfig("off", nullptr);
  EngineConfig BaseCfg = prepassConfig("base", BaselinePasses);
  EngineConfig FullCfg = prepassConfig("full", DefaultPrepassPasses);
  std::vector<RunRow> Rows;

  for (const SdvInstance &I : Corpus) {
    VcSize Off = inlinedVcSize(I, OffCfg);
    VcSize Base = inlinedVcSize(I, BaseCfg);
    VcSize Full = inlinedVcSize(I, FullCfg);
    RunRow ROff = runInstance(I.Name, sdvMaker(I.Params), OffCfg, Timeout);
    RunRow RBase = runInstance(I.Name, sdvMaker(I.Params), BaseCfg, Timeout);
    RunRow RFull = runInstance(I.Name, sdvMaker(I.Params), FullCfg, Timeout);
    // The verdict of the first configuration that answers (all that answer
    // must answer alike; countDisagreements checks it below).
    const RunRow *Ref = nullptr;
    for (const RunRow *R : {&ROff, &RBase, &RFull})
      if (!Ref && R->decided())
        Ref = R;
    Rows.insert(Rows.end(), {ROff, RBase, RFull});

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
    T.cell(Ref ? verdictName(Ref->Outcome) : "t/o");
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
  unsigned Disagreements = countDisagreements(Rows);
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
