//===- bench_prepass.cpp - Static-analysis prepass ablation -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Two-way ablation of the prepass pipeline on the SDV-like corpus:
//
//   off     — no prepass at all;
//   default — the default structural pipeline (slice,splice,deadproc),
//             -Inv like every bench::makeConfig configuration not marked
//             +Inv, so the ablation isolates the structural passes.
//
// For each configuration we report the program size the engine sees, the
// size of the fully inlined VC (hash-consed term count) and the end-to-end
// DI verify time. A pipeline that fails to run (a --verify-each violation)
// makes the bench exit nonzero instead of measuring an unreduced program,
// and so does a VC size cut short by the inlining cap.
// Knobs: RMT_BENCH_TIMEOUT, RMT_BENCH_COUNT (see BenchCommon.h).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/PassManager.h"
#include "support/Table.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

namespace {

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

} // namespace

int main() {
  double Timeout = envTimeout(10);
  unsigned Count = envCount(12);

  // The default configuration is -Inv: the structural passes alone.
  std::string DefaultPasses = passNames(prepassPipeline(/*Invariants=*/false));

  std::vector<SdvInstance> Corpus =
      makeSdvCorpus(/*Seed=*/2015, Count, /*BugFraction=*/110);

  std::printf("Prepass ablation — %u SDV-like instances, DI (First), "
              "bound 1, timeout %.0fs\n"
              "default = %s\n\n",
              Count, Timeout, DefaultPasses.c_str());

  Table T({"Instance", "Terms off", "Terms default", "Labels off",
           "Labels default", "Time off(s)", "Time default(s)", "Verdict"});
  size_t TermsOff = 0, TermsDefault = 0;
  size_t LabelsOff = 0, LabelsDefault = 0;
  double TimeOff = 0, TimeDefault = 0;
  EngineConfig OffCfg = makeConfig("off", MergeStrategyKind::First);
  OffCfg.Opts.UsePrepass = false;
  EngineConfig DefaultCfg = makeConfig("default", MergeStrategyKind::First);
  std::vector<RunRow> Rows;

  for (const SdvInstance &I : Corpus) {
    VcSize Off = inlinedVcSize(I, OffCfg);
    VcSize Default = inlinedVcSize(I, DefaultCfg);
    RunRow ROff = runInstance(I.Name, sdvMaker(I.Params), OffCfg, Timeout);
    RunRow RDefault =
        runInstance(I.Name, sdvMaker(I.Params), DefaultCfg, Timeout);
    // The verdict of the first configuration that answers (both must answer
    // alike when both do; countDisagreements checks it below).
    const RunRow *Ref = ROff.decided()       ? &ROff
                        : RDefault.decided() ? &RDefault
                                             : nullptr;
    Rows.insert(Rows.end(), {ROff, RDefault});

    TermsOff += Off.Terms;
    TermsDefault += Default.Terms;
    LabelsOff += Off.Labels;
    LabelsDefault += Default.Labels;
    TimeOff += ROff.Seconds;
    TimeDefault += RDefault.Seconds;

    T.row();
    T.cell(I.Name);
    T.cell(static_cast<int64_t>(Off.Terms));
    T.cell(static_cast<int64_t>(Default.Terms));
    T.cell(static_cast<int64_t>(Off.Labels));
    T.cell(static_cast<int64_t>(Default.Labels));
    T.cell(ROff.Seconds, 2);
    T.cell(RDefault.Seconds, 2);
    T.cell(Ref ? verdictName(Ref->Outcome) : "t/o");
    std::fprintf(stderr, "  %-10s terms %zu -> %zu, %.2fs -> %.2fs\n",
                 I.Name.c_str(), Off.Terms, Default.Terms, ROff.Seconds,
                 RDefault.Seconds);
  }

  std::printf("%s\n", T.str().c_str());
  auto Pct = [](size_t From, size_t To) {
    return From ? 100.0 * (static_cast<double>(From) -
                           static_cast<double>(To)) /
                      static_cast<double>(From)
                : 0.0;
  };
  std::printf("totals: labels %zu -> %zu (-%.1f%%), VC terms %zu -> %zu "
              "(-%.1f%%), verify time %.1fs -> %.1fs\n",
              LabelsOff, LabelsDefault, Pct(LabelsOff, LabelsDefault),
              TermsOff, TermsDefault, Pct(TermsOff, TermsDefault), TimeOff,
              TimeDefault);
  unsigned Disagreements = countDisagreements(Rows);
  std::printf("verdict disagreements: %u (must be 0 — every pipeline is "
              "verdict-preserving)\n",
              Disagreements);

  writeBenchJson("prepass", T,
                 {{"count", std::to_string(Count)},
                  {"timeout_s", std::to_string(Timeout)},
                  {"default_passes", DefaultPasses},
                  {"terms_off", std::to_string(TermsOff)},
                  {"terms_default", std::to_string(TermsDefault)},
                  {"labels_off", std::to_string(LabelsOff)},
                  {"labels_default", std::to_string(LabelsDefault)},
                  {"time_off_s", std::to_string(TimeOff)},
                  {"time_default_s", std::to_string(TimeDefault)},
                  {"disagreements", std::to_string(Disagreements)}});

  if (BenchFailed)
    std::printf("bench errors: see stderr\n");
  return !BenchFailed && Disagreements == 0 && TermsDefault <= TermsOff ? 0
                                                                          : 1;
}
