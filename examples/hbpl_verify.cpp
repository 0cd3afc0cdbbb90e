//===- hbpl_verify.cpp - Command-line verifier front-end ------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// A small Corral-like command-line tool over the library:
//
//   hbpl_verify FILE.hbpl [--entry NAME] [--bound N] [--strategy S]
//               [--timeout SECS] [--no-inv] [--eager] [--paper-pvc]
//               [--no-prepass] [--verify-each] [--print-after-all]
//               [--lint] [--dump-cfg] [--dump-dag] [--trace-out FILE]
//               [--stats-json FILE] [--stats]
//
// --bound takes an integer >= 1 (default 2) and --timeout a finite number
// of seconds >= 0 (default 300; 0 turns the limit off); anything else is a
// usage error. The prepass is one fixed sequence (PassManager.h): query
// slicing, skip splicing and dead-procedure elimination, then interval
// invariants (+Inv, the `inv` pass); --no-inv leaves out `inv` and
// --no-prepass runs no pass at all.
//
// --paper-pvc generates the paper's literal Fig. 8 pVCs instead of the
// default passified ones (same verdicts; see PvcMode).
//
// Strategies: none (tree / SI), first (DI default), random, randompick,
// maxc, opt. Exit code: 0 safe, 1 usage/parse error, 2 lint errors, 10 bug,
// 20 timeout or resource-out, 30 unknown (including an aborted prepass
// pipeline under --verify-each). An undecided verdict is followed by a
// "reason:" line saying why (budget, inline limit or the solver's reason).
//
// Observability: --trace-out writes a Chrome trace_event JSON timeline
// (chrome://tracing / Perfetto) of the whole run; --stats-json writes a
// machine-readable stats document (counters, times, span aggregates);
// --stats prints the merged stats bag to stdout.
//
// Run with no arguments to verify a built-in demo program.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "core/DotExport.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "support/Trace.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

using namespace rmt;

namespace {

const char *DemoSource = R"(
var balance: int;

procedure deposit(amount: int) {
  assume amount > 0;
  balance := balance + amount;
}

procedure withdraw(amount: int) returns (ok: bool) {
  if (amount <= balance && amount > 0) {
    balance := balance - amount;
    ok := true;
  } else {
    ok := false;
  }
}

procedure main() {
  var a: int;
  var ok: bool;
  balance := 0;
  havoc a;
  if (*) { call deposit(10); } else { call deposit(25); }
  call ok := withdraw(a);
  assert balance >= 0;
}
)";

int usage() {
  std::fprintf(stderr,
               "usage: hbpl_verify FILE.hbpl [--entry NAME] [--bound N] "
               "[--strategy none|first|random|randompick|maxc|opt] "
               "[--timeout SECS] [--no-inv] [--eager] [--paper-pvc] "
               "[--no-prepass] [--verify-each] [--print-after-all] [--lint] "
               "[--dump-cfg] [--dump-dag] [--trace-out FILE] "
               "[--stats-json FILE] [--stats]\n");
  return 1;
}

/// \p V parsed whole as a \p T (no blanks, no trailing text, in range);
/// nullopt otherwise.
template <typename T> std::optional<T> parseWhole(const char *V) {
  if (!V)
    return std::nullopt;
  const char *End = V + std::strlen(V);
  T Out{};
  auto [Ptr, Err] = std::from_chars(V, End, Out);
  if (Err != std::errc() || Ptr != End)
    return std::nullopt;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string File;
  std::string EntryName = "main";
  VerifierOptions Opts;
  Opts.Bound = 2;
  Opts.Engine.TimeoutSeconds = 300;
  bool DumpCfg = false;
  bool DumpDag = false;
  bool Lint = false;
  bool PrintStats = false;
  std::string TraceOut;
  std::string StatsJsonOut;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--entry") {
      const char *V = Value();
      if (!V)
        return usage();
      EntryName = V;
    } else if (Arg == "--bound") {
      std::optional<unsigned> Bound = parseWhole<unsigned>(Value());
      if (!Bound || *Bound < 1) {
        std::fprintf(stderr, "error: --bound takes an integer >= 1\n");
        return usage();
      }
      Opts.Bound = *Bound;
    } else if (Arg == "--strategy") {
      const char *V = Value();
      if (!V)
        return usage();
      std::optional<MergeStrategyKind> Kind = parseStrategyKind(V);
      if (!Kind) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", V);
        return usage();
      }
      Opts.Engine.Strategy.Kind = *Kind;
    } else if (Arg == "--timeout") {
      std::optional<double> Timeout = parseWhole<double>(Value());
      if (!Timeout || !std::isfinite(*Timeout) || *Timeout < 0) {
        std::fprintf(stderr, "error: --timeout takes a finite number >= 0\n");
        return usage();
      }
      Opts.Engine.TimeoutSeconds = *Timeout;
    } else if (Arg == "--no-inv") {
      Opts.Prepass.Invariants = false;
    } else if (Arg == "--eager") {
      Opts.Engine.Eager = true;
    } else if (Arg == "--paper-pvc") {
      Opts.Engine.Pvc = PvcMode::Paper;
    } else if (Arg == "--no-prepass") {
      Opts.UsePrepass = false;
    } else if (Arg == "--verify-each") {
      Opts.Prepass.VerifyEach = true;
    } else if (Arg == "--print-after-all") {
      Opts.Prepass.PrintAfterAll = true;
    } else if (Arg == "--trace-out") {
      const char *V = Value();
      if (!V)
        return usage();
      TraceOut = V;
    } else if (Arg == "--stats-json") {
      const char *V = Value();
      if (!V)
        return usage();
      StatsJsonOut = V;
    } else if (Arg == "--stats") {
      PrintStats = true;
    } else if (Arg == "--lint") {
      Lint = true;
    } else if (Arg == "--dump-cfg") {
      DumpCfg = true;
    } else if (Arg == "--dump-dag") {
      DumpDag = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    } else {
      File = Arg;
    }
  }

  std::string Source;
  if (File.empty()) {
    std::printf("no input file; verifying the built-in demo program\n\n");
    Source = DemoSource;
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
  }

  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(Source, Ctx, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (!Prog->findProc(Ctx.sym(EntryName))) {
    std::fprintf(stderr, "error: no procedure named '%s'\n",
                 EntryName.c_str());
    return 1;
  }

  if (Lint) {
    DiagEngine LintDiags;
    LintReport LR = lintProgram(Ctx, *Prog, LintDiags);
    if (LR.total() != 0)
      std::printf("%s", LintDiags.str().c_str());
    std::printf("lint: %u error(s), %u warning(s)\n\n", LR.errors(),
                LR.warnings());
    if (LR.hasErrors())
      return 2;
  }

  if (DumpCfg || DumpDag) {
    // Dump the program the engine solves: the verifier's front end under
    // the same options. Its passes print under --print-after-all when the
    // verifier runs them below, not here as well.
    VerifierOptions FrontOpts = Opts;
    FrontOpts.Prepass.PrintAfterAll = false;
    VerifierRunResult Front;
    LoweredInstance L =
        lowerInstance(Ctx, *Prog, Ctx.sym(EntryName), FrontOpts, Front);
    if (DumpCfg && Front.Prepass.ok())
      std::printf("%s\n", L.Cfg.str(Ctx).c_str());
    if (DumpDag && Front.Prepass.ok()) {
      // Structure-only full DAG inlining with the selected strategy, then
      // render Graphviz to stdout (pipe into `dot -Tsvg`).
      TermArena Arena;
      Inliner In(Ctx, L.Cfg, L.Entry, Arena, Opts.Engine.Strategy);
      const size_t MaxDagNodes = 5000;
      if (!In.inlineAll(MaxDagNodes))
        std::fprintf(stderr,
                     "warning: --dump-dag stopped past %zu instances; the "
                     "DAG below is partial (dashed edges are still open)\n",
                     MaxDagNodes);
      std::printf("%s", inliningDagToDot(Ctx, In.vc()).c_str());
    }
  }

  // Enable telemetry whenever any exporter wants it; span aggregates feed
  // --stats-json even when no Chrome trace is requested.
  Trace Telemetry;
  if (!TraceOut.empty() || !StatsJsonOut.empty()) {
    Telemetry.setEnabled(true);
    Opts.Telemetry = &Telemetry;
  }

  VerifierRunResult R = verifyProgram(Ctx, *Prog, Ctx.sym(EntryName), Opts);

  // One machine-readable stats bag for the whole run: prepass pass counters
  // plus the engine's "engine.*" keys and front-end sizes.
  Stats RunStats;
  RunStats.merge(R.PrepassStats);
  R.Result.record(RunStats);
  RunStats.add("verify.asserts", R.NumAsserts);
  RunStats.add("verify.bound", Opts.Bound);
  RunStats.add("verify.procs_unreached",
               static_cast<int64_t>(R.NumProcsUnreached));
  RunStats.add("verify.procs", static_cast<int64_t>(R.NumProcs));
  RunStats.add("verify.labels", static_cast<int64_t>(R.NumLabels));
  RunStats.add("verify.procs_solved", static_cast<int64_t>(R.NumProcsSolved));
  RunStats.add("verify.labels_solved",
               static_cast<int64_t>(R.NumLabelsSolved));

  if (!TraceOut.empty() && !Telemetry.writeChromeJson(TraceOut)) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                 TraceOut.c_str());
    return 1;
  }
  if (!StatsJsonOut.empty() &&
      !Telemetry.writeStatsJson(StatsJsonOut, &RunStats)) {
    std::fprintf(stderr, "error: cannot write stats to '%s'\n",
                 StatsJsonOut.c_str());
    return 1;
  }
  if (PrintStats)
    std::printf("stats:\n%s\n", RunStats.str().c_str());

  if (!R.Prepass.ok()) {
    for (const std::string &Msg : R.Prepass.PipelineErrors)
      std::fprintf(stderr, "error: %s\n", Msg.c_str());
    std::fprintf(stderr,
                 "error: prepass pipeline aborted; refusing to solve\n");
    return 30;
  }

  std::printf("verdict:   %s\n", verdictName(R.Result.Outcome));
  if (!R.Result.Reason.empty())
    std::printf("reason:    %s\n", R.Result.Reason.c_str());
  std::printf("bound:     %u\n", Opts.Bound);
  std::printf("asserts:   %u\n", R.NumAsserts);
  if (Opts.UsePrepass)
    std::printf("prepass:   %s\n", R.Prepass.str().c_str());
  std::printf("inlined:   %zu procedure instances (%zu merged calls)\n",
              R.Result.NumInlined, R.Result.NumMerged);
  std::printf("checks:    %zu solver calls in %zu iterations\n",
              R.Result.NumSolverChecks, R.Result.NumIterations);
  if (Opts.UsePrepass && Opts.Prepass.Invariants)
    std::printf("invariants: %u conjuncts injected\n",
                R.Prepass.InvariantConjuncts);
  std::printf("time:      %.3fs (merge lookups %.4fs, %llu Disj_blk "
              "queries)\n",
              R.Result.Seconds, R.Result.MergeLookupSeconds,
              static_cast<unsigned long long>(R.Result.NumDisjQueries));
  if (R.Result.Outcome == Verdict::Bug)
    std::printf("\ncounterexample:\n%s", R.TraceText.c_str());

  switch (R.Result.Outcome) {
  case Verdict::Safe:
    return 0;
  case Verdict::Bug:
    return 10;
  case Verdict::Timeout:
  case Verdict::ResourceOut:
    return 20;
  case Verdict::Unknown:
    return 30;
  }
  return 30;
}
