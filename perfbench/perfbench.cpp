//===- perfbench.cpp - Verdict-latency benchmark --------------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
//
// Times verification from program text to verdict, the path hbpl_verify
// takes (parseAndCheck -> verifyProgram), on three generated workloads:
//
//   sdv    SDV-like drivers (makeSdvProgram), bound 1, product defaults.
//          Solver-bound, mostly under-approximate checks (Section 4).
//   chain  Fig. 2 chain programs, safe and buggy, bound 1. Half of all
//          edges merge; many small checks (Fig. 3).
//   loops  makeRandomProgram with loops, arrays and bitvectors, bound 2,
//          +Inv. The workload where the prepass and non-solver engine work
//          are a visible share of verdict time.
//
// usage: perfbench --workload sdv|chain|loops --seed N --seconds S --trace 0|1
//
// Set-up generates the workload's programs, prints each as .hbpl text,
// checks that every text parses and type-checks, fixes each program's known
// verdict (by construction for sdv and chain, from an independent reference
// configuration for loops) and derives each program's Z3 seeds from --seed.
// The programs themselves are a fixed seeded draw: across workload seeds
// only Z3's seeds change, because the spread of a metric over freshly drawn
// programs is far wider than any regression bound worth having.
//
// The timed phase is a closed loop with one client: one verification at a
// time over every (program, Z3 seed) pair, in whole passes until --seconds
// of passes are spent, with the set-up repeats between the first passes. Z3 is
// deterministic for a fixed seed, so every pass does the same work. A speed
// probe (a fixed Z3 task) runs between every two measured items, and each
// time is corrected by the probes around it to a nominal host speed (see
// SpeedProbe). A pair's time is its fastest corrected pass; setup_s is the
// median corrected set-up time.
//
// --trace 1 runs each pair untraced (verifyProgram) and then traced (the
// same calls composed here under benchmark-side spans, plus the engine's
// and pass manager's own span aggregates) and reports the layer metrics
// instead. The traced run must reproduce the untraced verdict and solved
// label count of every pair.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every verdict is right and every self-check
// holds.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "ast/AstPrinter.h"
#include "cfg/Lower.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "transform/Transforms.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"
#include "workload/SdvGen.h"

#include <z3.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

using namespace rmt;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// setup_s is the median of this many set-ups, spread between the first
/// passes.
constexpr unsigned Setups = 5;

struct Workload {
  const char *Name;
  unsigned Bound;
  bool UseInvariants;
  /// Per-run engine limit; a run that hits it is a failed operation and
  /// counts at this time.
  double LimitSeconds;
  /// Changing only Z3's seed moves one program's time several-fold, so each
  /// program runs under this many Z3 seeds.
  unsigned Z3Seeds;
};

const Workload Workloads[] = {
    {"sdv", 1, false, 10, 9},
    {"chain", 1, false, 10, 3},
    {"loops", 2, true, 10, 3},
};

/// One generated program with its known answer.
struct Input {
  std::string Name;
  std::string Text;
  Verdict Expected = Verdict::Unknown;
  std::vector<unsigned> Z3Seeds;

  bool operator==(const Input &O) const {
    return Name == O.Name && Text == O.Text && Expected == O.Expected &&
           Z3Seeds == O.Z3Seeds;
  }
};

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Z3's random seeds are process-global parameters read when a solver is
/// created, so they are set before every verification.
void setZ3Seed(unsigned Seed) {
  std::string S = std::to_string(Seed);
  Z3_global_param_set("smt.random_seed", S.c_str());
  Z3_global_param_set("sat.random_seed", S.c_str());
}

VerifierOptions productOptions(const Workload &W) {
  VerifierOptions Opts;
  Opts.Bound = W.Bound;
  Opts.UseInvariants = W.UseInvariants;
  Opts.Engine.TimeoutSeconds = W.LimitSeconds;
  return Opts;
}

bool decided(Verdict V) { return V == Verdict::Bug || V == Verdict::Safe; }

std::string printed(const std::function<Program(AstContext &)> &Make) {
  AstContext Ctx;
  return printProgram(Ctx, Make(Ctx));
}

std::vector<Input> sdvInputs() {
  // Small driver shapes: 3-4 handlers, 3-6 utilities, 2 calls per handler,
  // two utility layers (three for every fifth driver); every other driver
  // carries an injected rule violation. Driver 4 is skipped: at 0.75 s it
  // took 2.5x the next slowest, and alone above the rest it put the tail
  // percentile in a gap that moved with every Z3 seed.
  constexpr unsigned Count = 10;
  Rng R(0x5d5);
  std::vector<Input> Out;
  for (unsigned I = 0; I < Count; ++I) {
    SdvParams P;
    P.Seed = R.next();
    P.NumHandlers = static_cast<unsigned>(R.range(3, 4));
    P.NumUtils = static_cast<unsigned>(R.range(3, 6));
    P.UtilDepth = I % 5 == 4 ? 3 : 2;
    P.CallsPerHandler = 2;
    P.InjectBug = I % 2 == 1;
    if (I == 4)
      continue;
    char Name[64];
    std::snprintf(Name, sizeof(Name), "drv%u_h%u_u%u_d%u", I, P.NumHandlers,
                  P.NumUtils, P.UtilDepth);
    Out.push_back({Name,
                   printed([&](AstContext &C) { return makeSdvProgram(C, P); }),
                   P.InjectBug ? Verdict::Bug : Verdict::Safe,
                   {}});
  }
  return Out;
}

std::vector<Input> chainInputs() {
  // A fine grid of N: with a coarse one the median and the tail fall in the
  // gap between two sizes and jump with every small timing change.
  std::vector<Input> Out;
  for (unsigned N : {8u, 12u, 16u, 20u, 24u, 28u, 32u})
    for (bool Buggy : {false, true})
      Out.push_back(
          {"chain" + std::to_string(N) + (Buggy ? "_bug" : "_safe"),
           printed([&](AstContext &C) {
             return makeChainProgram(C, N, Buggy);
           }),
           Buggy ? Verdict::Bug : Verdict::Safe,
           {}});
  return Out;
}

/// The loops oracle shares none of the measured configuration's prepass,
/// +Inv or merging: no prepass, SI tree inlining, a generous limit.
Verdict referenceVerdict(const std::string &Text, unsigned Bound) {
  setZ3Seed(0);
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(Text, Ctx, Diags);
  if (!Prog)
    return Verdict::Unknown;
  VerifierOptions Opts;
  Opts.Bound = Bound;
  Opts.UsePrepass = false;
  Opts.Engine.Strategy.Kind = MergeStrategyKind::None;
  Opts.Engine.TimeoutSeconds = 30;
  return verifyProgram(Ctx, *Prog, Ctx.sym("main"), Opts).Result.Outcome;
}

std::vector<Input> loopsInputs() {
  // Skipped: draws the oracle could not decide within a Z3 rlimit of 200000
  // when this benchmark was defined (some of them take the measured
  // configuration seconds under some Z3 seeds; the workload is for short
  // verdicts), and draws 7, 22 and 27, whose peak memory under some Z3
  // seeds is 20-170 MB above the rest, which would tie peak_rss_mb to
  // --seed. The list is fixed rather than recomputed so that a change to the
  // verifier cannot change the corpus.
  static const unsigned Skip[] = {2,  4,  7,  12, 14, 16, 20, 21, 22,
                                  23, 24, 26, 27, 29, 31, 32, 33, 35};
  constexpr unsigned Draws = 38;
  Rng R(0x100f);
  std::vector<Input> Out;
  for (unsigned Draw = 0; Draw < Draws; ++Draw) {
    RandomProgParams P;
    P.Seed = R.next();
    if (std::find(std::begin(Skip), std::end(Skip), Draw) != std::end(Skip))
      continue;
    P.NumProcs = 30;
    P.MaxStmts = 10;
    P.MaxNesting = 3;
    P.AllowLoops = true;
    P.AllowArrays = true;
    P.AllowBitvectors = true;
    std::string Text =
        printed([&](AstContext &C) { return makeRandomProgram(C, P); });
    Verdict V = referenceVerdict(Text, 2);
    Out.push_back({"rand" + std::to_string(Draw), std::move(Text), V, {}});
  }
  return Out;
}

/// Everything set-up produces; the timed phase only reads it. Fails with a
/// message when a printed program does not parse and type-check.
std::optional<std::vector<Input>> setUp(const Workload &W, uint64_t Seed,
                                        std::string &Error) {
  std::vector<Input> Inputs = !std::strcmp(W.Name, "sdv")     ? sdvInputs()
                              : !std::strcmp(W.Name, "chain") ? chainInputs()
                                                              : loopsInputs();
  for (const Input &In : Inputs) {
    AstContext Ctx;
    DiagEngine Diags;
    std::optional<Program> Parsed = parseAndCheck(In.Text, Ctx, Diags);
    if (!Parsed || !Parsed->findProc(Ctx.sym("main"))) {
      Error = In.Name + " does not parse and type-check:\n" + Diags.str();
      return std::nullopt;
    }
  }
  // A program the loops oracle cannot decide is left out of the draw.
  std::erase_if(Inputs, [](const Input &In) { return !decided(In.Expected); });
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Input &In = Inputs[I];
    for (unsigned K = 0; K < W.Z3Seeds; ++K)
      In.Z3Seeds.push_back(static_cast<unsigned>(
          splitmix(Seed * 1000003 + I * 64 + K) & 0x7fffffff));
  }
  if (Inputs.empty()) {
    Error = "empty corpus";
    return std::nullopt;
  }
  return Inputs;
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// The host's speed swings by 30% and more within a second or two (other
/// tenants' load; steal time is nil, so CPU time swings as well), faster
/// than a pass, so a pair's fastest pass does not filter it out. A probe, a
/// fixed reference task that shares no code with the verifier, therefore
/// runs between every two measured items. Each measured time is divided by
/// the mean of the probes just before and just after it, and multiplied by
/// NominalSeconds, the probe's median time on the host where the benchmark
/// was defined (4-vCPU Xeon VM). The time metrics are thus seconds at that
/// host's speed. Wider windows of probes track the speed less well.
class SpeedProbe {
public:
  static constexpr double NominalSeconds = 0.030;

  /// Two unsat problems, solved by Z3 in a fresh context: a chain of array
  /// stores read back through selects (array and arithmetic theories, as in
  /// the verifier's checks), and pigeonhole 7-into-6 (CDCL search).
  SpeedProbe() {
    constexpr int Stores = 60, Holes = 6;
    std::string Array = "a";
    for (int I = 0; I < Stores; ++I) {
      std::string X = "i" + std::to_string(I);
      Smt += "(declare-const " + X + " Int)\n";
      if (I)
        Smt += "(assert (< i" + std::to_string(I - 1) + " " + X + "))\n";
      Array = "(store " + Array + " " + X + " " + std::to_string(I) + ")";
    }
    Smt += "(declare-const a (Array Int Int))\n(declare-const b (Array Int "
           "Int))\n(assert (= b " + Array + "))\n";
    Smt += "(assert (> (+ (select b i0) (select b i30) (select b i59)) (+ 89 "
           "(select b i31))))\n(check-sat)\n(reset)\n";
    auto Var = [](int P, int H) {
      return "p" + std::to_string(P) + "_" + std::to_string(H);
    };
    for (int P = 0; P <= Holes; ++P)
      for (int H = 0; H < Holes; ++H)
        Smt += "(declare-const " + Var(P, H) + " Bool)\n";
    for (int P = 0; P <= Holes; ++P) {
      Smt += "(assert (or";
      for (int H = 0; H < Holes; ++H)
        Smt += " " + Var(P, H);
      Smt += "))\n";
    }
    for (int H = 0; H < Holes; ++H)
      for (int A = 0; A <= Holes; ++A)
        for (int B = A + 1; B <= Holes; ++B)
          Smt += "(assert (not (and " + Var(A, H) + " " + Var(B, H) + ")))\n";
    Smt += "(check-sat)\n";
  }

  /// Probes; returns the mark the next measured item is filed under. A
  /// probe must follow the item too (the next mark() or probe()).
  size_t mark() {
    probe();
    return Times.size();
  }

  void probe() {
    setZ3Seed(0);
    Stopwatch Watch;
    Z3_config Cfg = Z3_mk_config();
    Z3_context C = Z3_mk_context(Cfg);
    Z3_del_config(Cfg);
    std::string Out = Z3_eval_smtlib2_string(C, Smt.c_str());
    Z3_del_context(C);
    Times.push_back(Watch.seconds());
    Wrong += Out != "unsat\nunsat\n";
  }

  /// Seconds at nominal speed for \p Seconds measured at mark \p Mark.
  double normalize(double Seconds, size_t Mark) const {
    return Seconds * NominalSeconds / ((Times[Mark - 1] + Times[Mark]) / 2);
  }

  const std::vector<double> &times() const { return Times; }
  /// Probes whose answer was not unsat.
  unsigned wrong() const { return Wrong; }

private:
  std::string Smt;
  std::vector<double> Times;
  unsigned Wrong = 0;
};

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

struct RunOut {
  Verdict Outcome = Verdict::Unknown;
  double Seconds = 0;
  /// The speed probe mark the run was measured at.
  size_t Mark = 0;
  size_t LabelsSolved = 0;
  /// Hash of the engine's decisions (check, inline and merge counts) and
  /// the counterexample text: fixed for a fixed Z3 seed, and the first
  /// thing another seed changes.
  size_t Fingerprint = 0;
};

/// Program text to verdict through the public one-call API.
RunOut runUntraced(const Input &In, unsigned Z3Seed, const Workload &W) {
  setZ3Seed(Z3Seed);
  RunOut Out;
  Stopwatch Watch;
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> Prog = parseAndCheck(In.Text, Ctx, Diags);
  if (!Prog)
    return Out; // set-up proved every text parses
  VerifierRunResult R =
      verifyProgram(Ctx, *Prog, Ctx.sym("main"), productOptions(W));
  Out.Seconds = Watch.seconds();
  Out.Outcome = R.Result.Outcome;
  Out.LabelsSolved = R.NumLabelsSolved;
  Out.Fingerprint = std::hash<std::string>{}(
      std::to_string(R.Result.NumUnderChecks) + "/" +
      std::to_string(R.Result.NumOverChecks) + "/" +
      std::to_string(R.Result.NumInlined) + "/" +
      std::to_string(R.Result.NumMerged) + "\n" + R.TraceText);
  return Out;
}

/// Counters summed over every traced run (times come from the trace).
struct LayerCounts {
  uint64_t Runs = 0;
  uint64_t Labels = 0, LabelsBefore = 0, LabelsAfter = 0, InvConjuncts = 0;
  uint64_t Iterations = 0, Inlined = 0, Merged = 0, DisjQueries = 0;
  uint64_t UnderChecks = 0, OverChecks = 0;
  double SolverSeconds = 0, MergeLookupSeconds = 0;
  double UntracedSeconds = 0;
};

/// The same composition verifyProgram performs, one benchmark-side span
/// per layer entry point. Keep in step with core/Verifier.cpp.
RunOut runTraced(const Input &In, unsigned Z3Seed, const Workload &W,
                 Trace &T, LayerCounts &L) {
  setZ3Seed(Z3Seed);
  VerifierOptions Opts = productOptions(W);
  RunOut Out;
  TraceSpan VerdictSpan(&T, "bench.verdict");
  AstContext Ctx;
  DiagEngine Diags;
  TraceSpan ParseSpan(&T, "bench.parse");
  std::optional<Program> Prog = parseAndCheck(In.Text, Ctx, Diags);
  ParseSpan.close();
  if (!Prog)
    return Out;
  Symbol Entry = Ctx.sym("main");

  TraceSpan BoundSpan(&T, "bench.bound");
  BoundedInstance Instance = prepareBounded(Ctx, *Prog, Entry, Opts.Bound);
  BoundSpan.close();

  TraceSpan LowerSpan(&T, "bench.lower");
  CfgProgram Cfg = lowerToCfg(Ctx, Instance.Prog);
  LowerSpan.close();
  L.Labels += Cfg.Labels.size();
  ProcId EntryProc = Cfg.findProc(Instance.Entry);

  TraceSpan PrepassSpan(&T, "bench.prepass");
  PrepassOptions PO = Opts.Prepass;
  PO.Invariants = PO.Invariants || Opts.UseInvariants;
  PO.Telemetry = &T;
  Stats PrepassStats;
  PrepassReport Report = runPrepass(Ctx, Cfg, EntryProc, Instance.ErrVar, PO,
                                    &PrepassStats);
  Report.record(PrepassStats);
  PrepassSpan.close();
  L.LabelsBefore += Report.LabelsBefore;
  L.LabelsAfter += Report.LabelsAfter;
  L.InvConjuncts += Report.InvariantConjuncts;
  Out.LabelsSolved = Cfg.Labels.size();
  if (!Report.ok())
    return Out;

  TraceSpan EngineSpan(&T, "bench.engine");
  EngineOptions EO = Opts.Engine;
  EO.Telemetry = &T;
  VerifyResult R = solveReachability(Ctx, Cfg, EntryProc, Instance.ErrVar, EO);
  EngineSpan.close();
  if (R.Outcome == Verdict::Bug)
    renderTrace(Ctx, Cfg, R.Trace);
  VerdictSpan.close();

  Out.Outcome = R.Outcome;
  ++L.Runs;
  L.Iterations += R.NumIterations;
  L.Inlined += R.NumInlined;
  L.Merged += R.NumMerged;
  L.DisjQueries += R.NumDisjQueries;
  L.UnderChecks += R.NumUnderChecks;
  L.OverChecks += R.NumOverChecks;
  L.SolverSeconds += R.SolverSeconds;
  L.MergeLookupSeconds += R.MergeLookupSeconds;
  return Out;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile with at least \p Beyond values above it (the
/// maximum when there are too few values).
struct Tail {
  double Value = 0;
  double Percentile = 100;
  size_t Beyond = 0;
};

Tail tailOf(std::vector<double> V, size_t Beyond = 10) {
  std::sort(V.begin(), V.end());
  Tail T;
  size_t N = V.size();
  T.Beyond = N > Beyond ? Beyond : 0;
  T.Value = V[N - 1 - T.Beyond];
  T.Percentile = 100.0 * static_cast<double>(N - T.Beyond) /
                 static_cast<double>(N);
  return T;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("%-32s %16.9g %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload sdv|chain|loops "
                       "--seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const Workload *W = nullptr;
  std::optional<uint64_t> Seed;
  double Seconds = 0;
  int TraceMode = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I];
    const char *Value = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      for (const Workload &Candidate : Workloads)
        if (!std::strcmp(Candidate.Name, Value))
          W = &Candidate;
    } else if (Flag == "--seed") {
      unsigned long long V = std::strtoull(Value, &End, 10);
      if (*Value && !*End)
        Seed = V;
    } else if (Flag == "--seconds") {
      Seconds = std::strtod(Value, &End);
      if (!*Value || *End)
        Seconds = 0;
    } else if (Flag == "--trace") {
      if (!std::strcmp(Value, "0") || !std::strcmp(Value, "1"))
        TraceMode = Value[0] - '0';
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !W || !Seed || !(Seconds > 0) || TraceMode < 0)
    return usage();

  // The first probe warms up Z3's global state.
  SpeedProbe Probe;
  Probe.probe();

  // Set-up. Every later set-up must reproduce the first corpus exactly.
  std::vector<Input> Inputs;
  std::vector<RunOut> SetupRuns;
  auto SetUpOnce = [&]() {
    std::string Error;
    RunOut Run;
    Run.Mark = Probe.mark();
    Stopwatch Watch;
    std::optional<std::vector<Input>> Again = setUp(*W, *Seed, Error);
    Run.Seconds = Watch.seconds();
    SetupRuns.push_back(Run);
    if (!Again) {
      std::fprintf(stderr, "set-up failed: %s\n", Error.c_str());
      return false;
    }
    if (SetupRuns.size() == 1)
      Inputs = std::move(*Again);
    else if (!(*Again == Inputs)) {
      std::fprintf(stderr, "set-up is not deterministic\n");
      return false;
    }
    return true;
  };
  if (!SetUpOnce())
    return 1;

  struct Pair {
    const Input *In;
    unsigned Z3Seed;
    std::vector<RunOut> Runs; // one per pass
  };
  std::vector<Pair> Pairs;
  for (const Input &In : Inputs)
    for (unsigned S : In.Z3Seeds)
      Pairs.push_back({&In, S, {}});
  std::printf("workload %s seed %llu: %zu programs x %u Z3 seeds, bound %u%s, "
              "limit %.0fs per run\n",
              W->Name, static_cast<unsigned long long>(*Seed), Inputs.size(),
              W->Z3Seeds, W->Bound, W->UseInvariants ? " +Inv" : "",
              W->LimitSeconds);

  // Timed phase: whole passes over every pair, with the remaining set-ups
  // between the first passes.
  Trace T;
  T.setEnabled(TraceMode == 1);
  LayerCounts L;
  uint64_t Attempted = 0, Undecided = 0, Wrong = 0, Drift = 0;
  unsigned Passes = 0;
  double Measured = 0, Longest = 0;
  for (;;) {
    Stopwatch PassWatch;
    for (Pair &Pr : Pairs) {
      size_t Mark = Probe.mark();
      RunOut Out = runUntraced(*Pr.In, Pr.Z3Seed, *W);
      Out.Mark = Mark;
      if (TraceMode == 1) {
        L.UntracedSeconds += Out.Seconds;
        RunOut Traced = runTraced(*Pr.In, Pr.Z3Seed, *W, T, L);
        if (Traced.Outcome != Out.Outcome ||
            Traced.LabelsSolved != Out.LabelsSolved) {
          ++Drift;
          std::fprintf(stderr,
                       "drift: %s z3 seed %u: traced %s with %zu labels, "
                       "untraced %s with %zu labels\n",
                       Pr.In->Name.c_str(), Pr.Z3Seed,
                       verdictName(Traced.Outcome), Traced.LabelsSolved,
                       verdictName(Out.Outcome), Out.LabelsSolved);
        }
      }
      ++Attempted;
      if (!decided(Out.Outcome)) {
        ++Undecided;
      } else if (Out.Outcome != Pr.In->Expected) {
        ++Wrong;
        std::fprintf(stderr, "wrong verdict: %s z3 seed %u: %s, expected %s\n",
                     Pr.In->Name.c_str(), Pr.Z3Seed, verdictName(Out.Outcome),
                     verdictName(Pr.In->Expected));
      }
      Pr.Runs.push_back(Out);
    }
    double PassSeconds = PassWatch.seconds();
    ++Passes;
    Measured += PassSeconds;
    Longest = std::max(Longest, PassSeconds);
    if (Measured + Longest > Seconds)
      break;
    if (SetupRuns.size() < Setups && !SetUpOnce())
      return 1;
  }
  while (SetupRuns.size() < Setups)
    if (!SetUpOnce())
      return 1;
  Probe.probe(); // after the last measured item

  // Seed control: a pair repeats its fingerprint in every pass, and some
  // program's fingerprint changes under another Z3 seed. When only one pass
  // fit, each program's first pair runs once more, untimed.
  uint64_t Unrepeatable = 0;
  bool SeedTakesEffect = false;
  for (size_t I = 0; I < Pairs.size(); ++I) {
    const Pair &Pr = Pairs[I];
    for (const RunOut &R : Pr.Runs)
      Unrepeatable += R.Fingerprint != Pr.Runs[0].Fingerprint;
    bool First = I == 0 || Pairs[I - 1].In != Pr.In;
    if (Passes == 1 && First)
      Unrepeatable += runUntraced(*Pr.In, Pr.Z3Seed, *W).Fingerprint !=
                      Pr.Runs[0].Fingerprint;
    if (!First && Pairs[I - 1].Runs[0].Fingerprint != Pr.Runs[0].Fingerprint)
      SeedTakesEffect = true;
  }

  // Per-program table: each Z3 seed's time (fastest pass, at nominal host
  // speed), and the ratio of the slowest seed to the fastest.
  std::vector<double> PairSeconds, RawSeconds, SeedRatios;
  uint64_t DecidedPairs = 0;
  std::printf("%-18s %-6s %s\n", "program", "expect",
              "[Z3 seed] seconds ... slowest/fastest seed");
  for (size_t I = 0; I < Pairs.size(); ++I) {
    const Pair &Pr = Pairs[I];
    double Fastest = W->LimitSeconds, Raw = W->LimitSeconds;
    for (const RunOut &R : Pr.Runs)
      if (decided(R.Outcome)) {
        Fastest = std::min(Fastest, Probe.normalize(R.Seconds, R.Mark));
        Raw = std::min(Raw, R.Seconds);
      }
    RawSeconds.push_back(Raw);
    PairSeconds.push_back(Fastest);
    DecidedPairs += Pr.Runs[0].Outcome == Pr.In->Expected;
    bool First = I == 0 || Pairs[I - 1].In != Pr.In;
    bool Last = I + 1 == Pairs.size() || Pairs[I + 1].In != Pr.In;
    if (First)
      std::printf("%-18s %-6s", Pr.In->Name.c_str(),
                  verdictName(Pr.In->Expected));
    std::printf(" [%u] %.4f", Pr.Z3Seed, Fastest);
    if (Last) {
      auto Seeds = PairSeconds.end() - Pr.In->Z3Seeds.size();
      double Ratio = *std::max_element(Seeds, PairSeconds.end()) /
                     *std::min_element(Seeds, PairSeconds.end());
      SeedRatios.push_back(Ratio);
      std::printf("  x%.2f\n", Ratio);
    }
  }

  std::vector<double> SetupSeconds;
  for (const RunOut &R : SetupRuns)
    SetupSeconds.push_back(Probe.normalize(R.Seconds, R.Mark));

  Tail TailStat = tailOf(PairSeconds);
  const std::vector<double> &Probes = Probe.times();
  std::printf("speed probe: %zu runs, median %.4fs (nominal %.4fs), min %.4fs, "
              "max %.4fs, %u wrong answers\n",
              Probes.size(), median(Probes), SpeedProbe::NominalSeconds,
              *std::min_element(Probes.begin(), Probes.end()),
              *std::max_element(Probes.begin(), Probes.end()), Probe.wrong());
  std::printf("as measured, before the speed correction: median %.4fs, "
              "geomean %.4fs\n",
              median(RawSeconds), geomean(RawSeconds));
  std::printf("%u passes, %.2fs measured; %llu runs: %llu undecided, "
              "wrong_verdicts %llu, unrepeatable runs %llu, Z3 seed changes "
              "runs: %s\n",
              Passes, Measured, static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Undecided),
              static_cast<unsigned long long>(Wrong),
              static_cast<unsigned long long>(Unrepeatable),
              SeedTakesEffect ? "yes" : "no");
  std::printf("slowest/fastest Z3 seed per program: median x%.2f, max x%.2f\n",
              median(SeedRatios),
              *std::max_element(SeedRatios.begin(), SeedRatios.end()));
  std::printf("verdict_s_tail is p%.1f over %zu (program, Z3 seed) pairs, "
              "%zu beyond it\n",
              TailStat.Percentile, PairSeconds.size(), TailStat.Beyond);

  bool Correct =
      Wrong == 0 && Drift == 0 && Unrepeatable == 0 && SeedTakesEffect &&
      Probe.wrong() == 0;
  std::vector<Metric> Metrics;
  if (TraceMode == 0) {
    Metrics = {
        {"verdict_s_p50", median(PairSeconds), "s"},
        {"verdict_s_tail", TailStat.Value, "s"},
        {"verdict_s_geomean", geomean(PairSeconds), "s"},
        {"verdicts_per_s",
         static_cast<double>(DecidedPairs) /
             std::accumulate(PairSeconds.begin(), PairSeconds.end(), 0.0),
         "1/s"},
        {"decided_frac",
         static_cast<double>(Attempted - Undecided) /
             static_cast<double>(Attempted),
         "frac"},
        {"setup_s", median(SetupSeconds), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
  } else {
    auto Span = [&](const std::string &Name) {
      auto It = T.spanAggregates().find(Name);
      return It == T.spanAggregates().end() ? 0.0 : It->second.Seconds;
    };
    auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
    auto Count = [](uint64_t N) { return static_cast<double>(N); };
    double Verdict = Span("bench.verdict");
    double Parse = Span("bench.parse"), Bound = Span("bench.bound"),
           Lower = Span("bench.lower"), Prepass = Span("bench.prepass"),
           Engine = Span("bench.engine");
    Metrics = {
        {"bench.runs", Count(L.Runs), "count"},
        {"bench.verdict_s", Verdict, "s"},
        {"parser.parse_s", Parse, "s"},
        {"transform.bound_s", Bound, "s"},
        {"transform.labels", Count(L.Labels), "count"},
        {"cfg.lower_s", Lower, "s"},
        {"analysis.prepass_s", Prepass, "s"},
    };
    for (const char *Pass : {"constprop", "gvn", "assumeelim", "slice",
                             "splice", "deadproc", "inv"})
      Metrics.push_back({std::string("analysis.pass.") + Pass + "_s",
                         Span(std::string("pass.") + Pass), "s"});
    Metrics.insert(
        Metrics.end(),
        {
            {"analysis.labels_kept_frac",
             Ratio(Count(L.LabelsAfter), Count(L.LabelsBefore)), "frac"},
            {"analysis.inv_conjuncts", Count(L.InvConjuncts), "count"},
            {"core.engine_s", Engine, "s"},
            {"core.nonsolver_s", Engine - L.SolverSeconds, "s"},
            {"core.iterations", Count(L.Iterations), "count"},
            {"core.inlined", Count(L.Inlined), "count"},
            {"core.merged", Count(L.Merged), "count"},
            {"core.merge_frac",
             Ratio(Count(L.Merged), Count(L.Merged + L.Inlined)), "frac"},
            {"core.merge_lookup_s", L.MergeLookupSeconds, "s"},
            {"core.disj_queries", Count(L.DisjQueries), "count"},
            {"smt.check_s", L.SolverSeconds, "s"},
            {"smt.under_check_s", Span("engine.under_check"), "s"},
            {"smt.over_check_s", Span("engine.over_check"), "s"},
            {"smt.under_checks", Count(L.UnderChecks), "count"},
            {"smt.over_checks", Count(L.OverChecks), "count"},
            {"bench.other_s",
             Verdict - Parse - Bound - Lower - Prepass - Engine, "s"},
            {"bench.trace_overhead_frac",
             Ratio(Verdict, L.UntracedSeconds) - 1, "frac"},
        });
  }
  printResult(Correct, Attempted, Undecided + Wrong + Drift, Metrics);
  return Correct ? 0 : 1;
}
