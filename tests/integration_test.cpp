//===- integration_test.cpp - Cross-module differential properties ----------===//
//
// The heavyweight guarantees:
//  1. Every engine/strategy combination agrees on the verdict (DI is sound
//     and complete relative to tree inlining — Theorem 1).
//  2. The concrete evaluator and the engines agree: a concretely failing
//     run within the bound forces Bug; a Safe verdict forbids failing runs.
//  3. The prepass never changes a verdict: the structural passes, and the
//     interval invariants (+Inv, the default) at benchmark shapes.
//
//===----------------------------------------------------------------------===//

#include "TestSupport.h"
#include "ast/Eval.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "support/Rng.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"
#include "workload/SdvGen.h"

#include <gtest/gtest.h>
#include <z3.h>

#include <algorithm>
#include <cstdio>
#include <functional>

using namespace rmt;

namespace {

VerifierOptions optsFor(MergeStrategyKind Kind, unsigned Bound) {
  VerifierOptions Opts;
  Opts.Bound = Bound;
  Opts.Engine.Strategy.Kind = Kind;
  Opts.Engine.Strategy.Seed = 17;
  Opts.Engine.TimeoutSeconds = 90;
  return Opts;
}

/// perfbench's nine `sdv` drivers, numbered as it names them: 3-4
/// handlers, 3-6 utilities, 2 calls per handler, two utility layers (three
/// for every fifth driver), every other driver with an injected rule
/// violation; driver 4 is not one.
std::vector<std::pair<unsigned, SdvParams>> perfbenchDrivers() {
  std::vector<std::pair<unsigned, SdvParams>> Out;
  Rng R(0x5d5);
  for (unsigned I = 0; I < 10; ++I) {
    SdvParams P;
    P.Seed = R.next();
    P.NumHandlers = static_cast<unsigned>(R.range(3, 4));
    P.NumUtils = static_cast<unsigned>(R.range(3, 6));
    P.UtilDepth = I % 5 == 4 ? 3 : 2;
    P.CallsPerHandler = 2;
    P.InjectBug = I % 2 == 1;
    if (I != 4)
      Out.emplace_back(I, P);
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine agreement sweep
//===----------------------------------------------------------------------===//

class EngineAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineAgreement, AllStrategiesSameVerdict) {
  RandomProgParams Params;
  Params.Seed = GetParam();
  Params.NumProcs = 5;
  Params.MaxStmts = 4;
  Params.AllowLoops = GetParam() % 2 == 0;
  Params.AllowArrays = GetParam() % 3 == 0;
  Params.AllowBitvectors = GetParam() % 5 == 0;

  std::optional<Verdict> Reference;
  for (MergeStrategyKind Kind :
       {MergeStrategyKind::None, MergeStrategyKind::First,
        MergeStrategyKind::MaxC, MergeStrategyKind::RandomPick,
        MergeStrategyKind::Opt}) {
    AstContext Ctx;
    Program P = makeRandomProgram(Ctx, Params);
    auto R = verifyProgram(Ctx, P, Ctx.sym("main"), optsFor(Kind, 3));
    ASSERT_TRUE(R.Result.Outcome == Verdict::Bug ||
                R.Result.Outcome == Verdict::Safe)
        << "unexpected verdict " << verdictName(R.Result.Outcome)
        << " with " << strategyName(Kind) << " on seed " << GetParam();
    if (!Reference)
      Reference = R.Result.Outcome;
    EXPECT_EQ(R.Result.Outcome, *Reference)
        << strategyName(Kind) << " disagrees on seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Range<uint64_t>(1, 26));

//===----------------------------------------------------------------------===//
// Engine vs. eager agreement (smaller sweep: eager VCs grow fast)
//===----------------------------------------------------------------------===//

class EagerAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EagerAgreement, EagerMatchesStratified) {
  RandomProgParams Params;
  Params.Seed = GetParam() + 1000;
  Params.NumProcs = 4;
  Params.MaxStmts = 3;

  AstContext Ctx;
  Program P = makeRandomProgram(Ctx, Params);
  auto Lazy = verifyProgram(Ctx, P, Ctx.sym("main"),
                            optsFor(MergeStrategyKind::First, 2));
  VerifierOptions EagerOpts = optsFor(MergeStrategyKind::None, 2);
  EagerOpts.Engine.Eager = true;
  AstContext Ctx2;
  Program P2 = makeRandomProgram(Ctx2, Params);
  auto Eager = verifyProgram(Ctx2, P2, Ctx2.sym("main"), EagerOpts);
  EXPECT_EQ(Lazy.Result.Outcome, Eager.Result.Outcome)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EagerAgreement,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===//
// Evaluator vs. engine
//===----------------------------------------------------------------------===//

class OracleAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleAgreement, ConcreteBugForcesEngineBug) {
  RandomProgParams Params;
  Params.Seed = GetParam() + 500;
  Params.NumProcs = 5;
  Params.MaxStmts = 4;
  Params.AllowLoops = true;
  Params.AllowBitvectors = GetParam() % 4 == 0;
  Params.AssertChance = 70;

  AstContext Ctx;
  Program P = makeRandomProgram(Ctx, Params);

  // Fuzz the oracle. Track the bound profile of any failing run.
  bool FoundConcreteBug = false;
  unsigned NeededBound = 1;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    EvalOptions EOpts;
    EOpts.Seed = Seed;
    EvalResult E = evaluate(Ctx, P, Ctx.sym("main"), EOpts);
    if (E.Outcome == EvalOutcome::AssertFailed) {
      FoundConcreteBug = true;
      unsigned B = std::max(E.MaxLoopIterations, E.MaxRecursionDepth);
      NeededBound = std::max(NeededBound, B);
    }
  }

  auto R = verifyProgram(Ctx, P, Ctx.sym("main"),
                         optsFor(MergeStrategyKind::First,
                                 std::max(NeededBound, 2u)));
  ASSERT_TRUE(R.Result.Outcome == Verdict::Bug ||
              R.Result.Outcome == Verdict::Safe);
  if (FoundConcreteBug) {
    // Completeness within the bound: the engine must find it.
    EXPECT_EQ(R.Result.Outcome, Verdict::Bug) << "seed " << GetParam();
  } else if (R.Result.Outcome == Verdict::Safe) {
    // Soundness spot check: no oracle run may contradict Safe.
    for (uint64_t Seed = 64; Seed < 96; ++Seed) {
      EvalOptions EOpts;
      EOpts.Seed = Seed;
      EvalResult E = evaluate(Ctx, P, Ctx.sym("main"), EOpts);
      EXPECT_NE(E.Outcome, EvalOutcome::AssertFailed)
          << "engine said Safe but oracle seed " << Seed << " fails";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleAgreement,
                         ::testing::Range<uint64_t>(1, 26));

//===----------------------------------------------------------------------===//
// +Inv must never change a verdict
//===----------------------------------------------------------------------===//

class InvariantSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvariantSoundness, VerdictStableUnderInjection) {
  RandomProgParams Params;
  Params.Seed = GetParam() + 2000;
  Params.NumProcs = 5;
  Params.MaxStmts = 4;

  AstContext Ctx;
  Program P = makeRandomProgram(Ctx, Params);
  VerifierOptions PlainOpts = optsFor(MergeStrategyKind::First, 2);
  PlainOpts.Prepass.Invariants = false;
  auto Plain = verifyProgram(Ctx, P, Ctx.sym("main"), PlainOpts);
  VerifierOptions InvOpts = optsFor(MergeStrategyKind::First, 2);
  InvOpts.Prepass.Invariants = true;
  AstContext Ctx2;
  Program P2 = makeRandomProgram(Ctx2, Params);
  auto WithInv = verifyProgram(Ctx2, P2, Ctx2.sym("main"), InvOpts);
  EXPECT_EQ(Plain.Result.Outcome, WithInv.Result.Outcome)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSoundness,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// +Inv and -Inv agree, on the known answer, at benchmark shapes
//===----------------------------------------------------------------------===//

namespace {

/// Runs each case under one Z3 random seed (Z3 reads its seeds when a
/// solver is created), then restores Z3's default seed.
class InvariantDifferential : public ::testing::TestWithParam<unsigned> {
protected:
  void SetUp() override { setZ3Seed(GetParam()); }
  void TearDown() override { setZ3Seed(0); }

  static void setZ3Seed(unsigned Seed) {
    std::string S = std::to_string(Seed);
    Z3_global_param_set("smt.random_seed", S.c_str());
    Z3_global_param_set("sat.random_seed", S.c_str());
  }

  /// The verdict of \p Make's program from `main` under DI/FIRST at
  /// \p Bound, with or without interval invariants.
  static Verdict verdict(const std::function<Program(AstContext &)> &Make,
                         unsigned Bound, bool Inv) {
    AstContext Ctx;
    Program P = Make(Ctx);
    VerifierOptions Opts = optsFor(MergeStrategyKind::First, Bound);
    Opts.Prepass.Invariants = Inv;
    VerifierRunResult R = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_TRUE(R.Prepass.ok());
    return R.Result.Outcome;
  }

  /// +Inv and -Inv both give \p Expected on \p Make's program.
  static void expectAgree(const std::function<Program(AstContext &)> &Make,
                          unsigned Bound, Verdict Expected,
                          const std::string &What) {
    ASSERT_TRUE(Expected == Verdict::Safe || Expected == Verdict::Bug)
        << What << ": the reference did not decide";
    EXPECT_EQ(verdict(Make, Bound, /*Inv=*/false), Expected)
        << What << " -Inv";
    EXPECT_EQ(verdict(Make, Bound, /*Inv=*/true), Expected)
        << What << " +Inv";
  }
};

} // namespace

TEST_P(InvariantDifferential, ChainsAgree) {
  for (unsigned N : {4u, 8u, 12u, 16u})
    for (bool Buggy : {false, true})
      expectAgree(
          [&](AstContext &C) { return makeChainProgram(C, N, Buggy); }, 1,
          Buggy ? Verdict::Bug : Verdict::Safe,
          "chain" + std::to_string(N) + (Buggy ? "_bug" : "_safe"));
}

TEST_P(InvariantDifferential, SdvDriversAgree) {
  for (const auto &[I, P] : perfbenchDrivers())
    expectAgree([&](AstContext &C) { return makeSdvProgram(C, P); }, 1,
                P.InjectBug ? Verdict::Bug : Verdict::Safe,
                "driver " + std::to_string(I));
}

TEST_P(InvariantDifferential, RandomProgramsAgree) {
  // Loops, arrays and bitvectors at bound 2. The known answer comes from a
  // configuration that shares no pass with either side: no prepass at all
  // and SI tree inlining.
  unsigned Bugs = 0;
  for (uint64_t Draw = 0; Draw < 20; ++Draw) {
    RandomProgParams P;
    P.Seed = Draw * 104729 + 7;
    P.NumProcs = 8;
    P.MaxStmts = 6;
    P.MaxNesting = 3;
    P.AllowLoops = true;
    P.AllowArrays = true;
    P.AllowBitvectors = true;
    auto Make = [&](AstContext &C) { return makeRandomProgram(C, P); };
    AstContext Ctx;
    Program Prog = Make(Ctx);
    VerifierOptions Ref = optsFor(MergeStrategyKind::None, 2);
    Ref.UsePrepass = false;
    Verdict Expected =
        verifyProgram(Ctx, Prog, Ctx.sym("main"), Ref).Result.Outcome;
    expectAgree(Make, 2, Expected, "draw " + std::to_string(Draw));
    Bugs += Expected == Verdict::Bug;
  }
  // Both answers occur, so neither side can agree by always giving one.
  EXPECT_GT(Bugs, 0u);
  EXPECT_LT(Bugs, 20u);
}

INSTANTIATE_TEST_SUITE_P(Z3Seeds, InvariantDifferential,
                         ::testing::Values(1u, 2u));

//===----------------------------------------------------------------------===//
// +Inv's proof (Safe with no engine run) never fires on a Bug
//===----------------------------------------------------------------------===//

namespace {

/// Where +Inv's interval analysis proves the query on its own, so that
/// verifyProgram answers Safe without running the engine. Every program it
/// proves must be Safe: by construction when the generator knows the answer
/// (\p Known), else by the reference configuration, which shares no pass
/// with the proof: no prepass (so no `inv`) and SI tree inlining. (SI is
/// not the reference for chains: chainN needs 2^N instances.)
struct ProofTally {
  unsigned Programs = 0;
  std::vector<std::string> Fired;

  void check(const std::function<Program(AstContext &)> &Make, unsigned Bound,
             const std::string &What,
             std::optional<Verdict> Known = std::nullopt) {
    ++Programs;
    AstContext Ctx;
    Program P = Make(Ctx);
    VerifierOptions Opts;
    Opts.Bound = Bound;
    VerifierRunResult Front;
    lowerInstance(Ctx, P, Ctx.sym("main"), Opts, Front);
    ASSERT_TRUE(Front.Prepass.ok()) << What;
    if (!Front.Prepass.InvariantsProveQuery)
      return;
    Fired.push_back(What);
    if (Known) {
      EXPECT_EQ(*Known, Verdict::Safe) << "the interval proof fired on " << What;
      return;
    }
    VerifierOptions Ref = optsFor(MergeStrategyKind::None, Bound);
    Ref.UsePrepass = false;
    EXPECT_EQ(verifyProgram(Ctx, P, Ctx.sym("main"), Ref).Result.Outcome,
              Verdict::Safe)
        << "the interval proof fired on " << What;
  }

  void print(const char *Family) const {
    std::printf("[ proof    ] %s: fired on %zu of %u programs\n", Family,
                Fired.size(), Programs);
  }
};

/// perfbench's `loops` program shape (bound 2).
RandomProgParams loopsShape(uint64_t Seed) {
  RandomProgParams P;
  P.Seed = Seed;
  P.NumProcs = 30;
  P.MaxStmts = 10;
  P.MaxNesting = 3;
  P.AllowLoops = true;
  P.AllowArrays = true;
  P.AllowBitvectors = true;
  return P;
}

} // namespace

TEST(InvariantProof, NeverFiresOnABug) {
  // perfbench's `loops` draws come first (the same Rng stream), then more
  // of the same shape: 240 in all.
  ProofTally Loops;
  Rng LoopsSeeds(0x100f);
  for (unsigned Draw = 0; Draw < 240; ++Draw) {
    RandomProgParams P = loopsShape(LoopsSeeds.next());
    Loops.check([&](AstContext &C) { return makeRandomProgram(C, P); }, 2,
                "rand" + std::to_string(Draw));
  }
  Loops.print("loops");

  // perfbench's nine `sdv` drivers, then the stock corpus (capped as for
  // PrepassDifferentialSdv), whose answers are known by construction.
  ProofTally Sdv;
  for (const auto &[I, P] : perfbenchDrivers())
    Sdv.check([&](AstContext &C) { return makeSdvProgram(C, P); }, 1,
              "drv" + std::to_string(I));
  for (SdvInstance I : makeSdvCorpus(42, 40, 128)) {
    I.Params.NumHandlers = std::min(I.Params.NumHandlers, 4u);
    I.Params.NumUtils = std::min(I.Params.NumUtils, 5u);
    I.Params.UtilDepth = std::min(I.Params.UtilDepth, 3u);
    I.Params.CallsPerHandler = std::min(I.Params.CallsPerHandler, 2u);
    Sdv.check([&](AstContext &C) { return makeSdvProgram(C, I.Params); }, 1,
              I.Name, I.Params.InjectBug ? Verdict::Bug : Verdict::Safe);
  }
  Sdv.print("sdv");

  ProofTally Chains;
  for (unsigned N = 4; N <= 32; ++N)
    for (bool Buggy : {false, true})
      Chains.check(
          [&](AstContext &C) { return makeChainProgram(C, N, Buggy); }, 1,
          "chain" + std::to_string(N) + (Buggy ? "_bug" : "_safe"),
          Buggy ? Verdict::Bug : Verdict::Safe);
  Chains.print("chain");

  // On perfbench's own programs it fires on exactly the 7 safe chains,
  // drivers 0, 2, 6 and 8 (its four safe drivers), and `loops` draws 5 and
  // 11 (draws 0-37 hold perfbench's 20).
  auto FiredAmong = [](const ProofTally &T, const std::string &Prefix,
                       unsigned Count) {
    std::vector<std::string> Out;
    for (unsigned I = 0; I < Count; ++I)
      if (std::count(T.Fired.begin(), T.Fired.end(),
                     Prefix + std::to_string(I)))
        Out.push_back(Prefix + std::to_string(I));
    return Out;
  };
  EXPECT_EQ(FiredAmong(Loops, "rand", 38),
            (std::vector<std::string>{"rand5", "rand11"}));
  EXPECT_EQ(FiredAmong(Sdv, "drv", 10),
            (std::vector<std::string>{"drv0", "drv2", "drv6", "drv8"}));
  // It fires on 25 of the 49 SDV programs, which is every safe one: 4
  // perfbench drivers and 21 corpus drivers.
  EXPECT_EQ(Sdv.Fired.size(), 25u);
  // Every safe chain (a firing on a buggy one fails check() above).
  EXPECT_EQ(Chains.Fired.size(), 29u);
}

//===----------------------------------------------------------------------===//
// End-to-end on a realistic parsed program
//===----------------------------------------------------------------------===//

TEST(EndToEnd, AccountStateMachine) {
  const char *Src = R"(
    var balance: int;
    var opened: bool;

    procedure open_account() {
      assert !opened;
      opened := true;
      balance := 0;
    }

    procedure close_account() {
      assert opened;
      opened := false;
    }

    procedure deposit(amount: int) {
      assert opened;
      assume amount > 0;
      balance := balance + amount;
    }

    procedure withdraw(amount: int) returns (ok: bool) {
      assert opened;
      if (amount > 0 && amount <= balance) {
        balance := balance - amount;
        ok := true;
      } else {
        ok := false;
      }
    }

    procedure main() {
      var a: int;
      var ok: bool;
      opened := false;
      call open_account();
      havoc a;
      if (*) { call deposit(5); } else { call deposit(50); }
      call ok := withdraw(a);
      assert balance >= 0;
      call close_account();
      assert !opened;
    }
  )";
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Src, Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();
  auto R = verifyProgram(Ctx, *P, Ctx.sym("main"),
                         optsFor(MergeStrategyKind::First, 2));
  EXPECT_EQ(R.Result.Outcome, Verdict::Safe);
}

TEST(EndToEnd, AccountDoubleOpenBug) {
  const char *Src = R"(
    var opened: bool;
    procedure open_account() { assert !opened; opened := true; }
    procedure handler() { call open_account(); }
    procedure main() {
      opened := false;
      call handler();
      if (*) { call handler(); }
    }
  )";
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(Src, Ctx, Diags);
  ASSERT_TRUE(P) << Diags.str();
  auto R = verifyProgram(Ctx, *P, Ctx.sym("main"),
                         optsFor(MergeStrategyKind::First, 2));
  EXPECT_EQ(R.Result.Outcome, Verdict::Bug);
  EXPECT_NE(R.TraceText.find("open_account"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Prepass differential: the sliced verdict must equal the unsliced verdict
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Passes (by default the structural prepass, -Inv: `inv` adds
/// labels, and the InvariantSoundness/InvariantDifferential suites check it)
/// on the bounded program and expects the engine's verdict on the result to
/// equal its verdict with no prepass.
void expectPrepassAgrees(
    AstContext &Ctx, const Program &P, unsigned Bound, const std::string &What,
    std::span<const PassInfo> Passes = prepassPipeline(false)) {
  VerifierOptions Opts = optsFor(MergeStrategyKind::First, Bound);
  Opts.UsePrepass = false;
  auto ROff = verifyProgram(Ctx, P, Ctx.sym("main"), Opts);
  ASSERT_TRUE(ROff.Result.Outcome == Verdict::Safe ||
              ROff.Result.Outcome == Verdict::Bug)
      << "unexpected baseline verdict on " << What;

  VerifierRunResult Front;
  LoweredInstance L = lowerInstance(Ctx, P, Ctx.sym("main"), Opts, Front);
  size_t Labels = L.Cfg.Labels.size(), Procs = L.Cfg.Procs.size();
  // Re-check the Fig. 7 structural invariants after every pass: any pass
  // order that corrupts the label form fails here, not downstream.
  PrepassReport Report;
  PassContext PC{Ctx, L.Cfg, L.Entry, L.ErrVar, Report};
  std::vector<std::string> Errors =
      runPasses(PC, Passes, /*VerifyEach=*/true, false, nullptr, nullptr);
  ASSERT_TRUE(Errors.empty())
      << "pipeline aborted on " << What << ": " << Errors.front();
  // The prepass never grows the program.
  EXPECT_LE(L.Cfg.Labels.size(), Labels);
  EXPECT_LE(L.Cfg.Procs.size(), Procs);

  VerifyResult ROn =
      solveReachability(Ctx, L.Cfg, L.Entry, L.ErrVar, Opts.Engine);
  EXPECT_EQ(ROn.Outcome, ROff.Result.Outcome)
      << "prepass changed the verdict on " << What;
  // A Bug verdict still comes with a feasible rendered counterexample.
  if (ROn.Outcome == Verdict::Bug) {
    EXPECT_FALSE(renderTrace(Ctx, L.Cfg, ROn.Trace).empty()) << What;
  }
}

} // namespace

class PrepassDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrepassDifferential, RandomProgramsAgree) {
  RandomProgParams Params;
  Params.Seed = GetParam() * 7919 + 3;
  Params.NumProcs = 5;
  Params.MaxStmts = 4;
  Params.AllowLoops = GetParam() % 2 == 0;
  Params.AllowArrays = GetParam() % 3 == 0;
  Params.AllowBitvectors = GetParam() % 5 == 0;

  AstContext Ctx;
  Program P = makeRandomProgram(Ctx, Params);
  expectPrepassAgrees(Ctx, P, 3, "random seed " + std::to_string(GetParam()));
}

// 150 random instances; with the SDV corpus and the chain family below the
// differential sweep covers 200+ generated programs.
INSTANTIATE_TEST_SUITE_P(Seeds, PrepassDifferential,
                         ::testing::Range<uint64_t>(1, 151));

TEST(PrepassDifferentialSdv, CorpusAgrees) {
  // Cap the corpus shape: the no-prepass baseline pays for the full utility
  // tree (which doubles per UtilDepth layer), and the largest stock
  // instances exceed the solver timeout. The capped instances still
  // exercise dispatch arms, shared utilities, and injected bugs.
  for (SdvInstance I : makeSdvCorpus(42, 40, 128)) {
    I.Params.NumHandlers = std::min(I.Params.NumHandlers, 4u);
    I.Params.NumUtils = std::min(I.Params.NumUtils, 5u);
    I.Params.UtilDepth = std::min(I.Params.UtilDepth, 3u);
    I.Params.CallsPerHandler = std::min(I.Params.CallsPerHandler, 2u);
    AstContext Ctx;
    Program P = makeSdvProgram(Ctx, I.Params);
    expectPrepassAgrees(Ctx, P, 2, I.Name);
  }
}

TEST(PrepassDifferentialChain, ChainFamilyAgrees) {
  for (unsigned N = 1; N <= 12; ++N)
    for (bool Buggy : {false, true}) {
      AstContext Ctx;
      Program P = makeChainProgram(Ctx, N, Buggy);
      expectPrepassAgrees(Ctx, P, 2,
                          "chain N=" + std::to_string(N) +
                              (Buggy ? " buggy" : " safe"));
    }
}

TEST(PrepassDifferentialPipelines, PermutationsAgreeUnderVerifyEach) {
  // Every pass is individually verdict-preserving, so any ordering (and any
  // repetition) must agree with the no-prepass baseline; --verify-each keeps
  // each step honest about the label-form invariants along the way.
  const std::vector<PassInfo> Orders[] = {
      // splice before slice
      passList({"splice", "slice", "deadproc"}),
      // deadproc first
      passList({"deadproc", "slice", "splice"}),
      // splice around slice
      passList({"splice", "slice", "splice", "deadproc"}),
      // idempotence
      passList({"slice", "slice", "splice", "splice"}),
      // reductions only, repeated
      passList({"deadproc", "splice", "deadproc", "splice"}),
      // a single pass, skips left in place
      passList({"slice"}),
  };
  for (const std::vector<PassInfo> &Order : Orders) {
    std::string Spec = passNames(Order);
    for (unsigned N : {1u, 4u, 8u})
      for (bool Buggy : {false, true}) {
        AstContext Ctx;
        Program P = makeChainProgram(Ctx, N, Buggy);
        expectPrepassAgrees(Ctx, P, 2,
                            "chain N=" + std::to_string(N) +
                                (Buggy ? " buggy" : " safe") + " passes=" +
                                Spec,
                            Order);
      }
    for (uint64_t Seed : {11u, 29u, 53u}) {
      RandomProgParams Params;
      Params.Seed = Seed * 7919 + 3;
      Params.NumProcs = 4;
      Params.MaxStmts = 4;
      Params.AllowLoops = Seed % 2 == 0;
      Params.AllowArrays = Seed % 3 == 0;
      AstContext Ctx;
      Program P = makeRandomProgram(Ctx, Params);
      expectPrepassAgrees(Ctx, P, 3,
                          "random seed " + std::to_string(Seed) +
                              " passes=" + Spec,
                          Order);
    }
  }
}
