//===- integration_test.cpp - Cross-module differential properties ----------===//
//
// The heavyweight guarantees:
//  1. Every engine/strategy combination agrees on the verdict (DI is sound
//     and complete relative to tree inlining — Theorem 1).
//  2. The concrete evaluator and the engines agree: a concretely failing
//     run within the bound forces Bug; a Safe verdict forbids failing runs.
//
//===----------------------------------------------------------------------===//

#include "ast/Eval.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"
#include "workload/SdvGen.h"

#include <gtest/gtest.h>

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
  auto Plain = verifyProgram(Ctx, P, Ctx.sym("main"),
                             optsFor(MergeStrategyKind::First, 2));
  VerifierOptions InvOpts = optsFor(MergeStrategyKind::First, 2);
  InvOpts.UseInvariants = true;
  AstContext Ctx2;
  Program P2 = makeRandomProgram(Ctx2, Params);
  auto WithInv = verifyProgram(Ctx2, P2, Ctx2.sym("main"), InvOpts);
  EXPECT_EQ(Plain.Result.Outcome, WithInv.Result.Outcome)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSoundness,
                         ::testing::Range<uint64_t>(1, 21));

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

void expectPrepassAgrees(AstContext &Ctx, const Program &P, unsigned Bound,
                         const std::string &What,
                         const std::string &Passes = DefaultPrepassPasses) {
  VerifierOptions On = optsFor(MergeStrategyKind::First, Bound);
  // Re-check the Fig. 7 structural invariants after every pass: any pipeline
  // configuration that corrupts the label form fails here, not downstream.
  On.Prepass.VerifyEach = true;
  On.Prepass.Passes = Passes;
  VerifierOptions Off = On;
  Off.UsePrepass = false;
  auto ROn = verifyProgram(Ctx, P, Ctx.sym("main"), On);
  auto ROff = verifyProgram(Ctx, P, Ctx.sym("main"), Off);
  ASSERT_TRUE(ROn.Prepass.ok())
      << "pipeline aborted on " << What << ": "
      << (ROn.Prepass.PipelineErrors.empty()
              ? std::string("<no diagnostics>")
              : ROn.Prepass.PipelineErrors.front());
  ASSERT_TRUE(ROff.Result.Outcome == Verdict::Safe ||
              ROff.Result.Outcome == Verdict::Bug)
      << "unexpected baseline verdict on " << What;
  EXPECT_EQ(ROn.Result.Outcome, ROff.Result.Outcome)
      << "prepass changed the verdict on " << What;
  // The prepass never grows the program, and a Bug verdict still comes with
  // a feasible rendered counterexample.
  EXPECT_LE(ROn.NumLabelsSolved, ROn.NumLabels);
  EXPECT_LE(ROn.NumProcsSolved, ROn.NumProcs);
  if (ROn.Result.Outcome == Verdict::Bug) {
    EXPECT_FALSE(ROn.TraceText.empty()) << What;
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
  const char *Specs[] = {
      "gvn,splice,slice,deadproc", // splice before slice
      "slice,deadproc,gvn,splice", // slice first
      "splice,gvn,splice,gvn",     // gvn around splice, cuts left unswept
      "gvn,gvn,splice,splice",     // idempotence
      "deadproc,splice",           // reductions only
      "gvn",                       // a single pass
  };
  for (const char *Spec : Specs) {
    for (unsigned N : {1u, 4u, 8u})
      for (bool Buggy : {false, true}) {
        AstContext Ctx;
        Program P = makeChainProgram(Ctx, N, Buggy);
        expectPrepassAgrees(Ctx, P, 2,
                            "chain N=" + std::to_string(N) +
                                (Buggy ? " buggy" : " safe") + " passes=" +
                                Spec,
                            Spec);
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
                          Spec);
    }
  }
}
