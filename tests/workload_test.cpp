//===- workload_test.cpp - Workload generators ------------------------------===//

#include "ast/AstPrinter.h"
#include "ast/Eval.h"
#include "cfg/Lower.h"
#include "parser/TypeCheck.h"
#include "transform/Transforms.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"
#include "workload/SdvGen.h"

#include <gtest/gtest.h>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Chain (Fig. 2)
//===----------------------------------------------------------------------===//

TEST(ChainGen, ShapeMatchesFig2) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 4);
  // main + P0..P4.
  EXPECT_EQ(P.Procedures.size(), 6u);
  EXPECT_TRUE(P.findProc(Ctx.sym("main")));
  EXPECT_TRUE(P.findProc(Ctx.sym("P4")));
  EXPECT_FALSE(P.findProc(Ctx.sym("P5")));
  // The generated program re-checks cleanly.
  DiagEngine Diags;
  EXPECT_TRUE(typecheck(Ctx, P, Diags)) << Diags.str();
}

TEST(ChainGen, SafeVariantNeverFailsConcretely) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 5);
  for (uint64_t Seed = 0; Seed < 32; ++Seed) {
    EvalOptions Opts;
    Opts.Seed = Seed;
    EvalResult R = evaluate(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Outcome, EvalOutcome::Completed);
  }
}

TEST(ChainGen, BuggyVariantAlwaysFailsConcretely) {
  AstContext Ctx;
  Program P = makeChainProgram(Ctx, 5, /*Buggy=*/true);
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    EvalOptions Opts;
    Opts.Seed = Seed;
    EvalResult R = evaluate(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_EQ(R.Outcome, EvalOutcome::AssertFailed);
  }
}

//===----------------------------------------------------------------------===//
// Random programs
//===----------------------------------------------------------------------===//

TEST(RandomGen, DeterministicPerSeed) {
  RandomProgParams Params;
  Params.Seed = 77;
  Params.AllowLoops = true;
  Params.AllowArrays = true;
  Params.AllowBitvectors = true;
  AstContext C1, C2;
  std::string A = printProgram(C1, makeRandomProgram(C1, Params));
  std::string B = printProgram(C2, makeRandomProgram(C2, Params));
  EXPECT_EQ(A, B);
  Params.Seed = 78;
  AstContext C3;
  EXPECT_NE(printProgram(C3, makeRandomProgram(C3, Params)), A);
}

TEST(RandomGen, AlwaysTypeCorrect) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    AstContext Ctx;
    RandomProgParams Params;
    Params.Seed = Seed;
    Params.AllowLoops = Seed % 2 == 0;
    Params.AllowArrays = Seed % 3 == 0;
    Params.AllowBitvectors = Seed % 4 == 0;
    Program P = makeRandomProgram(Ctx, Params);
    DiagEngine Diags;
    EXPECT_TRUE(typecheck(Ctx, P, Diags))
        << "seed " << Seed << ":\n"
        << Diags.str() << printProgram(Ctx, P);
  }
}

TEST(RandomGen, AcyclicWithoutLoopsOption) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    AstContext Ctx;
    RandomProgParams Params;
    Params.Seed = Seed;
    Params.AllowLoops = false;
    // Lowering expects asserts instrumented.
    Program P = instrumentAsserts(Ctx, makeRandomProgram(Ctx, Params),
                                  Ctx.sym("main"))
                    .Prog;
    CfgProgram Cfg = lowerToCfg(Ctx, P);
    EXPECT_TRUE(Cfg.isHierarchical()) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// SDV-like drivers
//===----------------------------------------------------------------------===//

TEST(SdvGen, DeterministicAndWellTyped) {
  SdvParams Params;
  Params.Seed = 99;
  Params.InjectBug = true;
  AstContext C1, C2;
  std::string A = printProgram(C1, makeSdvProgram(C1, Params));
  std::string B = printProgram(C2, makeSdvProgram(C2, Params));
  EXPECT_EQ(A, B);

  AstContext Ctx;
  Program P = makeSdvProgram(Ctx, Params);
  DiagEngine Diags;
  EXPECT_TRUE(typecheck(Ctx, P, Diags)) << Diags.str();
}

TEST(SdvGen, ContainsTheSection2Patterns) {
  AstContext Ctx;
  SdvParams Params;
  Params.Seed = 5;
  Params.NumHandlers = 4;
  Program P = makeSdvProgram(Ctx, Params);
  std::string Text = printProgram(Ctx, P);
  // Dispatch switch, shared rule procedures, layered utilities.
  EXPECT_NE(Text.find("handler_0"), std::string::npos);
  EXPECT_NE(Text.find("handler_3"), std::string::npos);
  EXPECT_NE(Text.find("KeAcquireLock"), std::string::npos);
  EXPECT_NE(Text.find("if (req == 0)"), std::string::npos);
  EXPECT_NE(Text.find("util_0_0"), std::string::npos);
}

TEST(SdvGen, SafeInstancesPassTheOracle) {
  SdvParams Params;
  Params.Seed = 123;
  Params.InjectBug = false;
  AstContext Ctx;
  Program P = makeSdvProgram(Ctx, Params);
  for (uint64_t Seed = 0; Seed < 48; ++Seed) {
    EvalOptions Opts;
    Opts.Seed = Seed;
    EvalResult R = evaluate(Ctx, P, Ctx.sym("main"), Opts);
    EXPECT_NE(R.Outcome, EvalOutcome::AssertFailed) << "oracle seed " << Seed;
  }
}

TEST(SdvGen, BuggyInstancesHaveReachableBugs) {
  // Fuzz the oracle; the injected violation must be concretely reachable
  // for at least one input (the harness havocs req and op).
  unsigned Reached = 0;
  for (uint64_t ProgSeed : {7u, 11u, 13u}) {
    SdvParams Params;
    Params.Seed = ProgSeed;
    Params.InjectBug = true;
    AstContext Ctx;
    Program P = makeSdvProgram(Ctx, Params);
    for (uint64_t Seed = 0; Seed < 512; ++Seed) {
      EvalOptions Opts;
      Opts.Seed = Seed;
      Opts.IntLo = 0;
      Opts.IntHi = 12; // cover the dispatch range and opcode windows
      if (evaluate(Ctx, P, Ctx.sym("main"), Opts).Outcome ==
          EvalOutcome::AssertFailed) {
        ++Reached;
        break;
      }
    }
  }
  EXPECT_GE(Reached, 2u) << "injected bugs should usually be fuzzable";
}

TEST(SdvGen, CorpusShapes) {
  std::vector<SdvInstance> Corpus = makeSdvCorpus(1, 20, 128);
  EXPECT_EQ(Corpus.size(), 20u);
  unsigned Bugs = 0;
  for (const SdvInstance &I : Corpus) {
    EXPECT_FALSE(I.Name.empty());
    if (I.Params.InjectBug) {
      ++Bugs;
      EXPECT_NE(I.Name.find("_bug"), std::string::npos);
    } else {
      EXPECT_NE(I.Name.find("_safe"), std::string::npos);
    }
  }
  // ~half buggy at fraction 128/256.
  EXPECT_GT(Bugs, 4u);
  EXPECT_LT(Bugs, 16u);
  // Deterministic per seed.
  std::vector<SdvInstance> Again = makeSdvCorpus(1, 20, 128);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    EXPECT_EQ(Corpus[I].Name, Again[I].Name);
    EXPECT_EQ(Corpus[I].Params.Seed, Again[I].Params.Seed);
  }
}
