//===- bench_micro.cpp - Microbenchmarks (google-benchmark) -----------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Microbenchmarks for the paper's complexity claims (Section 3.3): the
// Disj_blk preprocessing is quadratic per procedure and linear in the
// number of procedures; a disjointness query is O(1) after preprocessing;
// the incremental compatibility check is cheap enough that "one can invest
// in more aggressive merging without adding overhead". Plus throughput
// baselines for pVC generation, term construction, parsing, and the
// evaluator, and the fixed costs of the Z3 backend: one incremental check,
// one solver's whole life, and reading a stratified frontier after a Sat
// check (from the search's assignment or from a model). Plus the query
// slicer on a perfbench-shaped `loops` program, the front end's largest
// pass there.
//
//===--------------------------------------------------------------------===//

#include "analysis/Slicer.h"
#include "ast/AstPrinter.h"
#include "ast/Eval.h"
#include "core/Verifier.h"
#include "parser/Parser.h"
#include "smt/Z3Solver.h"
#include "support/Rng.h"
#include "workload/Chain.h"
#include "workload/RandomProg.h"
#include "workload/SdvGen.h"

#include <benchmark/benchmark.h>

using namespace rmt;

namespace {

/// Instance cap for the full-inlining benchmarks (no driver reaches it).
constexpr size_t MaxNodes = 1u << 20;

struct Prepared {
  AstContext Ctx;
  LoweredInstance Inst;
};

/// The driver as the verifier's front end lowers it at bound 1, without the
/// prepass.
std::unique_ptr<Prepared> prepareDriver(unsigned Depth) {
  auto P = std::make_unique<Prepared>();
  SdvParams Params;
  Params.Seed = 5;
  Params.NumHandlers = 4;
  Params.NumUtils = 5;
  Params.UtilDepth = Depth;
  Program Prog = makeSdvProgram(P->Ctx, Params);
  VerifierOptions Opts;
  Opts.Bound = 1;
  Opts.UsePrepass = false;
  VerifierRunResult Front;
  P->Inst = lowerInstance(P->Ctx, Prog, P->Ctx.sym("main"), Opts, Front);
  return P;
}

void BM_DisjBlkPrecompute(benchmark::State &State) {
  auto P = prepareDriver(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    DisjointAnalysis D(P->Inst.Cfg);
    benchmark::DoNotOptimize(&D);
  }
  State.SetLabel(std::to_string(P->Inst.Cfg.Labels.size()) +
                 " labels");
}
BENCHMARK(BM_DisjBlkPrecompute)->Arg(3)->Arg(5)->Arg(7);

void BM_DisjBlkQuery(benchmark::State &State) {
  auto P = prepareDriver(5);
  DisjointAnalysis D(P->Inst.Cfg);
  // Collect call labels of main for querying.
  std::vector<LabelId> Calls;
  for (LabelId L : P->Inst.Cfg.proc(P->Inst.Entry).Labels)
    if (P->Inst.Cfg.label(L).Stmt.Kind == CfgStmtKind::Call)
      Calls.push_back(L);
  size_t I = 0;
  for (auto _ : State) {
    LabelId A = Calls[I % Calls.size()];
    LabelId B = Calls[(I + 1) % Calls.size()];
    benchmark::DoNotOptimize(D.disjointLabels(A, B));
    ++I;
  }
}
BENCHMARK(BM_DisjBlkQuery);

void BM_GenPvc(benchmark::State &State) {
  auto P = prepareDriver(4);
  for (auto _ : State) {
    TermArena Arena;
    VcContext Vc(P->Ctx, P->Inst.Cfg, Arena);
    benchmark::DoNotOptimize(Vc.genPvc(P->Inst.Entry));
  }
}
BENCHMARK(BM_GenPvc);

void BM_FullDagInline(benchmark::State &State) {
  auto P = prepareDriver(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    TermArena Arena;
    Inliner In(P->Ctx, P->Inst.Cfg, P->Inst.Entry, Arena,
               StrategyOptions());
    In.inlineAll(MaxNodes);
    State.counters["nodes"] = static_cast<double>(In.vc().numInlined());
  }
}
BENCHMARK(BM_FullDagInline)->Arg(3)->Arg(5);

void BM_ConsistencyFullCheck(benchmark::State &State) {
  auto P = prepareDriver(5);
  TermArena Arena;
  Inliner In(P->Ctx, P->Inst.Cfg, P->Inst.Entry, Arena,
             StrategyOptions());
  In.inlineAll(MaxNodes);
  for (auto _ : State)
    benchmark::DoNotOptimize(In.checker().isConsistentFull());
  State.SetLabel(std::to_string(In.vc().numNodes()) + " nodes");
}
BENCHMARK(BM_ConsistencyFullCheck);

void BM_SliceForQuery(benchmark::State &State) {
  // Draw 12 of perfbench's `loops` generator: 30 procedures, nesting 3,
  // loops, arrays and bitvectors, lowered at bound 2 without the prepass.
  // Bounding keeps only what `main` reaches, and this draw's `main` reaches
  // all 30 procedures. Each iteration slices a fresh copy.
  auto P = std::make_unique<Prepared>();
  RandomProgParams Params;
  Rng Draws(0x100f);
  for (unsigned Draw = 0; Draw < 12; ++Draw)
    Draws.next();
  Params.Seed = Draws.next();
  Params.NumProcs = 30;
  Params.MaxStmts = 10;
  Params.MaxNesting = 3;
  Params.AllowLoops = true;
  Params.AllowArrays = true;
  Params.AllowBitvectors = true;
  Program Prog = makeRandomProgram(P->Ctx, Params);
  VerifierOptions Opts;
  Opts.Bound = 2;
  Opts.UsePrepass = false;
  VerifierRunResult Front;
  P->Inst = lowerInstance(P->Ctx, Prog, P->Ctx.sym("main"), Opts, Front);
  for (auto _ : State) {
    State.PauseTiming();
    CfgProgram Copy = P->Inst.Cfg;
    State.ResumeTiming();
    SliceReport R = sliceForQuery(P->Ctx, Copy, P->Inst.ErrVar);
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(std::to_string(P->Inst.Cfg.Labels.size()) + " labels");
}
BENCHMARK(BM_SliceForQuery)->Unit(benchmark::kMicrosecond);

void BM_TermConstruction(benchmark::State &State) {
  AstContext Ctx;
  for (auto _ : State) {
    TermArena Arena;
    TermRef X = Arena.freshConst(Ctx.intType(), "x");
    TermRef Acc = Arena.intLit(0);
    for (int I = 0; I < 1000; ++I)
      Acc = Arena.mkAdd(Acc, Arena.mkMul(X, Arena.intLit(I)));
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_TermConstruction);

void BM_ParseAndCheck(benchmark::State &State) {
  AstContext GenCtx;
  Program Chain = makeChainProgram(GenCtx, 20);
  std::string Source = printProgram(GenCtx, Chain);
  for (auto _ : State) {
    AstContext Ctx;
    DiagEngine Diags;
    auto P = parseAndCheck(Source, Ctx, Diags);
    benchmark::DoNotOptimize(P);
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Source.size()));
}
BENCHMARK(BM_ParseAndCheck);

void BM_Evaluator(benchmark::State &State) {
  AstContext Ctx;
  SdvParams Params;
  Params.Seed = 3;
  Program P = makeSdvProgram(Ctx, Params);
  uint64_t Seed = 0;
  for (auto _ : State) {
    EvalOptions Opts;
    Opts.Seed = Seed++;
    benchmark::DoNotOptimize(evaluate(Ctx, P, Ctx.sym("main"), Opts));
  }
}
BENCHMARK(BM_Evaluator);

/// The engine's per-check path: on one solver, push a small clause and
/// check under an assumption literal with a deadline. The clauses draw on
/// eight booleans, so the search does not grow with the iteration count,
/// and no model is read.
void BM_Z3IncrementalCheck(benchmark::State &State) {
  AstContext Ctx;
  TermArena Arena;
  auto S = createZ3Solver(Arena);
  TermRef Lit = Arena.freshConst(Ctx.boolType(), "lit");
  std::vector<TermRef> Pool;
  for (unsigned I = 0; I < 8; ++I)
    Pool.push_back(Arena.freshConst(Ctx.boolType(), "b"));
  size_t I = 0;
  for (auto _ : State) {
    TermRef Clause = Arena.mkOr(Pool[I % 8], Pool[(I / 8 + I + 1) % 8]);
    S->assertTerm(Arena.mkImplies(Lit, Clause));
    benchmark::DoNotOptimize(S->check({Lit}, 10));
    ++I;
  }
}
BENCHMARK(BM_Z3IncrementalCheck);

/// The fixed cost of one verdict's solver: create it, check once, destroy.
void BM_Z3SolverLifecycle(benchmark::State &State) {
  AstContext Ctx;
  TermArena Arena;
  TermRef Lit = Arena.freshConst(Ctx.boolType(), "lit");
  TermRef Fact = Arena.mkImplies(
      Lit, Arena.mkLt(Arena.intLit(0), Arena.freshConst(Ctx.intType(), "x")));
  for (auto _ : State) {
    auto S = createZ3Solver(Arena);
    S->assertTerm(Fact);
    benchmark::DoNotOptimize(S->check({Lit}, 10));
  }
}
BENCHMARK(BM_Z3SolverLifecycle);

/// The stratified engine's read after a Sat over-approximate check: one
/// Bool per open edge. A formula over 3000 constants, shaped like a chain
/// of guarded calls, is checked once per iteration (untimed); then 20 of its
/// Bool constants are read through the search's assignment (Arg 0) or
/// through the model that the first read builds (Arg 1).
void BM_Z3SatFrontierRead(benchmark::State &State) {
  AstContext Ctx;
  TermArena Arena;
  auto S = createZ3Solver(Arena);
  constexpr unsigned N = 1000;
  std::vector<TermRef> Control, X;
  for (unsigned I = 0; I <= N; ++I)
    X.push_back(Arena.freshConst(Ctx.intType(), "x"));
  for (unsigned I = 0; I < 2 * N; ++I)
    Control.push_back(Arena.freshConst(Ctx.boolType(), "c"));
  for (unsigned I = 0; I < N; ++I) {
    S->assertTerm(Arena.mkImplies(Control[2 * I],
                                  Arena.mkLt(X[I], X[I + 1])));
    S->assertTerm(Arena.mkOr(Control[2 * I], Control[2 * I + 1]));
  }
  std::vector<TermRef> Read;
  for (unsigned I = 0; I < 20; ++I)
    Read.push_back(Control[I * (2 * N / 20)]);
  bool ViaModel = State.range(0) != 0;
  State.SetLabel(ViaModel ? "model" : "assignment");
  for (auto _ : State) {
    State.PauseTiming();
    S->check({}, 10);
    State.ResumeTiming();
    for (TermRef C : Read)
      benchmark::DoNotOptimize(ViaModel ? S->modelBool(C)
                                        : S->assignedTrue(C));
  }
}
BENCHMARK(BM_Z3SatFrontierRead)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
