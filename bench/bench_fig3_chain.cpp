//===- bench_fig3_chain.cpp - Reproduces Fig. 3 ----------------------------===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
// Fig. 3: running time of tree-based BMC tools (CBMC, Corral) vs DAG
// inlining (DI) on the Fig. 2 chain program as N grows, under a timeout.
// Our proxies: EAGER = full tree inlining then one solve (CBMC-style),
// SI = stratified tree inlining (Corral-style), DI = stratified DAG
// inlining with FIRST. The paper's shape: EAGER and SI blow up
// exponentially, DI stays linear.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"
#include "workload/Chain.h"

#include <cstdio>

using namespace rmt;
using namespace rmt::bench;

int main() {
  double Timeout = envTimeout(10);
  unsigned MaxN = envCount(16);

  std::printf("Fig. 3 — chain program of Fig. 2: time (seconds, log-scale "
              "in the paper) vs N, timeout %.0fs\n",
              Timeout);
  std::printf("EAGER = full tree inline + one solve (CBMC proxy); "
              "SI = stratified tree (Corral proxy); DI = DAG inlining\n\n");

  Table T({"N", "EAGER(s)", "SI(s)", "DI(s)", "EAGER#inl", "SI#inl",
           "DI#inl"});
  EngineConfig EagerCfg = makeConfig("EAGER", MergeStrategyKind::None);
  EagerCfg.Opts.Engine.Eager = true;
  EngineConfig SiCfg = makeConfig("SI", MergeStrategyKind::None);
  EngineConfig DiCfg = makeConfig("DI", MergeStrategyKind::First);
  bool EagerDead = false, SiDead = false;
  for (unsigned N = 4; N <= MaxN; N += 2) {
    std::string Name = "chain" + std::to_string(N);
    auto Chain = [N](AstContext &Ctx) { return makeChainProgram(Ctx, N); };
    // Once a tree engine times out, larger N will too: skip, like the
    // paper's truncated curves (a skipped row is undecided).
    RunRow Eager =
        EagerDead ? RunRow() : runInstance(Name, Chain, EagerCfg, Timeout);
    RunRow Si = SiDead ? RunRow() : runInstance(Name, Chain, SiCfg, Timeout);
    RunRow Di = runInstance(Name, Chain, DiCfg, Timeout);
    EagerDead = EagerDead || !Eager.decided();
    SiDead = SiDead || !Si.decided();

    T.row();
    T.cell(static_cast<int64_t>(N));
    T.cell(Eager.timeCell(3));
    T.cell(Si.timeCell(3));
    T.cell(Di.timeCell(3));
    T.cell(static_cast<uint64_t>(Eager.Inlined));
    T.cell(static_cast<uint64_t>(Si.Inlined));
    T.cell(static_cast<uint64_t>(Di.Inlined));
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("Expected shape: EAGER and SI hit the timeout at small N "
              "(exponential tree), DI scales linearly (N+2 instances).\n");
  return 0;
}
