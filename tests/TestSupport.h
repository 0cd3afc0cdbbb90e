//===- TestSupport.h - Shared front end for the unit tests -------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parsing and lowering helpers shared by the test files. Bounded lowering
/// goes through the verifier's own front end (lowerInstance) with the
/// prepass off, so a test sees the program the prepass and engine start
/// from; passList() builds other pass orders for runPasses().
///
//===----------------------------------------------------------------------===//

#ifndef RMT_TESTS_TESTSUPPORT_H
#define RMT_TESTS_TESTSUPPORT_H

#include "analysis/PassManager.h"
#include "cfg/Lower.h"
#include "core/Verifier.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace rmt {

/// Parses and type-checks \p Src, failing the test on a diagnostic.
inline std::optional<Program> parseOk(const char *Src, AstContext &Ctx) {
  DiagEngine Diags;
  std::optional<Program> P = parseAndCheck(Src, Ctx, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return P;
}

/// Bounds \p P from `main` at \p Bound and lowers it, like the verifier does
/// before its prepass; sets the entry procedure and the error-bit global.
inline CfgProgram lower(AstContext &Ctx, const Program &P, ProcId &Root,
                        Symbol &ErrVar, unsigned Bound = 2) {
  VerifierOptions Opts;
  Opts.Bound = Bound;
  Opts.UsePrepass = false;
  VerifierRunResult Front;
  LoweredInstance L = lowerInstance(Ctx, P, Ctx.sym("main"), Opts, Front);
  Root = L.Entry;
  ErrVar = L.ErrVar;
  EXPECT_NE(Root, InvalidProc);
  return std::move(L.Cfg);
}

/// The builtin passes named by \p Names, in that order and with repeats, for
/// runPasses(). A name not in BuiltinPasses fails the test.
inline std::vector<PassInfo>
passList(std::initializer_list<std::string_view> Names) {
  std::vector<PassInfo> Out;
  for (std::string_view Name : Names) {
    auto It = std::find_if(BuiltinPasses.begin(), BuiltinPasses.end(),
                           [&](const PassInfo &P) { return P.Name == Name; });
    if (It == BuiltinPasses.end())
      ADD_FAILURE() << "no builtin pass '" << Name << "'";
    else
      Out.push_back(*It);
  }
  return Out;
}

/// A parsed and lowered source program: bounded from `main` at \p Bound, or
/// lowered as written (no bounding, no error bit) when \p Bound is 0.
struct Lowered {
  AstContext Ctx;
  CfgProgram Cfg;
  ProcId Root = InvalidProc;
  Symbol ErrVar;

  explicit Lowered(const char *Src, unsigned Bound = 0) {
    std::optional<Program> P = parseOk(Src, Ctx);
    if (!P)
      return;
    if (Bound) {
      Cfg = lower(Ctx, *P, Root, ErrVar, Bound);
    } else {
      Cfg = lowerToCfg(Ctx, *P);
      Root = Cfg.findProc(Ctx.sym("main"));
    }
  }

  /// False when the source did not parse (the test has already failed).
  explicit operator bool() const { return !Cfg.Procs.empty(); }
};

/// Safe by a relation the intervals cannot hold: g == h after either call.
/// At the root's exit both are [1,2], so the intervals leave $err open and
/// the engine runs. +Inv's call-site summaries pin g and h after bar (both
/// 1) and after baz (both 2), which makes the over-approximate check unsat
/// with main alone inlined; without them the engine inlines all three
/// procedures. bar and baz share no callee: a shared one would join their
/// contexts and lose the pinned summaries.
inline const char *SummaryOnlySrc = R"(
  var g: int;
  var h: int;
  procedure main() {
    g := 0;
    h := 0;
    if (*) { call bar(); } else { call baz(); }
    assert g == h;
  }
  procedure bar() { g := g + 1; h := h + 1; }
  procedure baz() { g := g + 2; h := h + 2; }
)";

/// Asserts Lit ⇒ ∧ \p Facts into \p S for a fresh boolean literal Lit and
/// returns Lit: a check assuming Lit sees \p Facts, later checks do not.
inline TermRef assumptionLiteral(Solver &S, TermArena &Arena,
                                 const AstContext &Ctx,
                                 const std::vector<TermRef> &Facts) {
  TermRef Lit = Arena.freshConst(Ctx.boolType(), "assume");
  S.assertTerm(Arena.mkImplies(Lit, Arena.mkAndMany(Facts)));
  return Lit;
}

/// The clauses of the pigeonhole formula PHP(\p Pigeons into \p Holes):
/// every pigeon sits in a hole and no hole holds two. Unsat when there are
/// more pigeons than holes, and hard for a CDCL search as both grow.
inline std::vector<TermRef> pigeonhole(TermArena &Arena,
                                       const AstContext &Ctx,
                                       unsigned Pigeons, unsigned Holes) {
  std::vector<std::vector<TermRef>> In(Pigeons);
  for (unsigned P = 0; P < Pigeons; ++P)
    for (unsigned H = 0; H < Holes; ++H)
      In[P].push_back(Arena.freshConst(Ctx.boolType(), "in"));
  std::vector<TermRef> Clauses;
  for (unsigned P = 0; P < Pigeons; ++P)
    Clauses.push_back(Arena.mkOrMany(In[P]));
  for (unsigned H = 0; H < Holes; ++H)
    for (unsigned P = 0; P < Pigeons; ++P)
      for (unsigned Q = P + 1; Q < Pigeons; ++Q)
        Clauses.push_back(
            Arena.mkOr(Arena.mkNot(In[P][H]), Arena.mkNot(In[Q][H])));
  return Clauses;
}

} // namespace rmt

#endif // RMT_TESTS_TESTSUPPORT_H
