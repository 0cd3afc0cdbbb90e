//===- Z3Solver.cpp -------------------------------------------------------===//

#include "smt/Z3Solver.h"

#include "support/Trace.h"

#include <z3.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace rmt;

Solver::~Solver() = default;

const char *rmt::solveResultName(SolveResult R) {
  switch (R) {
  case SolveResult::Sat:
    return "sat";
  case SolveResult::Unsat:
    return "unsat";
  case SolveResult::Unknown:
    return "unknown";
  }
  return "?";
}

namespace {

/// Z3 reports API errors through a per-context handler and then carries on
/// with a null result, so a failed assertion would silently drop out of the
/// formula. The handler records the first error of each context here; a
/// solver whose context has one answers every later check with Unknown.
std::mutex ErrorsMutex;
std::unordered_map<Z3_context, std::string> Errors;

void z3ErrorHandler(Z3_context Ctx, Z3_error_code Code) {
  std::string Msg = "z3 error " + std::to_string(static_cast<int>(Code)) +
                    ": " + Z3_get_error_msg(Ctx, Code);
  std::fprintf(stderr, "%s\n", Msg.c_str());
  std::lock_guard<std::mutex> Lock(ErrorsMutex);
  Errors.emplace(Ctx, std::move(Msg));
}

/// The first error recorded for \p Ctx; empty when there is none.
std::string errorOf(Z3_context Ctx) {
  std::lock_guard<std::mutex> Lock(ErrorsMutex);
  auto It = Errors.find(Ctx);
  return It == Errors.end() ? std::string() : It->second;
}

class Z3SolverImpl final : public Solver {
public:
  Z3SolverImpl(const TermArena &Arena, Trace *Telemetry)
      : Arena(Arena), Telemetry(Telemetry) {
    TraceSpan Span(Telemetry, "z3.context_new");
    Z3_config Config = Z3_mk_config();
    Z3_set_param_value(Config, "model", "true");
    Ctx = Z3_mk_context(Config);
    Z3_del_config(Config);
    Z3_set_error_handler(Ctx, z3ErrorHandler);
    Sol = Z3_mk_simple_solver(Ctx);
    Z3_solver_inc_ref(Ctx, Sol);
  }

  ~Z3SolverImpl() override {
    dropSat();
    {
      TraceSpan Span(Telemetry, "z3.context_delete");
      Z3_solver_dec_ref(Ctx, Sol);
      Z3_del_context(Ctx);
    }
    std::lock_guard<std::mutex> Lock(ErrorsMutex);
    Errors.erase(Ctx);
  }

  void assertTerm(TermRef T) override {
    ++NumAsserts;
    dropSat();
    Z3_solver_assert(Ctx, Sol, translate(T));
  }

  SolveResult check(const std::vector<TermRef> &Assumptions,
                    double TimeoutSeconds) override {
    ++NumChecks;
    TraceSpan Span(Telemetry, "z3.check_sat",
                   {{"asserts", NumAsserts},
                    {"assumptions", Assumptions.size()}});
    dropSat();
    Core.clear();
    // A Z3 solver checked again after an Unknown can answer Sat for an
    // unsat formula (seen after a check that ran out of its budget), so
    // every check after the first Unknown repeats it with its reason.
    if (Stuck) {
      Span.note({"result", solveResultName(SolveResult::Unknown)});
      return SolveResult::Unknown;
    }
    Reason.clear();
    // Z3 reads the context's timeout on each check of a solver that has
    // none of its own. It is set on every check, so no budget outlives its
    // check; UINT_MAX is Z3's "no timeout". Rounded up, so an Unknown caused
    // by this timeout comes no earlier than the caller's deadline.
    unsigned Ms = std::numeric_limits<unsigned>::max();
    if (TimeoutSeconds > 0)
      Ms = static_cast<unsigned>(
          std::min(std::ceil(TimeoutSeconds * 1000.0), double(Ms)));
    Z3_update_param_value(Ctx, "timeout", std::to_string(Ms).c_str());
    Span.note({"timeout_ms", Ms});
    std::vector<Z3_ast> Lits;
    Lits.reserve(Assumptions.size());
    for (TermRef A : Assumptions)
      Lits.push_back(translate(A));
    Z3_lbool R = Z3_L_UNDEF;
    if (errorOf(Ctx).empty())
      R = Z3_solver_check_assumptions(
          Ctx, Sol, static_cast<unsigned>(Lits.size()), Lits.data());
    if (std::string Error = errorOf(Ctx); !Error.empty()) {
      Span.note({"error", Error});
      Reason = std::move(Error);
      R = Z3_L_UNDEF;
    } else if (Telemetry && Telemetry->enabled()) {
      noteSearchStats(Span);
    }
    SolveResult Out = SolveResult::Unknown;
    if (R == Z3_L_TRUE) {
      Out = SolveResult::Sat;
      Sat = true;
    } else if (R == Z3_L_FALSE) {
      Out = SolveResult::Unsat;
      readCore(Lits);
    } else {
      if (Reason.empty())
        Reason = Z3_solver_get_reason_unknown(Ctx, Sol);
      Stuck = true;
    }
    Span.note({"result", solveResultName(Out)});
    return Out;
  }

  bool modelBool(TermRef ConstTerm) override {
    Z3_ast Value = evalInModel(ConstTerm);
    return Value && Z3_get_bool_value(Ctx, Value) == Z3_L_TRUE;
  }

  std::string modelNumeral(TermRef ConstTerm) override {
    Z3_ast Value = evalInModel(ConstTerm);
    return Value ? Z3_get_numeral_string(Ctx, Value) : "0";
  }

  std::vector<unsigned> unsatCore() override { return Core; }

  std::string reasonUnknown() override { return Reason; }

  /// Reads Z3's trail once per Sat check into a bitmap over AST ids. Z3
  /// hash-conses ASTs, so a constant assigned true appears on the trail as
  /// the very AST translate() made for it (false ones appear negated). A
  /// constant never translated is in no assertion, so it reads false; the
  /// translated ones stay alive (see Cache), so their ids are never reused.
  bool assignedTrue(TermRef BoolConst) override {
    assert(Sat && "assignment read without a preceding Sat result");
    if (!Sat)
      return false;
    if (!TrailRead) {
      Z3_ast_vector Trail = Z3_solver_get_trail(Ctx, Sol);
      Z3_ast_vector_inc_ref(Ctx, Trail);
      for (unsigned I = 0, N = Z3_ast_vector_size(Ctx, Trail); I < N; ++I) {
        unsigned Id = Z3_get_ast_id(Ctx, Z3_ast_vector_get(Ctx, Trail, I));
        if (Id >= TrueOnTrail.size())
          TrueOnTrail.resize(Id + 1);
        TrueOnTrail[Id] = true;
      }
      Z3_ast_vector_dec_ref(Ctx, Trail);
      TrailRead = true;
    }
    if (BoolConst.id() >= Cache.size() || !Cache[BoolConst.id()])
      return false;
    unsigned Id = Z3_get_ast_id(Ctx, Cache[BoolConst.id()]);
    return Id < TrueOnTrail.size() && TrueOnTrail[Id];
  }

private:
  /// Notes the conflicts and decisions of the last check on \p Span. Z3's
  /// counters add up over a solver's checks, so the note is the growth
  /// since the previous check.
  void noteSearchStats(TraceSpan &Span) {
    Z3_stats Stats = Z3_solver_get_statistics(Ctx, Sol);
    Z3_stats_inc_ref(Ctx, Stats);
    uint64_t Now[2] = {0, 0};
    for (unsigned I = 0, N = Z3_stats_size(Ctx, Stats); I < N; ++I) {
      if (!Z3_stats_is_uint(Ctx, Stats, I))
        continue;
      std::string_view Key = Z3_stats_get_key(Ctx, Stats, I);
      for (unsigned K = 0; K < 2; ++K)
        if (Key == SearchStatKeys[K])
          Now[K] = Z3_stats_get_uint_value(Ctx, Stats, I);
    }
    Z3_stats_dec_ref(Ctx, Stats);
    for (unsigned K = 0; K < 2; ++K) {
      Span.note({SearchStatKeys[K], Now[K] - SearchStatsSoFar[K]});
      SearchStatsSoFar[K] = Now[K];
    }
  }

  /// Maps Z3's core back to positions in Lits. Translation is memoized per
  /// TermRef and Z3 hash-conses ASTs, so a core literal is the very AST the
  /// check was given.
  void readCore(const std::vector<Z3_ast> &Lits) {
    std::unordered_map<Z3_ast, unsigned> PosOf;
    for (unsigned Pos = Lits.size(); Pos-- > 0;)
      PosOf[Lits[Pos]] = Pos;
    Z3_ast_vector Z3Core = Z3_solver_get_unsat_core(Ctx, Sol);
    Z3_ast_vector_inc_ref(Ctx, Z3Core);
    for (unsigned I = 0, N = Z3_ast_vector_size(Ctx, Z3Core); I < N; ++I)
      if (auto It = PosOf.find(Z3_ast_vector_get(Ctx, Z3Core, I));
          It != PosOf.end())
        Core.push_back(It->second);
    Z3_ast_vector_dec_ref(Ctx, Z3Core);
    std::sort(Core.begin(), Core.end());
    Core.erase(std::unique(Core.begin(), Core.end()), Core.end());
  }

  /// Forgets the last Sat result: its model and its trail.
  void dropSat() {
    if (Model) {
      Z3_model_dec_ref(Ctx, Model);
      Model = nullptr;
    }
    Sat = TrailRead = false;
    TrueOnTrail.clear();
  }

  Z3_ast evalInModel(TermRef T) {
    assert(Sat && "model access without a preceding Sat result");
    if (!Sat)
      return nullptr;
    if (!Model) {
      TraceSpan Span(Telemetry, "z3.get_model");
      Model = Z3_solver_get_model(Ctx, Sol);
      Z3_model_inc_ref(Ctx, Model);
    }
    Z3_ast Out = nullptr;
    if (!Z3_model_eval(Ctx, Model, translate(T), /*model_completion=*/true,
                       &Out))
      return nullptr;
    return Out;
  }

  Z3_sort sortOf(const Type *Ty) {
    if (!Ty || Ty->isInt())
      return Z3_mk_int_sort(Ctx);
    if (Ty->isBool())
      return Z3_mk_bool_sort(Ctx);
    if (Ty->isBv())
      return Z3_mk_bv_sort(Ctx, Ty->bvWidth());
    return Z3_mk_array_sort(Ctx, sortOf(Ty->indexType()),
                            sortOf(Ty->elementType()));
  }

  /// True when the value sort of \p T is a bitvector (arithmetic then uses
  /// the bv variants). Sorts are propagated bottom-up by the arena.
  bool isBvValued(TermRef T) {
    const Type *S = Arena.sort(T);
    return S && S->isBv();
  }

  /// Translates \p T, memoizing per TermRef. Iterative worklist: VC terms
  /// can be deep (long implication chains), so no recursion.
  Z3_ast translate(TermRef Root) {
    if (Root.id() < Cache.size() && Cache[Root.id()])
      return Cache[Root.id()];
    std::vector<TermRef> Work{Root};
    while (!Work.empty()) {
      TermRef T = Work.back();
      if (T.id() < Cache.size() && Cache[T.id()]) {
        Work.pop_back();
        continue;
      }
      bool KidsReady = true;
      for (unsigned I = 0, N = Arena.numKids(T); I < N; ++I) {
        TermRef K = Arena.kid(T, I);
        if (K.id() >= Cache.size() || !Cache[K.id()]) {
          Work.push_back(K);
          KidsReady = false;
        }
      }
      if (!KidsReady)
        continue;
      Work.pop_back();
      if (T.id() >= Cache.size())
        Cache.resize(Arena.numTerms(), nullptr);
      Cache[T.id()] = build(T);
    }
    return Cache[Root.id()];
  }

  Z3_ast kidAst(TermRef T, unsigned I) {
    return Cache[Arena.kid(T, I).id()];
  }

  Z3_ast build(TermRef T) {
    const TermNode &N = Arena.node(T);
    switch (N.Op) {
    case TermOp::Const: {
      Z3_symbol Name =
          Z3_mk_string_symbol(Ctx, Arena.constName(T).c_str());
      return Z3_mk_const(Ctx, Name, sortOf(N.Sort));
    }
    case TermOp::IntLit:
      if (N.Sort && N.Sort->isBv())
        return Z3_mk_unsigned_int64(Ctx, static_cast<uint64_t>(N.Payload),
                                    sortOf(N.Sort));
      return Z3_mk_int64(Ctx, N.Payload, Z3_mk_int_sort(Ctx));
    case TermOp::BoolLit:
      return N.Payload ? Z3_mk_true(Ctx) : Z3_mk_false(Ctx);
    case TermOp::Not:
      return Z3_mk_not(Ctx, kidAst(T, 0));
    case TermOp::And: {
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_and(Ctx, 2, Args);
    }
    case TermOp::Or: {
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_or(Ctx, 2, Args);
    }
    case TermOp::Implies:
      return Z3_mk_implies(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Eq:
      return Z3_mk_eq(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Lt:
      if (isBvValued(Arena.kid(T, 0)) || isBvValued(Arena.kid(T, 1)))
        return Z3_mk_bvult(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_lt(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Le:
      if (isBvValued(Arena.kid(T, 0)) || isBvValued(Arena.kid(T, 1)))
        return Z3_mk_bvule(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_le(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Neg:
      if (isBvValued(T))
        return Z3_mk_bvneg(Ctx, kidAst(T, 0));
      return Z3_mk_unary_minus(Ctx, kidAst(T, 0));
    case TermOp::Add: {
      if (isBvValued(T))
        return Z3_mk_bvadd(Ctx, kidAst(T, 0), kidAst(T, 1));
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_add(Ctx, 2, Args);
    }
    case TermOp::Sub: {
      if (isBvValued(T))
        return Z3_mk_bvsub(Ctx, kidAst(T, 0), kidAst(T, 1));
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_sub(Ctx, 2, Args);
    }
    case TermOp::Mul: {
      if (isBvValued(T))
        return Z3_mk_bvmul(Ctx, kidAst(T, 0), kidAst(T, 1));
      Z3_ast Args[2] = {kidAst(T, 0), kidAst(T, 1)};
      return Z3_mk_mul(Ctx, 2, Args);
    }
    case TermOp::Div:
      if (isBvValued(T))
        return Z3_mk_bvudiv(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_div(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Mod:
      if (isBvValued(T))
        return Z3_mk_bvurem(Ctx, kidAst(T, 0), kidAst(T, 1));
      return Z3_mk_mod(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Ite:
      return Z3_mk_ite(Ctx, kidAst(T, 0), kidAst(T, 1), kidAst(T, 2));
    case TermOp::Select:
      return Z3_mk_select(Ctx, kidAst(T, 0), kidAst(T, 1));
    case TermOp::Store:
      return Z3_mk_store(Ctx, kidAst(T, 0), kidAst(T, 1), kidAst(T, 2));
    }
    assert(false && "unhandled term op");
    return nullptr;
  }

  const TermArena &Arena;
  Trace *Telemetry = nullptr;
  Z3_context Ctx = nullptr;
  Z3_solver Sol = nullptr;
  /// True from a Sat check to the next assertTerm or check. The model and
  /// the trail are read on first use within that window.
  bool Sat = false;
  Z3_model Model = nullptr;
  bool TrailRead = false;
  /// AST id -> the id's AST is a literal on the trail. A bitmap rather than
  /// a hash set: one allocation, reused by every Sat check.
  std::vector<bool> TrueOnTrail;
  /// Z3's search counters noted per check, and their totals at the last
  /// noted check.
  static constexpr const char *SearchStatKeys[2] = {"conflicts",
                                                    "decisions"};
  uint64_t SearchStatsSoFar[2] = {0, 0};
  /// After an Unsat check: its unsat core (see Solver::unsatCore).
  std::vector<unsigned> Core;
  /// After an Unknown check: why (see Solver::reasonUnknown).
  std::string Reason;
  /// Set by the first Unknown check; every later check answers Unknown.
  bool Stuck = false;
  /// TermRef id -> Z3 ast. Z3_mk_context (non-rc mode) keeps all ASTs alive
  /// for the context's lifetime, so caching plain pointers is safe.
  std::vector<Z3_ast> Cache;
};

} // namespace

std::unique_ptr<Solver> rmt::createZ3Solver(const TermArena &Arena,
                                            Trace *Telemetry) {
  return std::make_unique<Z3SolverImpl>(Arena, Telemetry);
}
