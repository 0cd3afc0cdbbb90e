//===- Gvn.cpp ------------------------------------------------------------===//

#include "analysis/Gvn.h"

#include "analysis/Dataflow.h"
#include "ast/Ops.h"

#include <array>
#include <cassert>
#include <map>
#include <set>

using namespace rmt;

namespace {

using VN = uint32_t;

/// Value numbers 0 and 1 are the boolean literals; everything else is
/// allocated on demand.
constexpr VN VNFalse = 0;
constexpr VN VNTrue = 1;

/// Key tags. A key is (tag, a, b, c); unused slots stay zero so keys compare
/// cheaply.
enum class VTag : uint64_t {
  BoolLit, ///< a = 0/1
  IntLit,  ///< a = value (as uint64 bit pattern)
  BvLit,   ///< a = width, b = payload
  Use,     ///< a = variable symbol id, b = reading label — "the value this
           ///< variable holds when that label executes" (well-defined per
           ///< activation because flow graphs are acyclic)
  Def,     ///< a = variable symbol id, b = defining (havoc/call) label
  Unary,   ///< a = op, b = operand
  Binary,  ///< a = op, b/c = operands (commutative ops sorted)
  Ite,     ///< a = cond, b = then, c = else
  Select,  ///< a = array, b = index
  Store,   ///< a = array, b = index; the value rides in Extra
};

struct VKey {
  VTag Tag;
  std::array<uint64_t, 3> Ops{0, 0, 0};
  /// Fourth operand (Store value); keys stay one cache line.
  uint64_t Extra = 0;

  friend bool operator<(const VKey &A, const VKey &B) {
    if (A.Tag != B.Tag)
      return A.Tag < B.Tag;
    if (A.Ops != B.Ops)
      return A.Ops < B.Ops;
    return A.Extra < B.Extra;
  }
};

/// The per-procedure value table: hash-consed value numbers with literal
/// tracking and algebraic simplification at allocation time. Because every
/// allocation is keyed, re-running a transfer function (worklist revisits)
/// hands back identical numbers — the table is idempotent by construction.
class ValueTable {
public:
  explicit ValueTable(const AstContext &Ctx) : Ctx(Ctx) {
    VN F = intern({VTag::BoolLit, {0, 0, 0}}, Ctx.boolType());
    VN T = intern({VTag::BoolLit, {1, 0, 0}}, Ctx.boolType());
    (void)F;
    (void)T;
    assert(F == VNFalse && T == VNTrue);
  }

  const Type *typeOf(VN V) const { return Types[V]; }
  const VKey &keyOf(VN V) const { return Keys[V]; }

  bool isBoolLit(VN V, bool &Val) const {
    if (Keys[V].Tag != VTag::BoolLit)
      return false;
    Val = Keys[V].Ops[0] != 0;
    return true;
  }
  bool isIntLit(VN V, int64_t &Val) const {
    if (Keys[V].Tag != VTag::IntLit)
      return false;
    Val = static_cast<int64_t>(Keys[V].Ops[0]);
    return true;
  }
  bool isBvLit(VN V, uint64_t &Val) const {
    if (Keys[V].Tag != VTag::BvLit)
      return false;
    Val = Keys[V].Ops[1];
    return true;
  }
  bool isAnyLit(VN V) const {
    VTag T = Keys[V].Tag;
    return T == VTag::BoolLit || T == VTag::IntLit || T == VTag::BvLit;
  }

  VN boolLit(bool B) { return B ? VNTrue : VNFalse; }
  VN intLit(int64_t V) {
    return intern({VTag::IntLit, {static_cast<uint64_t>(V), 0, 0}},
                  Ctx.intType());
  }
  VN bvLit(uint64_t V, const Type *Ty) {
    return intern({VTag::BvLit, {Ty->bvWidth(), V, 0}}, Ty);
  }

  VN usePoint(Symbol Var, LabelId L, const Type *Ty) {
    return intern({VTag::Use, {Var.id(), L, 0}}, Ty);
  }
  VN defPoint(Symbol Var, LabelId L, const Type *Ty) {
    return intern({VTag::Def, {Var.id(), L, 0}}, Ty);
  }

  VN makeUnary(UnOp Op, VN A, const Type *Ty) {
    bool B;
    int64_t I;
    switch (Op) {
    case UnOp::Not:
      if (isBoolLit(A, B))
        return boolLit(!B);
      if (Keys[A].Tag == VTag::Unary &&
          static_cast<UnOp>(Keys[A].Ops[0]) == UnOp::Not)
        return static_cast<VN>(Keys[A].Ops[1]); // !!v == v
      break;
    case UnOp::Neg:
      if (isIntLit(A, I))
        if (std::optional<int64_t> V = foldIntNeg(I))
          return intLit(*V);
      if (Keys[A].Tag == VTag::Unary &&
          static_cast<UnOp>(Keys[A].Ops[0]) == UnOp::Neg &&
          Ty->isInt()) // -(-v) == v over unbounded ints
        return static_cast<VN>(Keys[A].Ops[1]);
      break;
    }
    return intern({VTag::Unary, {static_cast<uint64_t>(Op), A, 0}}, Ty);
  }

  VN makeBinary(BinOp Op, VN A, VN B, const Type *Ty) {
    if (isCommutative(Op) && B < A)
      std::swap(A, B);
    if (std::optional<VN> S = simplifyBinary(Op, A, B, Ty))
      return *S;
    return intern({VTag::Binary, {static_cast<uint64_t>(Op), A, B}}, Ty);
  }

  VN makeIte(VN C, VN T, VN E, const Type *Ty) {
    bool B;
    if (isBoolLit(C, B))
      return B ? T : E;
    if (T == E)
      return T;
    return intern({VTag::Ite, {C, T, E}}, Ty);
  }

  VN makeSelect(VN Array, VN Index, const Type *Ty) {
    // Walk store chains: select(store(a, i, v), j) is v when i == j, and
    // skips to a when i and j are distinct literals.
    VN Base = Array;
    while (Keys[Base].Tag == VTag::Store) {
      VN StIdx = static_cast<VN>(Keys[Base].Ops[1]);
      if (StIdx == Index)
        return static_cast<VN>(Keys[Base].Extra);
      if (!literallyDistinct(StIdx, Index))
        break;
      Base = static_cast<VN>(Keys[Base].Ops[0]);
    }
    return intern({VTag::Select, {Base, Index, 0}}, Ty);
  }

  VN makeStore(VN Array, VN Index, VN Value, const Type *Ty) {
    VKey K{VTag::Store, {Array, Index, 0}};
    K.Extra = Value;
    return intern(K, Ty);
  }

private:
  static bool isCommutative(BinOp Op) {
    switch (Op) {
    case BinOp::Add:
    case BinOp::Mul:
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::And:
    case BinOp::Or:
    case BinOp::Iff:
      return true;
    default:
      return false;
    }
  }

  /// True when A and B are literals that denote provably distinct values.
  bool literallyDistinct(VN A, VN B) const {
    if (A == B)
      return false;
    int64_t IA, IB;
    if (isIntLit(A, IA) && isIntLit(B, IB))
      return IA != IB;
    uint64_t VA, VB;
    if (isBvLit(A, VA) && isBvLit(B, VB))
      return Keys[A].Ops[0] == Keys[B].Ops[0] && VA != VB;
    bool BA, BB;
    if (isBoolLit(A, BA) && isBoolLit(B, BB))
      return BA != BB;
    return false;
  }

  std::optional<VN> simplifyBinary(BinOp Op, VN A, VN B, const Type *Ty) {
    bool BA = false, BB = false;
    int64_t IA, IB;
    bool LitA = isBoolLit(A, BA), LitB = isBoolLit(B, BB);

    switch (Op) {
    // Boolean connectives: identity/absorbing elements, then full folds.
    case BinOp::And:
      if (LitA)
        return BA ? B : VNFalse;
      if (LitB)
        return BB ? A : VNFalse;
      if (A == B)
        return A;
      return std::nullopt;
    case BinOp::Or:
      if (LitA)
        return BA ? VNTrue : B;
      if (LitB)
        return BB ? VNTrue : A;
      if (A == B)
        return A;
      return std::nullopt;
    case BinOp::Implies:
      if (LitA)
        return BA ? B : VNTrue;
      if (LitB && BB)
        return VNTrue;
      if (LitB && !BB)
        return makeUnary(UnOp::Not, A, Ty);
      if (A == B)
        return VNTrue;
      return std::nullopt;
    case BinOp::Iff:
      if (LitA)
        return BA ? B : makeUnary(UnOp::Not, B, Ty);
      if (LitB)
        return BB ? A : makeUnary(UnOp::Not, A, Ty);
      if (A == B)
        return VNTrue;
      return std::nullopt;

    // Congruence decides (in)equality without looking at the values.
    case BinOp::Eq:
      if (A == B)
        return VNTrue;
      if (literallyDistinct(A, B))
        return VNFalse;
      if (LitA && LitB)
        return boolLit(BA == BB);
      return std::nullopt;
    case BinOp::Ne:
      if (A == B)
        return VNFalse;
      if (literallyDistinct(A, B))
        return VNTrue;
      if (LitA && LitB)
        return boolLit(BA != BB);
      return std::nullopt;

    case BinOp::Lt:
    case BinOp::Gt:
      if (A == B)
        return VNFalse;
      break;
    case BinOp::Le:
    case BinOp::Ge:
      if (A == B)
        return VNTrue;
      break;
    case BinOp::Sub:
      // x - x == 0 holds for unbounded ints and wraps to 0 for bitvectors.
      if (A == B)
        return Ty->isBv() ? bvLit(0, Ty) : intLit(0);
      break;
    default:
      break;
    }

    // Arithmetic identities valid for both int and bv semantics.
    auto IsZero = [&](VN V) {
      int64_t I;
      uint64_t U;
      return (isIntLit(V, I) && I == 0) || (isBvLit(V, U) && U == 0);
    };
    auto IsOne = [&](VN V) {
      int64_t I;
      uint64_t U;
      return (isIntLit(V, I) && I == 1) || (isBvLit(V, U) && U == 1);
    };
    switch (Op) {
    case BinOp::Add:
      if (IsZero(A))
        return B;
      if (IsZero(B))
        return A;
      break;
    case BinOp::Sub:
      if (IsZero(B))
        return A;
      break;
    case BinOp::Mul:
      if (IsOne(A))
        return B;
      if (IsOne(B))
        return A;
      if (IsZero(A))
        return A;
      if (IsZero(B))
        return B;
      break;
    default:
      break;
    }

    // Literal folding over the mathematical integers through the shared
    // kernel (bitvectors carry modular semantics we leave to the solver).
    if (!isIntLit(A, IA) || !isIntLit(B, IB))
      return std::nullopt;
    if (std::optional<int64_t> V = foldIntArith(Op, IA, IB))
      return intLit(*V);
    switch (Op) {
    case BinOp::Lt:
      return boolLit(IA < IB);
    case BinOp::Le:
      return boolLit(IA <= IB);
    case BinOp::Gt:
      return boolLit(IA > IB);
    case BinOp::Ge:
      return boolLit(IA >= IB);
    default:
      return std::nullopt;
    }
  }

  VN intern(const VKey &K, const Type *Ty) {
    auto [It, New] = Interned.try_emplace(K, static_cast<VN>(Keys.size()));
    if (New) {
      Keys.push_back(K);
      Types.push_back(Ty);
    }
    return It->second;
  }

  const AstContext &Ctx;
  std::map<VKey, VN> Interned;
  std::vector<VKey> Keys;
  std::vector<const Type *> Types;
};

//===----------------------------------------------------------------------===//
// The dataflow lattice
//===----------------------------------------------------------------------===//

/// Must-state at a program point: variable -> value number bindings valid on
/// every incoming path, plus the set of value numbers known true on every
/// incoming path. Bottom is "unreachable".
struct GvnEnv {
  bool Bottom = false;
  std::map<Symbol, VN> VarVN;
  std::set<VN> TrueVNs;

  static GvnEnv bottomEnv() {
    GvnEnv E;
    E.Bottom = true;
    return E;
  }

  bool joinWith(const GvnEnv &O) {
    if (O.Bottom)
      return false;
    if (Bottom) {
      *this = O;
      return true;
    }
    bool Changed = false;
    for (auto It = VarVN.begin(); It != VarVN.end();) {
      auto OIt = O.VarVN.find(It->first);
      if (OIt == O.VarVN.end() || OIt->second != It->second) {
        It = VarVN.erase(It);
        Changed = true;
      } else {
        ++It;
      }
    }
    for (auto It = TrueVNs.begin(); It != TrueVNs.end();) {
      if (!O.TrueVNs.count(*It)) {
        It = TrueVNs.erase(It);
        Changed = true;
      } else {
        ++It;
      }
    }
    return Changed;
  }
};

//===----------------------------------------------------------------------===//
// Expression numbering
//===----------------------------------------------------------------------===//

/// Numbers expressions against an environment. Reads of unbound variables
/// allocate a point value ("the value v holds when label L runs") and bind it
/// into the environment, so later reads along the same paths stay congruent.
class Numberer {
public:
  Numberer(ValueTable &VT, const CfgProc &Proc) : VT(VT), Proc(Proc) {}

  VN vnOf(const Expr *E, GvnEnv &Env, LabelId L) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      if (E->type() && E->type()->isBv())
        return VT.bvLit(static_cast<uint64_t>(E->intValue()), E->type());
      return VT.intLit(E->intValue());
    case ExprKind::BoolLit:
      return VT.boolLit(E->boolValue());
    case ExprKind::Var: {
      auto It = Env.VarVN.find(E->var());
      if (It != Env.VarVN.end())
        return It->second;
      const Type *Ty = Proc.typeOf(E->var());
      VN V = VT.usePoint(E->var(), L, Ty ? Ty : E->type());
      Env.VarVN.emplace(E->var(), V);
      return V;
    }
    case ExprKind::Unary:
      return VT.makeUnary(E->unOp(), vnOf(E->op0(), Env, L), E->type());
    case ExprKind::Binary: {
      VN A = vnOf(E->op0(), Env, L);
      VN B = vnOf(E->op1(), Env, L);
      return VT.makeBinary(E->binOp(), A, B, E->type());
    }
    case ExprKind::Ite: {
      VN C = vnOf(E->op0(), Env, L);
      VN T = vnOf(E->op1(), Env, L);
      VN F = vnOf(E->op2(), Env, L);
      return VT.makeIte(C, T, F, E->type());
    }
    case ExprKind::Select: {
      VN A = vnOf(E->op0(), Env, L);
      VN I = vnOf(E->op1(), Env, L);
      return VT.makeSelect(A, I, E->type());
    }
    case ExprKind::Store: {
      VN A = vnOf(E->op0(), Env, L);
      VN I = vnOf(E->op1(), Env, L);
      VN V = vnOf(E->op2(), Env, L);
      return VT.makeStore(A, I, V, E->type());
    }
    }
    assert(false && "unknown expression kind");
    return VNFalse;
  }

  /// Records what `assume e` (under \p Positive polarity) teaches: walks the
  /// conjunctive structure, binds variable sides of equalities, and inserts
  /// each conjunct's value number into the true-fact set. Returns false when
  /// the facts are contradictory (the path is infeasible).
  bool recordConds(const Expr *E, bool Positive, GvnEnv &Env, LabelId L) {
    switch (E->kind()) {
    case ExprKind::Unary:
      if (E->unOp() == UnOp::Not)
        return recordConds(E->op0(), !Positive, Env, L);
      break;
    case ExprKind::Binary: {
      BinOp Op = E->binOp();
      if ((Op == BinOp::And && Positive) || (Op == BinOp::Or && !Positive))
        return recordConds(E->op0(), Positive, Env, L) &&
               recordConds(E->op1(), Positive, Env, L);
      if (Op == BinOp::Implies && !Positive) // !(a ==> b)  ==  a && !b
        return recordConds(E->op0(), true, Env, L) &&
               recordConds(E->op1(), false, Env, L);
      if ((Op == BinOp::Eq && Positive) || (Op == BinOp::Ne && !Positive)) {
        VN A = vnOf(E->op0(), Env, L);
        VN B = vnOf(E->op1(), Env, L);
        // The two sides now denote the same value: rebind a variable side so
        // downstream uses collapse to one number. When both sides are
        // variables, rebinding one of them merges the classes.
        if (E->op0()->kind() == ExprKind::Var)
          Env.VarVN[E->op0()->var()] = B;
        else if (E->op1()->kind() == ExprKind::Var)
          Env.VarVN[E->op1()->var()] = A;
        return addFact(VT.makeBinary(BinOp::Eq, A, B, boolTypeOf(E)), Env);
      }
      break;
    }
    case ExprKind::Var: {
      VN Old = vnOf(E, Env, L);
      Env.VarVN[E->var()] = VT.boolLit(Positive);
      return addFact(Positive ? Old : VT.makeUnary(UnOp::Not, Old, E->type()),
                     Env);
    }
    default:
      break;
    }
    VN V = vnOf(E, Env, L);
    return addFact(Positive ? V : VT.makeUnary(UnOp::Not, V, E->type()), Env);
  }

  /// True when \p V is entailed on every path described by \p Env.
  bool entailed(VN V, const GvnEnv &Env) const {
    return V == VNTrue || Env.TrueVNs.count(V) != 0;
  }
  /// True when \p V is refuted on every path described by \p Env.
  bool refuted(VN V, GvnEnv &Env) {
    if (V == VNFalse)
      return true;
    const Type *B = VT.typeOf(V);
    return Env.TrueVNs.count(VT.makeUnary(UnOp::Not, V, B)) != 0;
  }

private:
  const Type *boolTypeOf(const Expr *E) const { return E->type(); }

  bool addFact(VN V, GvnEnv &Env) {
    if (V == VNFalse || refuted(V, Env))
      return false;
    if (V != VNTrue)
      Env.TrueVNs.insert(V);
    return true;
  }

  ValueTable &VT;
  const CfgProc &Proc;
};

//===----------------------------------------------------------------------===//
// The analysis
//===----------------------------------------------------------------------===//

class GvnAnalysis {
public:
  using Value = GvnEnv;
  static constexpr FlowDirection Direction = FlowDirection::Forward;

  GvnAnalysis(ValueTable &VT, const CfgProc &Proc,
              const std::vector<ProcEffects> &FX)
      : VT(&VT), Proc(Proc), FX(FX) {}

  Value bottom() const { return GvnEnv::bottomEnv(); }
  Value boundary() const { return GvnEnv(); }
  bool join(Value &Into, const Value &From) const {
    return Into.joinWith(From);
  }

  Value transfer(LabelId L, const CfgStmt &S, const Value &In) const {
    if (In.Bottom)
      return In;
    Value Out = In;
    Numberer N(*VT, Proc);
    switch (S.Kind) {
    case CfgStmtKind::Assume: {
      VN V = N.vnOf(S.E, Out, L);
      if (N.refuted(V, Out) || !N.recordConds(S.E, true, Out, L))
        return GvnEnv::bottomEnv();
      break;
    }
    case CfgStmtKind::Assign: {
      VN V = N.vnOf(S.E, Out, L);
      Out.VarVN[S.Target] = V;
      break;
    }
    case CfgStmtKind::Havoc:
      for (Symbol Var : S.Vars)
        killVar(Out, Var, L);
      break;
    case CfgStmtKind::Call:
      for (const Expr *A : S.Args) {
        // Arguments evaluate before the call; numbering them here keeps the
        // unknown-read bindings they introduce.
        (void)N.vnOf(A, Out, L);
      }
      for (Symbol Var : S.Vars)
        killVar(Out, Var, L);
      for (Symbol G : FX[S.Callee].ModGlobals)
        killVar(Out, G, L);
      break;
    }
    return Out;
  }

private:
  /// A definition point: the variable takes a fresh (but keyed) number.
  /// True-facts survive — they constrain *values*, which do not change when a
  /// variable is rebound.
  void killVar(GvnEnv &Env, Symbol Var, LabelId L) const {
    const Type *Ty = Proc.typeOf(Var);
    if (!Ty) // out-of-scope name; VerifyCfg reports it, we stay total
      return;
    Env.VarVN[Var] = VT->defPoint(Var, L, Ty);
  }

  ValueTable *VT;
  const CfgProc &Proc;
  const std::vector<ProcEffects> &FX;
};

//===----------------------------------------------------------------------===//
// Rewriting
//===----------------------------------------------------------------------===//

bool isLiteralExpr(const Expr *E) {
  return E->kind() == ExprKind::IntLit || E->kind() == ExprKind::BoolLit;
}

/// Rewrites expressions of one label against the solved pre-state: every
/// subexpression whose value number has a cheaper congruent leader (a
/// literal, else the smallest-named variable currently bound to that number)
/// is replaced by the leader.
class Rewriter {
public:
  Rewriter(AstContext &Ctx, ValueTable &VT, const CfgProc &Proc,
           const GvnEnv &Pre)
      : Ctx(Ctx), VT(VT), N(VT, Proc), Proc(Proc), Env(Pre) {
    // Leaders come from the *current* bindings only, which is what makes the
    // propagation sound without SSA: a variable that was redefined since the
    // value was computed is no longer bound to that number.
    for (const auto &[Var, V] : Env.VarVN)
      if (auto It = Leader.find(V); It == Leader.end() || Var < It->second)
        Leader[V] = Var;
  }

  unsigned replaced() const { return NumReplaced; }

  const Expr *rewrite(const Expr *E, LabelId L) {
    auto [NewE, V] = go(E, L);
    (void)V;
    return NewE;
  }

private:
  std::pair<const Expr *, VN> go(const Expr *E, LabelId L) {
    // Number and rewrite children first.
    const Expr *R = E;
    VN V = 0;
    switch (E->kind()) {
    case ExprKind::IntLit:
    case ExprKind::BoolLit:
      return {E, N.vnOf(E, Env, L)};
    case ExprKind::Var:
      V = N.vnOf(E, Env, L);
      break;
    case ExprKind::Unary: {
      auto [A, VA] = go(E->op0(), L);
      if (A != E->op0())
        R = Ctx.tUnary(E->unOp(), A);
      V = VT.makeUnary(E->unOp(), VA, E->type());
      break;
    }
    case ExprKind::Binary: {
      auto [A, VA] = go(E->op0(), L);
      auto [B, VB] = go(E->op1(), L);
      if (A != E->op0() || B != E->op1())
        R = Ctx.tBinary(E->binOp(), A, B);
      V = VT.makeBinary(E->binOp(), VA, VB, E->type());
      break;
    }
    case ExprKind::Ite: {
      auto [C, VC] = go(E->op0(), L);
      auto [T, VT_] = go(E->op1(), L);
      auto [F, VF] = go(E->op2(), L);
      if (C != E->op0() || T != E->op1() || F != E->op2())
        R = Ctx.tIte(C, T, F);
      V = VT.makeIte(VC, VT_, VF, E->type());
      break;
    }
    case ExprKind::Select: {
      auto [A, VA] = go(E->op0(), L);
      auto [I, VI] = go(E->op1(), L);
      if (A != E->op0() || I != E->op1())
        R = Ctx.tSelect(A, I);
      V = VT.makeSelect(VA, VI, E->type());
      break;
    }
    case ExprKind::Store: {
      auto [A, VA] = go(E->op0(), L);
      auto [I, VI] = go(E->op1(), L);
      auto [W, VW] = go(E->op2(), L);
      if (A != E->op0() || I != E->op1() || W != E->op2())
        R = Ctx.tStore(A, I, W);
      V = VT.makeStore(VA, VI, VW, E->type());
      break;
    }
    }

    if (const Expr *Led = leaderFor(V, R)) {
      ++NumReplaced;
      return {Led, V};
    }
    return {R, V};
  }

  /// The replacement for value \p V at an occurrence currently spelled
  /// \p At, or null when \p At is already as cheap as it gets.
  const Expr *leaderFor(VN V, const Expr *At) {
    if (isLiteralExpr(At))
      return nullptr;
    // Literals first: they free the variable for slicing entirely.
    bool B;
    int64_t I;
    uint64_t U;
    if (VT.isBoolLit(V, B))
      return Ctx.tBool(B);
    if (VT.isIntLit(V, I))
      return Ctx.tInt(I);
    if (VT.isBvLit(V, U))
      return Ctx.tBv(U, VT.typeOf(V)->bvWidth());
    auto It = Leader.find(V);
    if (It == Leader.end())
      return nullptr;
    if (At->kind() == ExprKind::Var && At->var() == It->second)
      return nullptr;
    const Type *Ty = Proc.typeOf(It->second);
    if (!Ty || Ty != At->type())
      return nullptr;
    return Ctx.tVar(It->second, Ty);
  }

  AstContext &Ctx;
  ValueTable &VT;
  Numberer N;
  const CfgProc &Proc;
  GvnEnv Env;
  std::map<VN, Symbol> Leader;
  unsigned NumReplaced = 0;
};

//===----------------------------------------------------------------------===//
// Drivers
//===----------------------------------------------------------------------===//

} // namespace

GvnReport rmt::runGvn(AstContext &Ctx, CfgProgram &Prog) {
  GvnReport R;
  std::vector<ProcEffects> FX = computeProcEffects(Prog);

  for (ProcId P = 0; P < Prog.Procs.size(); ++P) {
    const CfgProc &Proc = Prog.proc(P);
    ValueTable VT(Ctx);
    ProcFlow Flow(Prog, P);
    GvnAnalysis A(VT, Proc, FX);
    DataflowSolver<GvnAnalysis> Solver(Flow, A);
    Solver.solve();

    for (LabelId L : Flow.topo()) {
      // Unreachable: every path in runs through an assume cut below, so the
      // splicer's entry-reachability sweep reclaims the label.
      if (Solver.pre(L).Bottom)
        continue;
      CfgLabel &Lbl = Prog.Labels[L];
      CfgStmt &S = Lbl.Stmt;
      if (S.Kind == CfgStmtKind::Assume) {
        if (Solver.post(L).Bottom) {
          // No execution passes this assume: block here and cut the dead
          // region.
          if (isLiteralExpr(S.E) && !S.E->boolValue() && Lbl.Targets.empty())
            continue;
          S.E = Ctx.tBool(false);
          Lbl.Targets.clear();
          ++R.ContradictedAssumes;
          continue;
        }
        if (!isLiteralExpr(S.E)) {
          // Entailed by facts that hold on every path in: the assume filters
          // nothing. Reduce it to a skip for the splicer.
          GvnEnv Env = Solver.pre(L);
          Numberer N(VT, Proc);
          if (N.entailed(N.vnOf(S.E, Env, L), Env)) {
            S.E = Ctx.tBool(true);
            ++R.RedundantAssumes;
            continue;
          }
        }
      }
      if (S.Kind == CfgStmtKind::Havoc)
        continue;
      // The solved states describe the original program; rewriting against
      // them stays valid because every rewrite preserves each statement's
      // value semantics.
      Rewriter RW(Ctx, VT, Proc, Solver.pre(L));
      if (S.Kind == CfgStmtKind::Call)
        for (const Expr *&Arg : S.Args)
          Arg = RW.rewrite(Arg, L);
      else
        S.E = RW.rewrite(S.E, L);
      R.PropagatedExprs += RW.replaced();
    }
  }
  return R;
}
