//===- Eval.cpp -----------------------------------------------------------===//

#include "ast/Eval.h"

#include "support/Rng.h"

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

using namespace rmt;

namespace {

struct ArrayData;

/// A concrete runtime value: int, bool, or a functional array.
class Value {
public:
  Value() = default;
  static Value ofInt(int64_t V) {
    Value R;
    R.Scalar = V;
    return R;
  }
  static Value ofBool(bool B) {
    Value R;
    R.Scalar = B ? 1 : 0;
    return R;
  }
  static Value ofArray(std::shared_ptr<const ArrayData> Data) {
    Value R;
    R.Array = std::move(Data);
    return R;
  }

  int64_t asInt() const { return Scalar; }
  bool asBool() const { return Scalar != 0; }
  bool isArray() const { return Array != nullptr; }
  const ArrayData &array() const { return *Array; }
  std::shared_ptr<const ArrayData> arrayPtr() const { return Array; }

  bool equals(const Value &Other) const;

private:
  int64_t Scalar = 0;
  std::shared_ptr<const ArrayData> Array = nullptr;
};

/// Map contents of an array value; entries equal to the default element are
/// pruned, so structural map equality is extensional equality (relative to a
/// shared default).
struct ArrayData {
  const Type *ElemTy = nullptr;
  std::map<int64_t, Value> Entries;
};

/// Default value of type \p Ty (0 / false / empty array).
Value defaultValue(const Type *Ty) {
  if (Ty->isInt() || Ty->isBv())
    return Value::ofInt(0);
  if (Ty->isBool())
    return Value::ofBool(false);
  auto Data = std::make_shared<ArrayData>();
  Data->ElemTy = Ty->elementType();
  return Value::ofArray(std::move(Data));
}

/// All-ones mask for a bitvector width.
uint64_t bvMask(unsigned Width) {
  return Width == 64 ? ~uint64_t(0) : ((uint64_t(1) << Width) - 1);
}

bool Value::equals(const Value &Other) const {
  if (isArray() != Other.isArray())
    return false;
  if (!isArray())
    return Scalar == Other.Scalar;
  const ArrayData &A = array(), &B = Other.array();
  if (A.Entries.size() != B.Entries.size())
    return false;
  auto It = B.Entries.begin();
  for (const auto &[K, V] : A.Entries) {
    if (It->first != K || !It->second.equals(V))
      return false;
    ++It;
  }
  return true;
}

Value arraySelect(const Value &Arr, int64_t Index) {
  const ArrayData &Data = Arr.array();
  auto It = Data.Entries.find(Index);
  if (It != Data.Entries.end())
    return It->second;
  return defaultValue(Data.ElemTy);
}

Value arrayStore(const Value &Arr, int64_t Index, const Value &Elem) {
  auto NewData = std::make_shared<ArrayData>(Arr.array());
  if (Elem.equals(defaultValue(NewData->ElemTy)))
    NewData->Entries.erase(Index);
  else
    NewData->Entries[Index] = Elem;
  return Value::ofArray(std::move(NewData));
}

/// Control status flowing out of statement execution.
enum class Flow { Next, Returned, Halt };

class Interp {
public:
  Interp(const AstContext &Ctx, const Program &Prog, const EvalOptions &Opts)
      : Ctx(Ctx), Prog(Prog), Opts(Opts), Gen(Opts.Seed) {}

  EvalResult run(Symbol Entry) {
    for (const VarDecl &G : Prog.Globals)
      Globals[G.Name] = nondet(G.Ty);
    const Procedure *P = Prog.findProc(Entry);
    assert(P && "unknown entry procedure");
    std::vector<Value> NoArgs;
    std::vector<Value> Rets;
    callProc(*P, NoArgs, Rets);
    return Result;
  }

private:
  using Env = std::unordered_map<Symbol, Value>;

  /// Draws a fresh nondeterministic value of type \p Ty. Arrays start at the
  /// default (all zero) contents — one valid concretization of "unconstrained"
  /// for the bug-direction oracle.
  Value nondet(const Type *Ty) {
    if (Ty->isInt())
      return Value::ofInt(Gen.range(Opts.IntLo, Opts.IntHi));
    if (Ty->isBool())
      return Value::ofBool(Gen.chance(1, 2));
    if (Ty->isBv()) {
      // Bias toward small values (like the int draw) but cover the width.
      uint64_t V = Gen.chance(3, 4)
                       ? static_cast<uint64_t>(Gen.range(0, 8))
                       : Gen.next();
      return Value::ofInt(static_cast<int64_t>(V & bvMask(Ty->bvWidth())));
    }
    return defaultValue(Ty);
  }

  Value *lookup(Symbol Name) {
    if (!Frames.empty()) {
      auto It = Frames.back().find(Name);
      if (It != Frames.back().end())
        return &It->second;
    }
    auto It = Globals.find(Name);
    if (It != Globals.end())
      return &It->second;
    return nullptr;
  }

  bool spendFuel() {
    if (Steps++ < Opts.MaxSteps)
      return true;
    Result.Outcome = EvalOutcome::OutOfFuel;
    return false;
  }

  Value eval(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return Value::ofInt(E->intValue());
    case ExprKind::BoolLit:
      return Value::ofBool(E->boolValue());
    case ExprKind::Var: {
      Value *V = lookup(E->var());
      assert(V && "unbound variable at runtime");
      return *V;
    }
    case ExprKind::Unary: {
      Value Sub = eval(E->op0());
      if (E->unOp() == UnOp::Not)
        return Value::ofBool(!Sub.asBool());
      if (E->type() && E->type()->isBv()) {
        uint64_t Mask = bvMask(E->type()->bvWidth());
        uint64_t V = static_cast<uint64_t>(Sub.asInt());
        return Value::ofInt(static_cast<int64_t>((~V + 1) & Mask));
      }
      return intResult(foldIntNeg(Sub.asInt()));
    }
    case ExprKind::Binary:
      return evalBinary(E);
    case ExprKind::Ite:
      return eval(E->op0()).asBool() ? eval(E->op1()) : eval(E->op2());
    case ExprKind::Select:
      return arraySelect(eval(E->op0()), eval(E->op1()).asInt());
    case ExprKind::Store:
      return arrayStore(eval(E->op0()), eval(E->op1()).asInt(),
                        eval(E->op2()));
    }
    return Value();
  }

  Value evalBinary(const Expr *E) {
    BinOp Op = E->binOp();
    // Short-circuit the lazy connectives first.
    if (Op == BinOp::And) {
      Value L = eval(E->op0());
      return L.asBool() ? eval(E->op1()) : Value::ofBool(false);
    }
    if (Op == BinOp::Or) {
      Value L = eval(E->op0());
      return L.asBool() ? Value::ofBool(true) : eval(E->op1());
    }
    if (Op == BinOp::Implies) {
      Value L = eval(E->op0());
      return L.asBool() ? eval(E->op1()) : Value::ofBool(true);
    }
    Value L = eval(E->op0());
    Value R = eval(E->op1());
    // Bitvector operands: modular arithmetic and unsigned comparisons,
    // matching SMT-LIB (bvudiv x 0 = all ones, bvurem x 0 = x).
    if (const Type *OpTy = E->op0()->type(); OpTy && OpTy->isBv()) {
      uint64_t Mask = bvMask(OpTy->bvWidth());
      uint64_t A = static_cast<uint64_t>(L.asInt()) & Mask;
      uint64_t B = static_cast<uint64_t>(R.asInt()) & Mask;
      auto Wrap = [&](uint64_t V) {
        return Value::ofInt(static_cast<int64_t>(V & Mask));
      };
      switch (Op) {
      case BinOp::Add:
        return Wrap(A + B);
      case BinOp::Sub:
        return Wrap(A - B);
      case BinOp::Mul:
        return Wrap(A * B);
      case BinOp::Div:
        return Wrap(B == 0 ? Mask : A / B);
      case BinOp::Mod:
        return Wrap(B == 0 ? A : A % B);
      case BinOp::Eq:
        return Value::ofBool(A == B);
      case BinOp::Ne:
        return Value::ofBool(A != B);
      case BinOp::Lt:
        return Value::ofBool(A < B);
      case BinOp::Le:
        return Value::ofBool(A <= B);
      case BinOp::Gt:
        return Value::ofBool(A > B);
      case BinOp::Ge:
        return Value::ofBool(A >= B);
      default:
        break;
      }
    }
    switch (Op) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod:
      // x div 0 and x mod 0 are uninterpreted in SMT; we pick 0 so the
      // oracle stays total. Engines and the oracle agree only on runs with
      // nonzero divisors; the workload generators never emit division by a
      // possibly-zero expression.
      if ((Op == BinOp::Div || Op == BinOp::Mod) && R.asInt() == 0)
        return Value::ofInt(0);
      return intResult(foldIntArith(Op, L.asInt(), R.asInt()));
    case BinOp::Eq:
      return Value::ofBool(L.equals(R));
    case BinOp::Ne:
      return Value::ofBool(!L.equals(R));
    case BinOp::Lt:
      return Value::ofBool(L.asInt() < R.asInt());
    case BinOp::Le:
      return Value::ofBool(L.asInt() <= R.asInt());
    case BinOp::Gt:
      return Value::ofBool(L.asInt() > R.asInt());
    case BinOp::Ge:
      return Value::ofBool(L.asInt() >= R.asInt());
    case BinOp::Iff:
      return Value::ofBool(L.asBool() == R.asBool());
    default:
      break;
    }
    assert(false && "handled above");
    return Value();
  }

  /// An int result from the kernel; nullopt (no int64 result) flags the
  /// run as Overflow, which every statement checks before acting.
  Value intResult(std::optional<int64_t> V) {
    if (!V) {
      Overflowed = true;
      return Value::ofInt(0);
    }
    return Value::ofInt(*V);
  }

  /// Evaluates a statement-level expression; false when an int operation
  /// inside it overflowed, which ends the run.
  bool evalChecked(const Expr *E, Value &Out) {
    Out = eval(E);
    if (!Overflowed)
      return true;
    Result.Outcome = EvalOutcome::Overflow;
    return false;
  }

  Flow execBlock(const std::vector<const Stmt *> &Block) {
    for (const Stmt *S : Block) {
      Flow F = exec(S);
      if (F != Flow::Next)
        return F;
    }
    return Flow::Next;
  }

  /// Resolves an if/while guard; `*` guards draw from the RNG.
  bool guard(const Stmt *S, bool &Taken) {
    if (!S->guard()) {
      Taken = Gen.chance(1, 2);
      return true;
    }
    Value C;
    if (!evalChecked(S->guard(), C))
      return false;
    Taken = C.asBool();
    return true;
  }

  Flow exec(const Stmt *S) {
    if (!spendFuel())
      return Flow::Halt;
    switch (S->kind()) {
    case StmtKind::Assign: {
      Value V;
      if (!evalChecked(S->assignValue(), V))
        return Flow::Halt;
      Value *Slot = lookup(S->assignTarget());
      assert(Slot && "assignment to unbound variable");
      *Slot = V;
      return Flow::Next;
    }
    case StmtKind::Havoc: {
      for (Symbol Var : S->havocVars()) {
        Value *Slot = lookup(Var);
        assert(Slot && "havoc of unbound variable");
        *Slot = nondet(typeOf(Var));
      }
      return Flow::Next;
    }
    case StmtKind::Assume: {
      Value C;
      if (!evalChecked(S->condition(), C))
        return Flow::Halt;
      if (!C.asBool()) {
        Result.Outcome = EvalOutcome::Blocked;
        return Flow::Halt;
      }
      return Flow::Next;
    }
    case StmtKind::Assert: {
      Value C;
      if (!evalChecked(S->condition(), C))
        return Flow::Halt;
      if (!C.asBool()) {
        Result.Outcome = EvalOutcome::AssertFailed;
        Result.FailedAssertLoc = S->loc();
        return Flow::Halt;
      }
      return Flow::Next;
    }
    case StmtKind::Call:
      return execCall(S);
    case StmtKind::If: {
      bool TakeThen;
      if (!guard(S, TakeThen))
        return Flow::Halt;
      return execBlock(TakeThen ? S->thenBlock() : S->elseBlock());
    }
    case StmtKind::While: {
      unsigned Iterations = 0;
      for (;;) {
        if (!spendFuel())
          return Flow::Halt;
        bool Continue;
        if (!guard(S, Continue))
          return Flow::Halt;
        if (!Continue)
          break;
        ++Iterations;
        if (Iterations > Result.MaxLoopIterations)
          Result.MaxLoopIterations = Iterations;
        Flow F = execBlock(S->loopBody());
        if (F != Flow::Next)
          return F;
      }
      return Flow::Next;
    }
    case StmtKind::Return:
      return Flow::Returned;
    }
    return Flow::Next;
  }

  Flow execCall(const Stmt *S) {
    const Procedure *Callee = Prog.findProc(S->callee());
    assert(Callee && "call to unknown procedure");
    std::vector<Value> Args;
    Args.reserve(S->callArgs().size());
    for (const Expr *A : S->callArgs())
      if (!evalChecked(A, Args.emplace_back()))
        return Flow::Halt;

    std::vector<Value> Rets;
    if (!callProc(*Callee, Args, Rets))
      return Flow::Halt;

    const std::vector<Symbol> &Lhs = S->callLhs();
    assert(Lhs.size() == Rets.size() && "return arity mismatch");
    for (size_t I = 0; I < Lhs.size(); ++I) {
      Value *Slot = lookup(Lhs[I]);
      assert(Slot && "call lhs unbound");
      *Slot = Rets[I];
    }
    return Flow::Next;
  }

  /// Runs \p P; returns false when the whole evaluation halted (assert
  /// failure, blocked assume, out of fuel).
  bool callProc(const Procedure &P, const std::vector<Value> &Args,
                std::vector<Value> &Rets) {
    assert(Args.size() == P.Params.size() && "argument arity mismatch");
    Env Frame;
    for (size_t I = 0; I < P.Params.size(); ++I)
      Frame[P.Params[I].Name] = Args[I];
    for (const VarDecl &R : P.Returns)
      Frame[R.Name] = nondet(R.Ty);
    for (const VarDecl &L : P.Locals)
      Frame[L.Name] = nondet(L.Ty);

    unsigned &Depth = RecursionDepth[P.Name];
    ++Depth;
    if (Depth > Result.MaxRecursionDepth)
      Result.MaxRecursionDepth = Depth;

    Frames.push_back(std::move(Frame));
    CurrentProc.push_back(&P);
    Flow F = execBlock(P.Body);
    bool Ok = F != Flow::Halt;
    if (Ok) {
      Rets.clear();
      for (const VarDecl &R : P.Returns)
        Rets.push_back(Frames.back()[R.Name]);
    }
    CurrentProc.pop_back();
    Frames.pop_back();
    --Depth;
    return Ok;
  }

  /// Declared type of \p Name in the innermost scope that binds it.
  const Type *typeOf(Symbol Name) const {
    if (!CurrentProc.empty()) {
      const Procedure &P = *CurrentProc.back();
      for (const auto *Decls : {&P.Params, &P.Returns, &P.Locals})
        for (const VarDecl &D : *Decls)
          if (D.Name == Name)
            return D.Ty;
    }
    for (const VarDecl &G : Prog.Globals)
      if (G.Name == Name)
        return G.Ty;
    assert(false && "type of unbound variable");
    return nullptr;
  }

  const AstContext &Ctx;
  const Program &Prog;
  const EvalOptions &Opts;
  Rng Gen;
  Env Globals;
  std::vector<Env> Frames;
  std::vector<const Procedure *> CurrentProc;
  std::unordered_map<Symbol, unsigned> RecursionDepth;
  unsigned Steps = 0;
  bool Overflowed = false;
  EvalResult Result;
};

} // namespace

EvalResult rmt::evaluate(const AstContext &Ctx, const Program &Prog,
                         Symbol Entry, const EvalOptions &Opts) {
  Interp I(Ctx, Prog, Opts);
  return I.run(Entry);
}
