//===- Term.cpp -----------------------------------------------------------===//

#include "smt/Term.h"

#include "ast/Ops.h"

#include <unordered_set>

using namespace rmt;

TermRef TermArena::makeLeaf(TermOp Op, const Type *Sort, int64_t Payload) {
  // Literals are consed through the same table (no kids).
  if (Op != TermOp::Const) {
    AppKey Key{Op, Payload, Sort, {}};
    auto It = ConsTable.find(Key);
    if (It != ConsTable.end())
      return TermRef(It->second);
    uint32_t Id = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back({Op, Sort, Payload, 0, 0});
    ConsTable.emplace(std::move(Key), Id);
    return TermRef(Id);
  }
  uint32_t Id = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back({Op, Sort, Payload, 0, 0});
  return TermRef(Id);
}

TermRef TermArena::makeApp(TermOp Op, const Type *Sort,
                           std::initializer_list<TermRef> Kids) {
  AppKey Key{Op, 0, Sort, {}};
  Key.Kids.reserve(Kids.size());
  for (TermRef K : Kids) {
    assert(K.isValid() && "invalid child");
    Key.Kids.push_back(K.id());
  }
  auto It = ConsTable.find(Key);
  if (It != ConsTable.end())
    return TermRef(It->second);

  uint32_t First = static_cast<uint32_t>(Operands.size());
  for (TermRef K : Kids)
    Operands.push_back(K);
  uint32_t Id = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(
      {Op, Sort, 0, First, static_cast<uint32_t>(Kids.size())});
  ConsTable.emplace(std::move(Key), Id);
  return TermRef(Id);
}

TermRef TermArena::freshConst(const Type *Sort, const std::string &BaseName) {
  int64_t Index = static_cast<int64_t>(ConstNames.size());
  ConstNames.push_back(BaseName + "!" + std::to_string(Index));
  return makeLeaf(TermOp::Const, Sort, Index);
}

TermRef TermArena::intLit(int64_t Value) {
  // The sort pointer must be stable; literals only ever appear where a
  // context-provided int type exists, but the arena cannot reach it. Use a
  // sentinel-free approach: literals carry a null sort and backends treat
  // IntLit/BoolLit structurally.
  return makeLeaf(TermOp::IntLit, nullptr, Value);
}

TermRef TermArena::boolLit(bool Value) {
  return makeLeaf(TermOp::BoolLit, nullptr, Value ? 1 : 0);
}

TermRef TermArena::bvLit(uint64_t Value, const Type *Sort) {
  assert(Sort && Sort->isBv() && "bvLit needs a bitvector sort");
  unsigned Width = Sort->bvWidth();
  uint64_t Mask = Width == 64 ? ~uint64_t(0) : ((uint64_t(1) << Width) - 1);
  return makeLeaf(TermOp::IntLit, Sort, static_cast<int64_t>(Value & Mask));
}

TermRef TermArena::mkNot(TermRef A) {
  if (isTrue(A))
    return mkFalse();
  if (isFalse(A))
    return mkTrue();
  if (op(A) == TermOp::Not)
    return kid(A, 0);
  return makeApp(TermOp::Not, nullptr, {A});
}

TermRef TermArena::mkAnd(TermRef A, TermRef B) {
  if (isTrue(A))
    return B;
  if (isTrue(B))
    return A;
  if (isFalse(A) || isFalse(B))
    return mkFalse();
  if (A == B)
    return A;
  return makeApp(TermOp::And, nullptr, {A, B});
}

TermRef TermArena::mkOr(TermRef A, TermRef B) {
  if (isFalse(A))
    return B;
  if (isFalse(B))
    return A;
  if (isTrue(A) || isTrue(B))
    return mkTrue();
  if (A == B)
    return A;
  return makeApp(TermOp::Or, nullptr, {A, B});
}

TermRef TermArena::mkImplies(TermRef A, TermRef B) {
  if (isTrue(A))
    return B;
  if (isFalse(A) || isTrue(B))
    return mkTrue();
  if (isFalse(B))
    return mkNot(A);
  return makeApp(TermOp::Implies, nullptr, {A, B});
}

TermRef TermArena::mkAndMany(const std::vector<TermRef> &Terms) {
  TermRef Acc = mkTrue();
  for (TermRef T : Terms)
    Acc = mkAnd(Acc, T);
  return Acc;
}

TermRef TermArena::mkOrMany(const std::vector<TermRef> &Terms) {
  TermRef Acc = mkFalse();
  for (TermRef T : Terms)
    Acc = mkOr(Acc, T);
  return Acc;
}

namespace {

/// True when \p Sort designates mathematical integers (the default).
bool isIntSort(const rmt::Type *Sort) { return !Sort || Sort->isInt(); }

} // namespace

/// Value sort of a binary arithmetic application: whichever operand knows.
static const Type *jointSort(const TermArena &A, TermRef X, TermRef Y) {
  return A.sort(X) ? A.sort(X) : A.sort(Y);
}

TermRef TermArena::mkEq(TermRef A, TermRef B) {
  if (A == B)
    return mkTrue();
  // Literal folding is only valid when both literals have the same sort
  // (payloads of bitvector literals are stored in canonical masked form).
  if (op(A) == TermOp::IntLit && op(B) == TermOp::IntLit &&
      sort(A) == sort(B))
    return boolLit(node(A).Payload == node(B).Payload);
  if (op(A) == TermOp::BoolLit && op(B) == TermOp::BoolLit)
    return boolLit(node(A).Payload == node(B).Payload);
  return makeApp(TermOp::Eq, nullptr, {A, B});
}

TermRef TermArena::mkLt(TermRef A, TermRef B) {
  if (A == B)
    return mkFalse();
  if (op(A) == TermOp::IntLit && op(B) == TermOp::IntLit &&
      isIntSort(sort(A)) && isIntSort(sort(B)))
    return boolLit(node(A).Payload < node(B).Payload);
  return makeApp(TermOp::Lt, nullptr, {A, B});
}

TermRef TermArena::mkLe(TermRef A, TermRef B) {
  if (A == B)
    return mkTrue();
  if (op(A) == TermOp::IntLit && op(B) == TermOp::IntLit &&
      isIntSort(sort(A)) && isIntSort(sort(B)))
    return boolLit(node(A).Payload <= node(B).Payload);
  return makeApp(TermOp::Le, nullptr, {A, B});
}

TermRef TermArena::mkNeg(TermRef A) {
  if (op(A) == TermOp::IntLit && isIntSort(sort(A)))
    if (std::optional<int64_t> V = foldIntNeg(node(A).Payload))
      return intLit(*V);
  return makeApp(TermOp::Neg, sort(A), {A});
}

TermRef TermArena::mkAdd(TermRef A, TermRef B) {
  if (op(A) == TermOp::IntLit && node(A).Payload == 0)
    return B;
  if (op(B) == TermOp::IntLit && node(B).Payload == 0)
    return A;
  return makeApp(TermOp::Add, jointSort(*this, A, B), {A, B});
}

TermRef TermArena::mkSub(TermRef A, TermRef B) {
  if (op(B) == TermOp::IntLit && node(B).Payload == 0)
    return A;
  return makeApp(TermOp::Sub, jointSort(*this, A, B), {A, B});
}

TermRef TermArena::mkMul(TermRef A, TermRef B) {
  if (op(A) == TermOp::IntLit && node(A).Payload == 1)
    return B;
  if (op(B) == TermOp::IntLit && node(B).Payload == 1)
    return A;
  return makeApp(TermOp::Mul, jointSort(*this, A, B), {A, B});
}

TermRef TermArena::mkDiv(TermRef A, TermRef B) {
  return makeApp(TermOp::Div, jointSort(*this, A, B), {A, B});
}

TermRef TermArena::mkMod(TermRef A, TermRef B) {
  return makeApp(TermOp::Mod, jointSort(*this, A, B), {A, B});
}

TermRef TermArena::mkIte(TermRef C, TermRef T, TermRef E) {
  if (isTrue(C))
    return T;
  if (isFalse(C))
    return E;
  if (T == E)
    return T;
  return makeApp(TermOp::Ite, sort(T), {C, T, E});
}

TermRef TermArena::mkSelect(TermRef Array, TermRef Index) {
  const Type *ArrSort = sort(Array);
  assert(ArrSort && ArrSort->isArray() && "select needs a sorted array term");
  return makeApp(TermOp::Select, ArrSort->elementType(), {Array, Index});
}

TermRef TermArena::mkStore(TermRef Array, TermRef Index, TermRef Value) {
  const Type *ArrSort = sort(Array);
  assert(ArrSort && ArrSort->isArray() && "store needs a sorted array term");
  return makeApp(TermOp::Store, ArrSort, {Array, Index, Value});
}

size_t TermArena::dagSize(TermRef T) const {
  std::unordered_set<uint32_t> Seen;
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur.id()).second)
      continue;
    for (unsigned I = 0, N = numKids(Cur); I < N; ++I)
      Work.push_back(kid(Cur, I));
  }
  return Seen.size();
}
