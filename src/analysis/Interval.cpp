//===- Interval.cpp -------------------------------------------------------===//

#include "analysis/Interval.h"

#include "ast/Ops.h"

using namespace rmt;

Interval Interval::join(const Interval &O) const {
  if (Empty)
    return O;
  if (O.Empty)
    return *this;
  Interval R;
  R.HasLo = HasLo && O.HasLo;
  R.HasHi = HasHi && O.HasHi;
  if (R.HasLo)
    R.Lo = std::min(Lo, O.Lo);
  if (R.HasHi)
    R.Hi = std::max(Hi, O.Hi);
  return R;
}

Interval Interval::meet(const Interval &O) const {
  if (Empty || O.Empty)
    return bottom();
  Interval R;
  R.HasLo = HasLo || O.HasLo;
  R.HasHi = HasHi || O.HasHi;
  R.Lo = HasLo ? (O.HasLo ? std::max(Lo, O.Lo) : Lo) : O.Lo;
  R.Hi = HasHi ? (O.HasHi ? std::min(Hi, O.Hi) : Hi) : O.Hi;
  if (R.HasLo && R.HasHi && R.Lo > R.Hi)
    return bottom();
  return R;
}

Interval Interval::add(const Interval &O) const {
  if (Empty || O.Empty)
    return bottom();
  Interval R;
  if (HasLo && O.HasLo)
    if (std::optional<int64_t> V = foldIntArith(BinOp::Add, Lo, O.Lo)) {
      R.HasLo = true;
      R.Lo = *V;
    }
  if (HasHi && O.HasHi)
    if (std::optional<int64_t> V = foldIntArith(BinOp::Add, Hi, O.Hi)) {
      R.HasHi = true;
      R.Hi = *V;
    }
  return R;
}

Interval Interval::sub(const Interval &O) const { return add(O.neg()); }

Interval Interval::neg() const {
  if (Empty)
    return bottom();
  Interval R;
  if (HasHi)
    if (std::optional<int64_t> V = foldIntNeg(Hi)) {
      R.HasLo = true;
      R.Lo = *V;
    }
  if (HasLo)
    if (std::optional<int64_t> V = foldIntNeg(Lo)) {
      R.HasHi = true;
      R.Hi = *V;
    }
  return R;
}

Interval Interval::mul(const Interval &O) const {
  if (Empty || O.Empty)
    return bottom();
  // Only fully bounded multiplication is tracked; anything else is top.
  if (!HasLo || !HasHi || !O.HasLo || !O.HasHi)
    return top();
  int64_t Candidates[4];
  int64_t Pairs[4][2] = {{Lo, O.Lo}, {Lo, O.Hi}, {Hi, O.Lo}, {Hi, O.Hi}};
  for (int I = 0; I < 4; ++I) {
    std::optional<int64_t> V =
        foldIntArith(BinOp::Mul, Pairs[I][0], Pairs[I][1]);
    if (!V)
      return top();
    Candidates[I] = *V;
  }
  int64_t MinV = Candidates[0], MaxV = Candidates[0];
  for (int I = 1; I < 4; ++I) {
    MinV = std::min(MinV, Candidates[I]);
    MaxV = std::max(MaxV, Candidates[I]);
  }
  return bounded(MinV, MaxV);
}

Interval Interval::ltCmp(const Interval &O) const {
  if (Empty || O.Empty)
    return bottom();
  if (HasHi && O.HasLo && Hi < O.Lo)
    return constant(1);
  if (HasLo && O.HasHi && Lo >= O.Hi)
    return constant(0);
  return boolTop();
}

Interval Interval::leCmp(const Interval &O) const {
  if (Empty || O.Empty)
    return bottom();
  if (HasHi && O.HasLo && Hi <= O.Lo)
    return constant(1);
  if (HasLo && O.HasHi && Lo > O.Hi)
    return constant(0);
  return boolTop();
}

Interval Interval::eqCmp(const Interval &O) const {
  if (Empty || O.Empty)
    return bottom();
  if (isConstant() && O.isConstant() && Lo == O.Lo)
    return constant(1);
  if (meet(O).isBottom())
    return constant(0);
  return boolTop();
}

std::string Interval::str() const {
  if (Empty)
    return "⊥";
  std::string L = HasLo ? std::to_string(Lo) : "-inf";
  std::string H = HasHi ? std::to_string(Hi) : "+inf";
  return "[" + L + ", " + H + "]";
}
