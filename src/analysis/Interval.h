//===- Interval.h - Integer interval domain ---------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic interval abstract domain over mathematical integers (booleans
/// embed as [0,1]). Used by the invariant-generation prepass that stands in
/// for Corral's Houdini ("Corral uses invariant generation techniques as
/// pre-pass; any inferred invariant is injected into the program as an
/// assume statement", Section 4). Each procedure's flow graph is acyclic,
/// but the interprocedural iteration over call contexts is not bounded, so
/// IntervalAnalysis widens (AbsEnv::widen) after its first rounds.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_ANALYSIS_INTERVAL_H
#define RMT_ANALYSIS_INTERVAL_H

#include <algorithm>
#include <cstdint>
#include <string>

namespace rmt {

/// A (possibly unbounded) integer interval. The empty interval is bottom.
class Interval {
public:
  /// Top: (-inf, +inf).
  Interval() = default;
  static Interval top() { return Interval(); }
  static Interval bottom() {
    Interval I;
    I.Empty = true;
    return I;
  }
  static Interval constant(int64_t V) { return bounded(V, V); }
  static Interval bounded(int64_t Lo, int64_t Hi) {
    Interval I;
    I.HasLo = I.HasHi = true;
    I.Lo = Lo;
    I.Hi = Hi;
    if (Lo > Hi)
      I.Empty = true;
    return I;
  }
  static Interval atLeast(int64_t Lo) {
    Interval I;
    I.HasLo = true;
    I.Lo = Lo;
    return I;
  }
  static Interval atMost(int64_t Hi) {
    Interval I;
    I.HasHi = true;
    I.Hi = Hi;
    return I;
  }
  /// The boolean embedding [0,1].
  static Interval boolTop() { return bounded(0, 1); }

  bool isBottom() const { return Empty; }
  bool isTop() const { return !Empty && !HasLo && !HasHi; }
  bool hasLo() const { return !Empty && HasLo; }
  bool hasHi() const { return !Empty && HasHi; }
  int64_t lo() const { return Lo; }
  int64_t hi() const { return Hi; }
  bool isConstant() const { return hasLo() && hasHi() && Lo == Hi; }

  bool contains(int64_t V) const {
    return !Empty && (!HasLo || Lo <= V) && (!HasHi || V <= Hi);
  }

  friend bool operator==(const Interval &A, const Interval &B) {
    if (A.Empty || B.Empty)
      return A.Empty == B.Empty;
    return A.HasLo == B.HasLo && A.HasHi == B.HasHi &&
           (!A.HasLo || A.Lo == B.Lo) && (!A.HasHi || A.Hi == B.Hi);
  }

  /// Least upper bound.
  Interval join(const Interval &O) const;
  /// Greatest lower bound.
  Interval meet(const Interval &O) const;

  // Abstract arithmetic (saturating; overflow widens to unbounded).
  Interval add(const Interval &O) const;
  Interval sub(const Interval &O) const;
  Interval neg() const;
  Interval mul(const Interval &O) const;

  /// Abstract comparison A < B as a boolean interval ([1,1] definitely,
  /// [0,0] definitely not, [0,1] unknown).
  Interval ltCmp(const Interval &O) const;
  Interval leCmp(const Interval &O) const;
  Interval eqCmp(const Interval &O) const;

  std::string str() const;

private:
  bool Empty = false;
  bool HasLo = false;
  bool HasHi = false;
  int64_t Lo = 0;
  int64_t Hi = 0;
};

} // namespace rmt

#endif // RMT_ANALYSIS_INTERVAL_H
