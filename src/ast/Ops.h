//===- Ops.h - Operator enums -----------------------------------*- C++ -*-===//
//
// Part of the daginline project, a reproduction of "DAG Inlining" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unary and binary operators shared by the AST, the evaluator, the type
/// checker and the SMT term layer, plus the literal-fold kernel: the one
/// definition of SMT-LIB integer arithmetic on int64 values that the
/// evaluator, the interval domain, the term layer and the printer all
/// call.
///
//===----------------------------------------------------------------------===//

#ifndef RMT_AST_OPS_H
#define RMT_AST_OPS_H

#include <cstdint>
#include <optional>

namespace rmt {

/// Unary operators.
enum class UnOp {
  Not, ///< boolean negation
  Neg, ///< integer negation
};

/// Binary operators.
enum class BinOp {
  // int x int -> int
  Add,
  Sub,
  Mul,
  Div, ///< Euclidean division, SMT-LIB `div`
  Mod, ///< Euclidean remainder, SMT-LIB `mod`
  // T x T -> bool
  Eq,
  Ne,
  // int x int -> bool
  Lt,
  Le,
  Gt,
  Ge,
  // bool x bool -> bool
  And,
  Or,
  Implies,
  Iff,
};

/// True for operators whose operands are integers.
inline bool isArithOp(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
    return true;
  default:
    return false;
  }
}

/// True for operators producing a boolean.
inline bool isPredicateOp(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
  case BinOp::Sub:
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
    return false;
  default:
    return true;
  }
}

/// True for the boolean connectives.
inline bool isLogicalOp(BinOp Op) {
  switch (Op) {
  case BinOp::And:
  case BinOp::Or:
  case BinOp::Implies:
  case BinOp::Iff:
    return true;
  default:
    return false;
  }
}

/// The literal-fold kernel: \p Op (Add, Sub, Mul, Div or Mod) on int64
/// operands under SMT-LIB semantics, with Euclidean `div`/`mod`
/// (0 <= a mod b < |b|). Returns nullopt when the exact result is not an
/// int64 (overflow) or is uninterpreted in SMT-LIB (`x div 0`, `x mod 0`),
/// and for any other operator. Free of undefined behaviour for all inputs.
std::optional<int64_t> foldIntArith(BinOp Op, int64_t A, int64_t B);

/// Integer negation; nullopt when the result overflows (INT64_MIN).
std::optional<int64_t> foldIntNeg(int64_t A);

/// Surface-syntax spelling of \p Op.
const char *spelling(UnOp Op);
/// Surface-syntax spelling of \p Op.
const char *spelling(BinOp Op);

} // namespace rmt

#endif // RMT_AST_OPS_H
