//===- Ast.cpp - Out-of-line AST helpers ------------------------------------===//

#include "ast/Expr.h"
#include "ast/Ops.h"
#include "ast/Type.h"

using namespace rmt;

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Bv:
    return "bv" + std::to_string(Width);
  case TypeKind::Array:
    return "[" + Index->str() + "]" + Element->str();
  }
  return "<bad-type>";
}

unsigned Expr::numOps() const {
  switch (Kind) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::Var:
    return 0;
  case ExprKind::Unary:
    return 1;
  case ExprKind::Binary:
  case ExprKind::Select:
    return 2;
  case ExprKind::Ite:
  case ExprKind::Store:
    return 3;
  }
  return 0;
}

std::optional<int64_t> rmt::foldIntArith(BinOp Op, int64_t A, int64_t B) {
  int64_t Out;
  switch (Op) {
  case BinOp::Add:
    if (__builtin_add_overflow(A, B, &Out))
      return std::nullopt;
    return Out;
  case BinOp::Sub:
    if (__builtin_sub_overflow(A, B, &Out))
      return std::nullopt;
    return Out;
  case BinOp::Mul:
    if (__builtin_mul_overflow(A, B, &Out))
      return std::nullopt;
    return Out;
  case BinOp::Div:
  case BinOp::Mod: {
    if (B == 0)
      return std::nullopt;
    // INT64_MIN / -1 overflows (and INT64_MIN % -1 traps on x86), but every
    // remainder by -1 is 0.
    if (B == -1)
      return Op == BinOp::Mod ? std::optional<int64_t>(0) : foldIntNeg(A);
    // Truncating quotient and remainder, then one correction step when the
    // remainder is negative: add |B| to it and compensate in the quotient.
    // |B| >= 2 here, so the quotient step cannot overflow, and R - B stays
    // in range even for B == INT64_MIN (|B| itself is never formed).
    int64_t Q = A / B, R = A % B;
    if (R < 0) {
      R = B > 0 ? R + B : R - B;
      Q = B > 0 ? Q - 1 : Q + 1;
    }
    return Op == BinOp::Div ? Q : R;
  }
  default:
    return std::nullopt;
  }
}

std::optional<int64_t> rmt::foldIntNeg(int64_t A) {
  return foldIntArith(BinOp::Sub, 0, A);
}

const char *rmt::spelling(UnOp Op) {
  switch (Op) {
  case UnOp::Not:
    return "!";
  case UnOp::Neg:
    return "-";
  }
  return "?";
}

const char *rmt::spelling(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "div";
  case BinOp::Mod:
    return "mod";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::And:
    return "&&";
  case BinOp::Or:
    return "||";
  case BinOp::Implies:
    return "==>";
  case BinOp::Iff:
    return "<==>";
  }
  return "?";
}
