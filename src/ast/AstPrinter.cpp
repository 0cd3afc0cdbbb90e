//===- AstPrinter.cpp -----------------------------------------------------===//

#include "ast/AstPrinter.h"

using namespace rmt;

namespace {

/// Binding strength; larger binds tighter.
unsigned precedence(BinOp Op) {
  switch (Op) {
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
    return 70;
  case BinOp::Add:
  case BinOp::Sub:
    return 60;
  case BinOp::Eq:
  case BinOp::Ne:
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
    return 50;
  case BinOp::And:
    return 40;
  case BinOp::Or:
    return 30;
  case BinOp::Implies:
    return 20;
  case BinOp::Iff:
    return 10;
  }
  return 0;
}

class ExprPrinter {
public:
  explicit ExprPrinter(const AstContext &Ctx) : Ctx(Ctx) {}

  /// \p MinPrec: parenthesize if this node binds looser than MinPrec.
  std::string print(const Expr *E, unsigned MinPrec) {
    switch (E->kind()) {
    case ExprKind::IntLit: {
      if (E->type() && E->type()->isBv())
        return std::to_string(static_cast<uint64_t>(E->intValue())) + "bv" +
               std::to_string(E->type()->bvWidth());
      int64_t V = E->intValue();
      if (V < 0)
        return "(" + std::to_string(V) + ")";
      return std::to_string(V);
    }
    case ExprKind::BoolLit:
      return E->boolValue() ? "true" : "false";
    case ExprKind::Var:
      return Ctx.name(E->var());
    case ExprKind::Unary: {
      // Canonicalize literal negation chains to one literal: the parser
      // folds `-<lit>`, so printing Neg^k(IntLit n) as the folded literal
      // keeps print∘parse a fixpoint for any AST.
      if (E->unOp() == UnOp::Neg) {
        const Expr *Leaf = E->op0();
        int Sign = -1;
        while (Leaf->kind() == ExprKind::Unary &&
               Leaf->unOp() == UnOp::Neg) {
          Sign = -Sign;
          Leaf = Leaf->op0();
        }
        // -INT64_MIN is no literal: print it through the generic path.
        std::optional<int64_t> V;
        if (Leaf->kind() == ExprKind::IntLit)
          V = Sign < 0 ? foldIntNeg(Leaf->intValue()) : Leaf->intValue();
        if (V)
          return *V < 0 ? "(" + std::to_string(*V) + ")" : std::to_string(*V);
      }
      std::string Sub = print(E->op0(), 100);
      // Avoid `--x`, which would lex as two minus tokens.
      if (E->unOp() == UnOp::Neg && !Sub.empty() && Sub[0] == '-')
        Sub = "(" + Sub + ")";
      return std::string(spelling(E->unOp())) + Sub;
    }
    case ExprKind::Binary: {
      unsigned P = precedence(E->binOp());
      // Children of a binary node must bind strictly tighter on the right
      // and at least as tight on the left (all our ops associate left except
      // ==>, printed fully parenthesized on nesting for clarity).
      std::string S = print(E->op0(), P) + " " + spelling(E->binOp()) + " " +
                      print(E->op1(), P + 1);
      if (P < MinPrec)
        return "(" + S + ")";
      return S;
    }
    case ExprKind::Ite: {
      std::string S = "if " + print(E->op0(), 0) + " then " +
                      print(E->op1(), 0) + " else " + print(E->op2(), 0);
      return "(" + S + ")";
    }
    case ExprKind::Select:
      return print(E->op0(), 100) + "[" + print(E->op1(), 0) + "]";
    case ExprKind::Store:
      return print(E->op0(), 100) + "[" + print(E->op1(), 0) +
             " := " + print(E->op2(), 0) + "]";
    }
    return "<bad-expr>";
  }

private:
  const AstContext &Ctx;
};

std::string indentStr(unsigned Indent) { return std::string(Indent, ' '); }

void printBlock(const AstContext &Ctx, const std::vector<const Stmt *> &Block,
                unsigned Indent, std::string &Out);

void printStmtInto(const AstContext &Ctx, const Stmt *S, unsigned Indent,
                   std::string &Out) {
  std::string Pad = indentStr(Indent);
  switch (S->kind()) {
  case StmtKind::Assign:
    Out += Pad + Ctx.name(S->assignTarget()) +
           " := " + printExpr(Ctx, S->assignValue()) + ";\n";
    return;
  case StmtKind::Havoc: {
    Out += Pad + "havoc ";
    const auto &Vars = S->havocVars();
    for (size_t I = 0; I < Vars.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Ctx.name(Vars[I]);
    }
    Out += ";\n";
    return;
  }
  case StmtKind::Assume:
    Out += Pad + "assume " + printExpr(Ctx, S->condition()) + ";\n";
    return;
  case StmtKind::Assert:
    Out += Pad + "assert " + printExpr(Ctx, S->condition()) + ";\n";
    return;
  case StmtKind::Call: {
    Out += Pad + "call ";
    const auto &Lhs = S->callLhs();
    for (size_t I = 0; I < Lhs.size(); ++I) {
      if (I)
        Out += ", ";
      Out += Ctx.name(Lhs[I]);
    }
    if (!Lhs.empty())
      Out += " := ";
    Out += Ctx.name(S->callee()) + "(";
    const auto &Args = S->callArgs();
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExpr(Ctx, Args[I]);
    }
    Out += ");\n";
    return;
  }
  case StmtKind::If: {
    Out += Pad + "if (";
    Out += S->guard() ? printExpr(Ctx, S->guard()) : "*";
    Out += ") {\n";
    printBlock(Ctx, S->thenBlock(), Indent + 2, Out);
    Out += Pad + "}";
    if (!S->elseBlock().empty()) {
      Out += " else {\n";
      printBlock(Ctx, S->elseBlock(), Indent + 2, Out);
      Out += Pad + "}";
    }
    Out += "\n";
    return;
  }
  case StmtKind::While: {
    Out += Pad + "while (";
    Out += S->guard() ? printExpr(Ctx, S->guard()) : "*";
    Out += ") {\n";
    printBlock(Ctx, S->loopBody(), Indent + 2, Out);
    Out += Pad + "}\n";
    return;
  }
  case StmtKind::Return:
    Out += Pad + "return;\n";
    return;
  }
}

void printBlock(const AstContext &Ctx, const std::vector<const Stmt *> &Block,
                unsigned Indent, std::string &Out) {
  for (const Stmt *S : Block)
    printStmtInto(Ctx, S, Indent, Out);
}

void printVarDecls(const AstContext &Ctx, const std::vector<VarDecl> &Decls,
                   std::string &Out, const char *Separator) {
  for (size_t I = 0; I < Decls.size(); ++I) {
    if (I)
      Out += Separator;
    Out += Ctx.name(Decls[I].Name) + ": " + Decls[I].Ty->str();
  }
}

} // namespace

std::string rmt::printExpr(const AstContext &Ctx, const Expr *E) {
  return ExprPrinter(Ctx).print(E, 0);
}

std::string rmt::printStmt(const AstContext &Ctx, const Stmt *S,
                           unsigned Indent) {
  std::string Out;
  printStmtInto(Ctx, S, Indent, Out);
  return Out;
}

std::string rmt::printProc(const AstContext &Ctx, const Procedure &P) {
  std::string Out = "procedure " + Ctx.name(P.Name) + "(";
  printVarDecls(Ctx, P.Params, Out, ", ");
  Out += ")";
  if (!P.Returns.empty()) {
    Out += " returns (";
    printVarDecls(Ctx, P.Returns, Out, ", ");
    Out += ")";
  }
  Out += " {\n";
  for (const VarDecl &L : P.Locals)
    Out += "  var " + Ctx.name(L.Name) + ": " + L.Ty->str() + ";\n";
  printBlock(Ctx, P.Body, 2, Out);
  Out += "}\n";
  return Out;
}

std::string rmt::printProgram(const AstContext &Ctx, const Program &Prog) {
  std::string Out;
  for (const VarDecl &G : Prog.Globals)
    Out += "var " + Ctx.name(G.Name) + ": " + G.Ty->str() + ";\n";
  if (!Prog.Globals.empty())
    Out += "\n";
  for (size_t I = 0; I < Prog.Procedures.size(); ++I) {
    if (I)
      Out += "\n";
    Out += printProc(Ctx, Prog.Procedures[I]);
  }
  return Out;
}
