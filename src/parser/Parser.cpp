//===- Parser.cpp ---------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"
#include "parser/TypeCheck.h"

#include <algorithm>
#include <cctype>
#include <optional>

using namespace rmt;

namespace {

class ParserImpl {
public:
  ParserImpl(std::vector<Token> Tokens, AstContext &Ctx, DiagEngine &Diags)
      : Tokens(std::move(Tokens)), Ctx(Ctx), Diags(Diags) {}

  std::optional<Program> run() {
    Program Prog;
    while (!at(TokKind::Eof)) {
      if (at(TokKind::KwVar)) {
        parseGlobal(Prog);
      } else if (at(TokKind::KwProcedure)) {
        parseProcedure(Prog);
      } else {
        error("expected 'var' or 'procedure'");
        return std::nullopt;
      }
      if (Failed)
        return std::nullopt;
    }
    return Prog;
  }

private:
  const Token &cur() const { return Tokens[Pos]; }
  bool at(TokKind K) const { return cur().is(K); }

  const Token &take() { return Tokens[Pos < Tokens.size() - 1 ? Pos++ : Pos]; }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    take();
    return true;
  }

  void error(const std::string &Message) {
    if (!Failed)
      Diags.error(cur().Loc, Message + ", found " + tokKindName(cur().Kind));
    Failed = true;
  }

  /// Holds one level of statement or expression nesting for its scope. The
  /// parser recurses once per level, so a level past MaxNesting is reported
  /// (ok() is false) rather than risk overflowing the stack; the caller then
  /// stops descending.
  class NestingLevel {
  public:
    explicit NestingLevel(ParserImpl &P) : P(P) {
      P.Peak = std::max(P.Peak, ++P.Nesting);
      if (P.Nesting > MaxNesting)
        P.tooDeep(P.cur().Loc);
    }
    ~NestingLevel() { --P.Nesting; }
    bool ok() const { return P.Nesting <= MaxNesting; }

  private:
    ParserImpl &P;
  };

  /// Reports a tree past MaxNesting levels at \p Loc (the first only).
  void tooDeep(SrcLoc Loc) {
    if (!Failed)
      Diags.error(Loc, "nesting deeper than " + std::to_string(MaxNesting) +
                           " levels");
    Failed = true;
  }

  bool expect(TokKind K, const char *Context) {
    if (accept(K))
      return true;
    error(std::string("expected ") + tokKindName(K) + " " + Context);
    return false;
  }

  Symbol expectIdent(const char *Context) {
    if (!at(TokKind::Ident)) {
      error(std::string("expected identifier ") + Context);
      return Symbol();
    }
    return Ctx.sym(take().Text);
  }

  const Type *parseType() {
    if (accept(TokKind::KwInt))
      return Ctx.intType();
    if (accept(TokKind::KwBool))
      return Ctx.boolType();
    // Bitvector types are identifiers of the shape bv<width>.
    if (at(TokKind::Ident) && cur().Text.size() > 2 &&
        cur().Text.substr(0, 2) == "bv") {
      std::string_view Digits = cur().Text.substr(2);
      bool AllDigits = true;
      unsigned Width = 0;
      for (char D : Digits) {
        if (!std::isdigit(static_cast<unsigned char>(D))) {
          AllDigits = false;
          break;
        }
        Width = Width * 10 + static_cast<unsigned>(D - '0');
      }
      if (AllDigits) {
        if (Width < 1 || Width > 64) {
          error("bitvector width must be between 1 and 64");
          take();
          return Ctx.intType();
        }
        take();
        return Ctx.bvType(Width);
      }
    }
    if (accept(TokKind::LBracket)) {
      const Type *Index = parseType();
      if (!expect(TokKind::RBracket, "after array index type"))
        return Ctx.intType();
      const Type *Element = parseType();
      return Ctx.arrayType(Index, Element);
    }
    error("expected a type");
    return Ctx.intType();
  }

  void parseGlobal(Program &Prog) {
    expect(TokKind::KwVar, "to begin global declaration");
    SrcLoc Loc = cur().Loc;
    Symbol Name = expectIdent("in global declaration");
    expect(TokKind::Colon, "after global name");
    const Type *Ty = parseType();
    expect(TokKind::Semi, "after global declaration");
    Prog.Globals.push_back({Name, Ty, Loc});
  }

  std::vector<VarDecl> parseParamList(const char *Context) {
    std::vector<VarDecl> Decls;
    if (at(TokKind::RParen))
      return Decls;
    do {
      SrcLoc Loc = cur().Loc;
      Symbol Name = expectIdent(Context);
      expect(TokKind::Colon, "after parameter name");
      const Type *Ty = parseType();
      Decls.push_back({Name, Ty, Loc});
    } while (accept(TokKind::Comma) && !Failed);
    return Decls;
  }

  void parseProcedure(Program &Prog) {
    expect(TokKind::KwProcedure, "to begin procedure");
    Procedure P;
    P.Loc = cur().Loc;
    P.Name = expectIdent("after 'procedure'");
    expect(TokKind::LParen, "after procedure name");
    P.Params = parseParamList("in parameter list");
    expect(TokKind::RParen, "after parameter list");
    if (accept(TokKind::KwReturns)) {
      expect(TokKind::LParen, "after 'returns'");
      P.Returns = parseParamList("in returns list");
      expect(TokKind::RParen, "after returns list");
    }
    expect(TokKind::LBrace, "to begin procedure body");
    while (at(TokKind::KwVar) && !Failed) {
      take();
      SrcLoc Loc = cur().Loc;
      Symbol Name = expectIdent("in local declaration");
      expect(TokKind::Colon, "after local name");
      const Type *Ty = parseType();
      expect(TokKind::Semi, "after local declaration");
      P.Locals.push_back({Name, Ty, Loc});
    }
    P.Body = parseBlockBody();
    expect(TokKind::RBrace, "to end procedure body");
    Prog.Procedures.push_back(std::move(P));
  }

  std::vector<const Stmt *> parseBracedBlock() {
    expect(TokKind::LBrace, "to begin block");
    std::vector<const Stmt *> Body = parseBlockBody();
    expect(TokKind::RBrace, "to end block");
    return Body;
  }

  std::vector<const Stmt *> parseBlockBody() {
    std::vector<const Stmt *> Body;
    while (!at(TokKind::RBrace) && !at(TokKind::Eof) && !Failed)
      if (const Stmt *S = parseStmt())
        Body.push_back(S);
    return Body;
  }

  const Stmt *parseStmt() {
    SrcLoc Loc = cur().Loc;
    NestingLevel Level(*this);
    if (!Level.ok())
      return nullptr;
    switch (cur().Kind) {
    case TokKind::KwHavoc: {
      take();
      std::vector<Symbol> Vars;
      do {
        Vars.push_back(expectIdent("in havoc"));
      } while (accept(TokKind::Comma) && !Failed);
      expect(TokKind::Semi, "after havoc");
      return Ctx.havoc(std::move(Vars), Loc);
    }
    case TokKind::KwAssume: {
      take();
      const Expr *Cond = parseExpr();
      expect(TokKind::Semi, "after assume");
      return Ctx.assume(Cond, Loc);
    }
    case TokKind::KwAssert: {
      take();
      const Expr *Cond = parseExpr();
      expect(TokKind::Semi, "after assert");
      return Ctx.assertStmt(Cond, Loc);
    }
    case TokKind::KwReturn:
      take();
      expect(TokKind::Semi, "after return");
      return Ctx.returnStmt(Loc);
    case TokKind::KwCall:
      return parseCall(Loc);
    case TokKind::KwIf:
      return parseIf(Loc);
    case TokKind::KwWhile: {
      take();
      expect(TokKind::LParen, "after 'while'");
      const Expr *Guard = parseGuard();
      expect(TokKind::RParen, "after loop guard");
      std::vector<const Stmt *> Body = parseBracedBlock();
      return Ctx.whileStmt(Guard, std::move(Body), Loc);
    }
    case TokKind::Ident:
      return parseAssign(Loc);
    default:
      error("expected a statement");
      take(); // make progress
      return nullptr;
    }
  }

  /// `(expr)` or `(*)`; null guard encodes nondeterministic choice.
  const Expr *parseGuard() {
    if (accept(TokKind::Star))
      return nullptr;
    return parseExpr();
  }

  const Stmt *parseIf(SrcLoc Loc) {
    expect(TokKind::KwIf, "to begin branch");
    expect(TokKind::LParen, "after 'if'");
    const Expr *Guard = parseGuard();
    expect(TokKind::RParen, "after branch guard");
    std::vector<const Stmt *> Then = parseBracedBlock();
    std::vector<const Stmt *> Else;
    if (accept(TokKind::KwElse)) {
      if (at(TokKind::KwIf)) {
        // `else if` chains: nest the trailing if as a one-statement block.
        if (const Stmt *Nested = parseStmt())
          Else.push_back(Nested);
      } else {
        Else = parseBracedBlock();
      }
    }
    return Ctx.ifStmt(Guard, std::move(Then), std::move(Else), Loc);
  }

  const Stmt *parseCall(SrcLoc Loc) {
    expect(TokKind::KwCall, "to begin call");
    std::vector<Symbol> Lhs;
    // Disambiguate `call p(..)` from `call a, b := p(..)` / `call a := p(..)`.
    size_t Save = Pos;
    if (at(TokKind::Ident)) {
      Lhs.push_back(Ctx.sym(take().Text));
      while (accept(TokKind::Comma))
        Lhs.push_back(expectIdent("in call lhs"));
      if (!accept(TokKind::Assign)) {
        Pos = Save; // it was the callee, not an lhs list
        Lhs.clear();
      }
    }
    Symbol Callee = expectIdent("as call target");
    expect(TokKind::LParen, "after callee");
    std::vector<const Expr *> Args;
    if (!at(TokKind::RParen)) {
      do {
        Args.push_back(parseExpr());
      } while (accept(TokKind::Comma) && !Failed);
    }
    expect(TokKind::RParen, "after call arguments");
    expect(TokKind::Semi, "after call");
    return Ctx.call(Callee, std::move(Args), std::move(Lhs), Loc);
  }

  const Stmt *parseAssign(SrcLoc Loc) {
    Symbol Target = expectIdent("as assignment target");
    if (accept(TokKind::LBracket)) {
      // Sugar: a[i] := v  desugars to  a := a[i := v].
      const Expr *Index = parseExpr();
      expect(TokKind::RBracket, "after array index");
      expect(TokKind::Assign, "in array assignment");
      const Expr *Value = parseExpr();
      expect(TokKind::Semi, "after assignment");
      const Expr *Arr = Ctx.varRef(Target, Loc);
      return Ctx.assign(Target, Ctx.store(Arr, Index, Value, Loc), Loc);
    }
    expect(TokKind::Assign, "in assignment");
    const Expr *Value = parseExpr();
    expect(TokKind::Semi, "after assignment");
    return Ctx.assign(Target, Value, Loc);
  }

  //===--------------------------------------------------------------------===//
  // Expressions (precedence climbing)
  //===--------------------------------------------------------------------===//

  const Expr *parseExpr() {
    NestingLevel Level(*this);
    if (!Level.ok())
      return Ctx.intLit(0, cur().Loc);
    return parseIffExpr();
  }

  /// Parses `Operand (Op Operand)*` for the left-associative operators
  /// \p Match maps tokens to. The fold makes the tree one level deeper per
  /// operator than its deeper operand, and no recursion sees that depth, so
  /// it is counted against MaxNesting here: Peak measures each operand's
  /// depth, and a tree past the limit is a diagnostic at its operator.
  template <typename MatchFn>
  const Expr *parseLeftChain(const Expr *(ParserImpl::*Operand)(),
                             MatchFn Match) {
    unsigned Base = Nesting, Outer = Peak;
    Peak = Base;
    const Expr *L = (this->*Operand)();
    unsigned Depth = Peak - Base;
    while (std::optional<BinOp> Op = Match(cur().Kind)) {
      SrcLoc Loc = take().Loc;
      Peak = Base;
      const Expr *R = (this->*Operand)();
      Depth = 1 + std::max(Depth, Peak - Base);
      if (Base + Depth > MaxNesting) {
        tooDeep(Loc);
        break;
      }
      L = Ctx.binary(*Op, L, R, Loc);
    }
    Peak = std::max(Outer, Base + Depth);
    return L;
  }

  const Expr *parseIffExpr() {
    return parseLeftChain(&ParserImpl::parseImpliesExpr,
                          [](TokKind K) -> std::optional<BinOp> {
                            if (K == TokKind::Iff)
                              return BinOp::Iff;
                            return std::nullopt;
                          });
  }

  const Expr *parseImpliesExpr() {
    unsigned Base = Nesting, Outer = Peak;
    Peak = Base;
    const Expr *L = parseOrExpr();
    unsigned Depth = Peak - Base;
    if (at(TokKind::Implies)) {
      SrcLoc Loc = take().Loc;
      NestingLevel Level(*this);
      if (Level.ok()) {
        // Right associative; the right operand is measured from Base + 1.
        const Expr *R = parseImpliesExpr();
        Depth = 1 + std::max(Depth, Peak - Base - 1);
        if (Base + Depth > MaxNesting)
          tooDeep(Loc);
        else
          L = Ctx.binary(BinOp::Implies, L, R, Loc);
      }
    }
    Peak = std::max(Outer, Base + Depth);
    return L;
  }

  const Expr *parseOrExpr() {
    return parseLeftChain(&ParserImpl::parseAndExpr,
                          [](TokKind K) -> std::optional<BinOp> {
                            if (K == TokKind::PipePipe)
                              return BinOp::Or;
                            return std::nullopt;
                          });
  }

  const Expr *parseAndExpr() {
    return parseLeftChain(&ParserImpl::parseCmpExpr,
                          [](TokKind K) -> std::optional<BinOp> {
                            if (K == TokKind::AmpAmp)
                              return BinOp::And;
                            return std::nullopt;
                          });
  }

  const Expr *parseCmpExpr() {
    return parseLeftChain(&ParserImpl::parseAddExpr,
                          [](TokKind K) -> std::optional<BinOp> {
                            switch (K) {
                            case TokKind::EqEq:
                              return BinOp::Eq;
                            case TokKind::NotEq:
                              return BinOp::Ne;
                            case TokKind::Lt:
                              return BinOp::Lt;
                            case TokKind::Le:
                              return BinOp::Le;
                            case TokKind::Gt:
                              return BinOp::Gt;
                            case TokKind::Ge:
                              return BinOp::Ge;
                            default:
                              return std::nullopt;
                            }
                          });
  }

  const Expr *parseAddExpr() {
    return parseLeftChain(&ParserImpl::parseMulExpr,
                          [](TokKind K) -> std::optional<BinOp> {
                            if (K == TokKind::Plus)
                              return BinOp::Add;
                            if (K == TokKind::Minus)
                              return BinOp::Sub;
                            return std::nullopt;
                          });
  }

  const Expr *parseMulExpr() {
    return parseLeftChain(&ParserImpl::parseUnaryExpr,
                          [](TokKind K) -> std::optional<BinOp> {
                            if (K == TokKind::Star)
                              return BinOp::Mul;
                            if (K == TokKind::KwDiv)
                              return BinOp::Div;
                            if (K == TokKind::KwMod)
                              return BinOp::Mod;
                            return std::nullopt;
                          });
  }

  const Expr *parseUnaryExpr() {
    if (!at(TokKind::Bang) && !at(TokKind::Minus))
      return parsePostfixExpr();
    NestingLevel Level(*this);
    if (!Level.ok())
      return Ctx.intLit(0, cur().Loc);
    if (at(TokKind::Bang)) {
      SrcLoc Loc = take().Loc;
      return Ctx.unary(UnOp::Not, parseUnaryExpr(), Loc);
    }
    SrcLoc Loc = take().Loc;
    const Expr *Sub = parseUnaryExpr();
    // Fold negated literals so `(-1)` parses to the literal -1 and the
    // printer/parser round-trip is a fixpoint. Bitvector literals keep
    // their explicit negation (two's-complement semantics).
    if (Sub->kind() == ExprKind::IntLit &&
        (!Sub->type() || !Sub->type()->isBv()))
      return Ctx.intLit(-Sub->intValue(), Loc);
    return Ctx.unary(UnOp::Neg, Sub, Loc);
  }

  const Expr *parsePostfixExpr() {
    // A chain of subscripts folds left like a binary operator chain (see
    // parseLeftChain), so its depth is counted the same way.
    unsigned Base = Nesting, Outer = Peak;
    Peak = Base;
    const Expr *E = parsePrimaryExpr();
    unsigned Depth = Peak - Base;
    while (at(TokKind::LBracket) && !Failed) {
      SrcLoc Loc = take().Loc;
      Peak = Base;
      const Expr *Index = parseExpr();
      const Expr *Value = accept(TokKind::Assign) ? parseExpr() : nullptr;
      expect(TokKind::RBracket,
             Value ? "after array store" : "after array index");
      Depth = 1 + std::max(Depth, Peak - Base);
      if (Base + Depth > MaxNesting) {
        tooDeep(Loc);
        break;
      }
      E = Value ? Ctx.store(E, Index, Value, Loc) : Ctx.select(E, Index, Loc);
    }
    Peak = std::max(Outer, Base + Depth);
    return E;
  }

  const Expr *parsePrimaryExpr() {
    SrcLoc Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::IntLit: {
      int64_t V = take().IntValue;
      return Ctx.intLit(V, Loc);
    }
    case TokKind::BvLit: {
      const Token &T = take();
      // Bitvector literals are typed at parse time (the width is part of
      // the token).
      return Ctx.tBv(static_cast<uint64_t>(T.IntValue), T.BvWidth);
    }
    case TokKind::KwTrue:
      take();
      return Ctx.boolLit(true, Loc);
    case TokKind::KwFalse:
      take();
      return Ctx.boolLit(false, Loc);
    case TokKind::Ident:
      return Ctx.varRef(Ctx.sym(take().Text), Loc);
    case TokKind::LParen: {
      take();
      // Conditional expressions print as `(if c then a else b)`.
      if (at(TokKind::KwIf)) {
        take();
        const Expr *C = parseExpr();
        expect(TokKind::KwThen, "in conditional expression");
        const Expr *T = parseExpr();
        expect(TokKind::KwElse, "in conditional expression");
        const Expr *F = parseExpr();
        expect(TokKind::RParen, "after conditional expression");
        return Ctx.ite(C, T, F, Loc);
      }
      const Expr *E = parseExpr();
      expect(TokKind::RParen, "after parenthesized expression");
      return E;
    }
    default:
      error("expected an expression");
      take();
      return Ctx.intLit(0, Loc);
    }
  }

  /// Deepest statement or expression nesting accepted. Programs nest far
  /// less; the recursive parser and the passes after it fit this depth in
  /// a default-size stack, also in sanitizer builds.
  static constexpr unsigned MaxNesting = 1000;

  std::vector<Token> Tokens;
  AstContext &Ctx;
  DiagEngine &Diags;
  size_t Pos = 0;
  bool Failed = false;
  /// Levels of statement and expression nesting held by the parse stack.
  unsigned Nesting = 0;
  /// Deepest level reached below the current operand's start: a parse
  /// function resets it to its own base to measure the depth of the tree
  /// an operand built (see parseLeftChain).
  unsigned Peak = 0;
};

} // namespace

std::optional<Program> rmt::parseProgram(std::string_view Source,
                                         AstContext &Ctx, DiagEngine &Diags) {
  std::vector<Token> Tokens = lex(Source, Diags);
  if (Diags.hasErrors())
    return std::nullopt;
  return ParserImpl(std::move(Tokens), Ctx, Diags).run();
}

std::optional<Program> rmt::parseAndCheck(std::string_view Source,
                                          AstContext &Ctx, DiagEngine &Diags) {
  std::optional<Program> Prog = parseProgram(Source, Ctx, Diags);
  if (!Prog)
    return std::nullopt;
  if (!typecheck(Ctx, *Prog, Diags))
    return std::nullopt;
  return Prog;
}
