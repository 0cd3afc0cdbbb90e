//===- parser_test.cpp - Unit tests for src/parser --------------------------===//

#include "ast/AstPrinter.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "parser/TypeCheck.h"

#include <gtest/gtest.h>

using namespace rmt;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

namespace {

std::vector<TokKind> kindsOf(const char *Src) {
  DiagEngine Diags;
  std::vector<Token> Toks = lex(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  std::vector<TokKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  return Kinds;
}

} // namespace

TEST(Lexer, Operators) {
  auto K = kindsOf(":= == != <= >= < > && || ==> <==> ! + - *");
  std::vector<TokKind> Expected = {
      TokKind::Assign, TokKind::EqEq,    TokKind::NotEq, TokKind::Le,
      TokKind::Ge,     TokKind::Lt,      TokKind::Gt,    TokKind::AmpAmp,
      TokKind::PipePipe, TokKind::Implies, TokKind::Iff, TokKind::Bang,
      TokKind::Plus,   TokKind::Minus,   TokKind::Star,  TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, KeywordsVsIdentifiers) {
  auto K = kindsOf("if iff while whiles procedure $err a.b v#1");
  std::vector<TokKind> Expected = {
      TokKind::KwIf,  TokKind::Ident, TokKind::KwWhile, TokKind::Ident,
      TokKind::KwProcedure, TokKind::Ident, TokKind::Ident, TokKind::Ident,
      TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, IntLiteralValue) {
  DiagEngine Diags;
  std::vector<Token> Toks = lex("12345", Diags);
  ASSERT_EQ(Toks.size(), 2u);
  EXPECT_EQ(Toks[0].IntValue, 12345);
}

TEST(Lexer, CommentsSkipped) {
  auto K = kindsOf("a // line comment\n /* block\n comment */ b");
  std::vector<TokKind> Expected = {TokKind::Ident, TokKind::Ident,
                                   TokKind::Eof};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, UnterminatedBlockCommentIsError) {
  DiagEngine Diags;
  lex("a /* never closed", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, UnknownCharacterIsError) {
  DiagEngine Diags;
  std::vector<Token> Toks = lex("a ? b", Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Toks[1].Kind, TokKind::Error);
}

TEST(Lexer, TracksLineAndColumn) {
  DiagEngine Diags;
  std::vector<Token> Toks = lex("a\n  b", Diags);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Col, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

std::optional<Program> parseSrc(const char *Src, AstContext &Ctx,
                                bool ExpectOk = true) {
  DiagEngine Diags;
  auto P = parseAndCheck(Src, Ctx, Diags);
  if (ExpectOk)
    EXPECT_TRUE(P) << Diags.str();
  else
    EXPECT_FALSE(P);
  return P;
}

} // namespace

TEST(Parser, EmptyProgram) {
  AstContext Ctx;
  auto P = parseSrc("", Ctx);
  ASSERT_TRUE(P);
  EXPECT_TRUE(P->Globals.empty());
  EXPECT_TRUE(P->Procedures.empty());
}

TEST(Parser, GlobalsAndProcedureShapes) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    var g: int;
    var m: [int][int]bool;
    procedure f(a: int, b: bool) returns (r: int, s: int) {
      var t: int;
      r := a;
      s := a + 1;
    }
    procedure main() { }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Globals.size(), 2u);
  ASSERT_EQ(P->Procedures.size(), 2u);
  const Procedure &F = P->Procedures[0];
  EXPECT_EQ(F.Params.size(), 2u);
  EXPECT_EQ(F.Returns.size(), 2u);
  EXPECT_EQ(F.Locals.size(), 1u);
  EXPECT_EQ(F.Body.size(), 2u);
}

TEST(Parser, CallForms) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    procedure noret(a: int) { }
    procedure one() returns (r: int) { r := 1; }
    procedure two() returns (r: int, s: int) { r := 1; s := 2; }
    procedure main() {
      var x: int;
      var y: int;
      call noret(3);
      call x := one();
      call x, y := two();
    }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  const Procedure *Main = P->findProc(Ctx.sym("main"));
  ASSERT_TRUE(Main);
  ASSERT_EQ(Main->Body.size(), 3u);
  EXPECT_EQ(Main->Body[0]->callLhs().size(), 0u);
  EXPECT_EQ(Main->Body[1]->callLhs().size(), 1u);
  EXPECT_EQ(Main->Body[2]->callLhs().size(), 2u);
}

TEST(Parser, ElseIfChains) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    procedure main() {
      var x: int;
      if (x == 0) { x := 1; }
      else if (x == 1) { x := 2; }
      else { x := 3; }
    }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  const Stmt *If = P->Procedures[0].Body[0];
  ASSERT_EQ(If->kind(), StmtKind::If);
  ASSERT_EQ(If->elseBlock().size(), 1u);
  EXPECT_EQ(If->elseBlock()[0]->kind(), StmtKind::If);
}

TEST(Parser, NondetGuards) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    procedure main() {
      var x: int;
      if (*) { x := 1; }
      while (*) { x := x + 1; }
    }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Procedures[0].Body[0]->guard(), nullptr);
  EXPECT_EQ(P->Procedures[0].Body[1]->guard(), nullptr);
}

TEST(Parser, ArrayAssignmentSugar) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    var a: [int]int;
    procedure main() { a[1] := 2; }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  const Stmt *S = P->Procedures[0].Body[0];
  ASSERT_EQ(S->kind(), StmtKind::Assign);
  EXPECT_EQ(S->assignValue()->kind(), ExprKind::Store);
}

TEST(Parser, PrecedenceImpliesRightAssociative) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    procedure main() {
      var a: bool; var b: bool; var c: bool;
      assume a ==> b ==> c;
    }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  const Expr *E = P->Procedures[0].Body[0]->condition();
  ASSERT_EQ(E->binOp(), BinOp::Implies);
  // Right-assoc: a ==> (b ==> c).
  EXPECT_EQ(E->op0()->kind(), ExprKind::Var);
  EXPECT_EQ(E->op1()->binOp(), BinOp::Implies);
}

TEST(Parser, PrecedenceArithBindsTighterThanCmp) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    procedure main() {
      var x: int;
      assume x + 1 * 2 < 3 - x;
    }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  const Expr *E = P->Procedures[0].Body[0]->condition();
  EXPECT_EQ(E->binOp(), BinOp::Lt);
  EXPECT_EQ(E->op0()->binOp(), BinOp::Add);
  EXPECT_EQ(E->op0()->op1()->binOp(), BinOp::Mul);
}

TEST(Parser, ConditionalExpression) {
  AstContext Ctx;
  auto P = parseSrc(R"(
    procedure main() {
      var x: int;
      x := (if x > 0 then x else -x);
      assert x >= 0;
    }
  )",
                    Ctx);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Procedures[0].Body[0]->assignValue()->kind(), ExprKind::Ite);
}

TEST(Parser, SyntaxErrorsReported) {
  for (const char *Bad : {
           "procedure main() { x := ; }",
           "procedure main() { if x { } }",
           "var g int;",
           "procedure main( { }",
           "procedure main() { call ; }",
           "junk",
       }) {
    AstContext Ctx;
    DiagEngine Diags;
    EXPECT_FALSE(parseProgram(Bad, Ctx, Diags)) << Bad;
    EXPECT_TRUE(Diags.hasErrors()) << Bad;
  }
}

namespace {

/// Parses \p Src; returns the diagnostics, empty when it parsed.
std::string parseDiags(const std::string &Src) {
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> P = parseProgram(Src, Ctx, Diags);
  EXPECT_EQ(P.has_value(), !Diags.hasErrors());
  return Diags.str();
}

std::string nestedParens(unsigned Depth) {
  return "procedure main() { var x: int; x := " + std::string(Depth, '(') +
         "1" + std::string(Depth, ')') + "; }";
}

std::string nestedIfs(unsigned Depth) {
  std::string Src = "procedure main() { var x: int;\n";
  for (unsigned I = 0; I < Depth; ++I)
    Src += "if (x > 0) {\n";
  Src += "x := 1;\n";
  for (unsigned I = 0; I < Depth; ++I)
    Src += "}\n";
  return Src + "}";
}

/// `x := 1 Op 1 Op ... Op 1;` with \p Terms operands: no nesting at all, but
/// the left fold builds a tree as deep as the chain is long.
std::string operatorChain(const std::string &Decl, const std::string &Op,
                          const std::string &Term, unsigned Terms) {
  std::string Src = "procedure main() { var x: " + Decl + "; x := " + Term;
  for (unsigned I = 1; I < Terms; ++I)
    Src += " " + Op + " " + Term;
  return Src + "; }";
}

/// Diagnostics of parsing and type-checking \p Src; empty when it checked.
std::string checkDiags(const std::string &Src) {
  AstContext Ctx;
  DiagEngine Diags;
  std::optional<Program> P = parseAndCheck(Src, Ctx, Diags);
  EXPECT_EQ(P.has_value(), !Diags.hasErrors());
  return Diags.str();
}

void expectChainLimit(const std::string &Decl, const std::string &Op,
                      const std::string &Term) {
  SCOPED_TRACE(Op);
  // Under the limit the chain parses and type-checks (the checker recurses
  // once per level).
  EXPECT_EQ(checkDiags(operatorChain(Decl, Op, Term, 900)), "");
  // Past it the parser stops at the operator that makes the tree too deep,
  // with a line:col diagnostic, however long the rest of the chain is.
  std::string Diags = checkDiags(operatorChain(Decl, Op, Term, 200000));
  EXPECT_EQ(Diags.rfind("1:", 0), 0u) << Diags.substr(0, 200);
  EXPECT_NE(Diags.find(": error: nesting deeper than"), std::string::npos)
      << Diags.substr(0, 200);
}

} // namespace

// Nesting past the parser's fixed limit is a diagnostic, not a stack
// overflow.
TEST(Parser, DeeplyNestedParenthesesAreAnError) {
  EXPECT_EQ(parseDiags(nestedParens(500)), "");
  std::string Diags = parseDiags(nestedParens(200000));
  EXPECT_EQ(Diags.rfind("1:", 0), 0u) << Diags;
  EXPECT_NE(Diags.find(": error: nesting deeper than"), std::string::npos)
      << Diags;
}

// A long left-associative operator chain counts one level per operator.
TEST(Parser, LongPlusChainIsAnError) { expectChainLimit("int", "+", "1"); }

TEST(Parser, LongAndChainIsAnError) {
  expectChainLimit("bool", "&&", "true");
}

TEST(Parser, LongOrChainIsAnError) { expectChainLimit("bool", "||", "false"); }

TEST(Parser, ChainDepthAddsUpAcrossOperatorsAndParentheses) {
  // Levels count once, wherever they come from: 600 parentheses around a
  // 600-term chain are past the limit though each alone is under it, and a
  // chain of subscripts folds like an operator chain.
  std::string Parens = "procedure main() { var x: int; x := " +
                       std::string(600, '(') + "1";
  for (unsigned I = 1; I < 600; ++I)
    Parens += " + 1";
  Parens += std::string(600, ')') + "; }";
  EXPECT_NE(checkDiags(Parens).find(": error: nesting deeper than"),
            std::string::npos);

  std::string Sum = "(1";
  for (unsigned I = 1; I < 600; ++I)
    Sum += " + 1";
  Sum += ")";
  EXPECT_NE(checkDiags(operatorChain("int", "+", Sum, 600))
                .find(": error: nesting deeper than"),
            std::string::npos);
  EXPECT_EQ(checkDiags(operatorChain("int", "+", Sum, 300)), "");

  std::string Subscripts =
      "var a: [int]int; procedure main() { var x: int; x := a";
  for (unsigned I = 0; I < 5000; ++I)
    Subscripts += "[0 := 1]";
  Subscripts += "[0]; }";
  EXPECT_NE(checkDiags(Subscripts).find(": error: nesting deeper than"),
            std::string::npos);
}

TEST(Parser, DeeplyNestedIfsAreAnError) {
  EXPECT_EQ(parseDiags(nestedIfs(500)), "");
  std::string Diags = parseDiags(nestedIfs(20000));
  EXPECT_NE(Diags.find(": error: nesting deeper than"), std::string::npos)
      << Diags;
}

//===----------------------------------------------------------------------===//
// Type checker
//===----------------------------------------------------------------------===//

namespace {

void expectTypeError(const char *Src, const char *NeedleInMessage) {
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseProgram(Src, Ctx, Diags);
  ASSERT_TRUE(P) << "should parse: " << Diags.str();
  EXPECT_FALSE(typecheck(Ctx, *P, Diags)) << Src;
  EXPECT_NE(Diags.str().find(NeedleInMessage), std::string::npos)
      << "diagnostics were:\n"
      << Diags.str();
}

} // namespace

TEST(TypeCheck, UndeclaredVariable) {
  expectTypeError("procedure main() { x := 1; }", "undeclared");
}

TEST(TypeCheck, AssignMismatch) {
  expectTypeError(
      "procedure main() { var b: bool; b := 1; }", "mismatch");
}

TEST(TypeCheck, AssumeNeedsBool) {
  expectTypeError("procedure main() { assume 1; }", "must be bool");
}

TEST(TypeCheck, ArithNeedsInts) {
  expectTypeError(
      "procedure main() { var b: bool; var x: int; x := b + 1; }",
      "needs int or equal-width bitvector operands");
}

TEST(TypeCheck, EqNeedsSameTypes) {
  expectTypeError(
      "procedure main() { var b: bool; assume b == 1; }",
      "same type");
}

TEST(TypeCheck, CallUnknownProcedure) {
  expectTypeError("procedure main() { call nothere(); }", "undefined");
}

TEST(TypeCheck, CallArityMismatch) {
  expectTypeError(
      "procedure f(a: int) { } procedure main() { call f(); }",
      "takes 1");
}

TEST(TypeCheck, CallArgTypeMismatch) {
  expectTypeError(
      "procedure f(a: int) { } procedure main() { var b: bool; call f(b); }",
      "parameter");
}

TEST(TypeCheck, CallResultArity) {
  expectTypeError(
      "procedure f() returns (r: int) { r := 0; } "
      "procedure main() { call f(); }",
      "binds 0");
}

TEST(TypeCheck, CallDuplicateLhs) {
  expectTypeError(
      "procedure f() returns (r: int, s: int) { r := 0; s := 0; } "
      "procedure main() { var x: int; call x, x := f(); }",
      "bound twice");
}

TEST(TypeCheck, DuplicateGlobal) {
  expectTypeError("var g: int; var g: bool;", "duplicate global");
}

TEST(TypeCheck, DuplicateProcedure) {
  expectTypeError("procedure f() { } procedure f() { }",
                  "duplicate procedure");
}

TEST(TypeCheck, DuplicateLocal) {
  expectTypeError("procedure f(a: int) { var a: int; }", "duplicate");
}

TEST(TypeCheck, IndexTypeMismatch) {
  expectTypeError(
      "var a: [int]int; procedure main() { var b: bool; assume a[b] == 0; }",
      "index");
}

TEST(TypeCheck, LocalShadowsGlobalAllowed) {
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(
      "var g: int; procedure main() { var g: bool; g := true; }", Ctx,
      Diags);
  EXPECT_TRUE(P) << Diags.str();
}

TEST(TypeCheck, AnnotatesExpressionTypes) {
  AstContext Ctx;
  DiagEngine Diags;
  auto P = parseAndCheck(
      "procedure main() { var x: int; assume x + 1 > 0; }", Ctx, Diags);
  ASSERT_TRUE(P);
  const Expr *Cond = P->Procedures[0].Body[0]->condition();
  EXPECT_EQ(Cond->type(), Ctx.boolType());
  EXPECT_EQ(Cond->op0()->type(), Ctx.intType());
}
