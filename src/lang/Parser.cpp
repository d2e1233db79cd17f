//===- lang/Parser.cpp - Kernel-language lexer + parser -------------------===//

#include "lang/Parser.h"

#include <cctype>
#include <cstdlib>

using namespace bsched;
using namespace bsched::lang;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

namespace {

enum class Tok : uint8_t {
  End, Ident, IntNum, FpNum,
  LParen, RParen, LBrack, RBrack, LBrace, RBrace,
  Semi, Comma,
  Assign, PlusAssign,
  Plus, Minus, Star, Slash,
  Lt, Le, Gt, Ge, EqEq, Ne, AndAnd, OrOr, Bang,
};

struct Lexer {
  const std::string &Src;
  size_t Pos = 0;
  int Line = 1;

  Tok Kind = Tok::End;
  std::string Ident;
  int64_t IntVal = 0;
  double FpVal = 0.0;
  std::string Error;

  explicit Lexer(const std::string &Src) : Src(Src) { next(); }

  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = "line " + std::to_string(Line) + ": " + Msg;
    Kind = Tok::End;
  }

  void next() {
    if (!Error.empty())
      return;
    // Skip whitespace and '#' line comments.
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
    if (Pos >= Src.size()) {
      Kind = Tok::End;
      return;
    }
    char C = Src[Pos];
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[Pos])) ||
              Src[Pos] == '_'))
        ++Pos;
      Kind = Tok::Ident;
      Ident = Src.substr(Start, Pos - Start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             std::isdigit(static_cast<unsigned char>(Src[Pos])))
        ++Pos;
      bool IsFp = false;
      if (Pos < Src.size() && Src[Pos] == '.') {
        IsFp = true;
        ++Pos;
        while (Pos < Src.size() &&
               std::isdigit(static_cast<unsigned char>(Src[Pos])))
          ++Pos;
      }
      if (Pos < Src.size() && (Src[Pos] == 'e' || Src[Pos] == 'E')) {
        IsFp = true;
        ++Pos;
        if (Pos < Src.size() && (Src[Pos] == '+' || Src[Pos] == '-'))
          ++Pos;
        while (Pos < Src.size() &&
               std::isdigit(static_cast<unsigned char>(Src[Pos])))
          ++Pos;
      }
      std::string Text = Src.substr(Start, Pos - Start);
      if (IsFp) {
        Kind = Tok::FpNum;
        FpVal = std::strtod(Text.c_str(), nullptr);
      } else {
        Kind = Tok::IntNum;
        IntVal = std::strtoll(Text.c_str(), nullptr, 10);
      }
      return;
    }
    auto Two = [&](char A, char B) {
      return C == A && Pos + 1 < Src.size() && Src[Pos + 1] == B;
    };
    if (Two('+', '=')) { Kind = Tok::PlusAssign; Pos += 2; return; }
    if (Two('<', '=')) { Kind = Tok::Le; Pos += 2; return; }
    if (Two('>', '=')) { Kind = Tok::Ge; Pos += 2; return; }
    if (Two('=', '=')) { Kind = Tok::EqEq; Pos += 2; return; }
    if (Two('!', '=')) { Kind = Tok::Ne; Pos += 2; return; }
    if (Two('&', '&')) { Kind = Tok::AndAnd; Pos += 2; return; }
    if (Two('|', '|')) { Kind = Tok::OrOr; Pos += 2; return; }
    ++Pos;
    switch (C) {
    case '(': Kind = Tok::LParen; return;
    case ')': Kind = Tok::RParen; return;
    case '[': Kind = Tok::LBrack; return;
    case ']': Kind = Tok::RBrack; return;
    case '{': Kind = Tok::LBrace; return;
    case '}': Kind = Tok::RBrace; return;
    case ';': Kind = Tok::Semi; return;
    case ',': Kind = Tok::Comma; return;
    case '=': Kind = Tok::Assign; return;
    case '+': Kind = Tok::Plus; return;
    case '-': Kind = Tok::Minus; return;
    case '*': Kind = Tok::Star; return;
    case '/': Kind = Tok::Slash; return;
    case '<': Kind = Tok::Lt; return;
    case '>': Kind = Tok::Gt; return;
    case '!': Kind = Tok::Bang; return;
    default:
      fail(std::string("unexpected character '") + C + "'");
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

class Parser {
public:
  Parser(const std::string &Src, const std::string &Name) : L(Src) {
    P.Name = Name;
  }

  ParseResult run() {
    parseDecls();
    while (ok() && L.Kind != Tok::End)
      if (StmtPtr S = parseStmt())
        P.Body.push_back(std::move(S));
    ParseResult R;
    R.Error = L.Error;
    if (R.ok())
      R.Prog = std::move(P);
    return R;
  }

private:
  Lexer L;
  Program P;

  bool ok() const { return L.Error.empty(); }
  void fail(const std::string &Msg) { L.fail(Msg); }

  bool accept(Tok K) {
    if (L.Kind != K)
      return false;
    L.next();
    return true;
  }
  void expect(Tok K, const char *What) {
    if (!accept(K))
      fail(std::string("expected ") + What);
  }
  bool acceptIdent(const char *Word) {
    if (L.Kind != Tok::Ident || L.Ident != Word)
      return false;
    L.next();
    return true;
  }
  std::string expectIdent(const char *What) {
    if (L.Kind != Tok::Ident) {
      fail(std::string("expected ") + What);
      return "";
    }
    std::string S = L.Ident;
    L.next();
    return S;
  }

  void parseDecls() {
    while (ok()) {
      if (acceptIdent("array"))
        parseArrayDecl();
      else if (acceptIdent("var"))
        parseVarDecl();
      else
        return;
    }
  }

  void parseArrayDecl() {
    ArrayDecl A;
    A.Name = expectIdent("array name");
    while (ok() && accept(Tok::LBrack)) {
      if (L.Kind != Tok::IntNum) {
        fail("array dimensions must be integer literals");
        return;
      }
      if (L.IntVal <= 0) {
        fail("array dimensions must be positive");
        return;
      }
      A.Dims.push_back(L.IntVal);
      L.next();
      expect(Tok::RBrack, "']'");
    }
    if (A.Dims.empty()) {
      fail("array needs at least one dimension");
      return;
    }
    while (ok() && L.Kind == Tok::Ident) {
      if (acceptIdent("int"))
        A.ElemTy = Type::Int;
      else if (acceptIdent("colmajor"))
        A.RowMajor = false;
      else if (acceptIdent("output"))
        A.IsOutput = true;
      else {
        fail("unknown array attribute '" + L.Ident + "'");
        return;
      }
    }
    expect(Tok::Semi, "';'");
    P.Arrays.push_back(std::move(A));
  }

  void parseVarDecl() {
    VarDecl V;
    V.Name = expectIdent("variable name");
    if (acceptIdent("int"))
      V.Ty = Type::Int;
    expect(Tok::Assign, "'=' (initializer)");
    bool Neg = accept(Tok::Minus);
    if (V.Ty == Type::Int) {
      if (L.Kind != Tok::IntNum) {
        fail("int variable needs an integer initializer");
        return;
      }
      V.IntInit = Neg ? -L.IntVal : L.IntVal;
      L.next();
    } else {
      if (L.Kind == Tok::FpNum)
        V.FpInit = L.FpVal;
      else if (L.Kind == Tok::IntNum)
        V.FpInit = static_cast<double>(L.IntVal);
      else {
        fail("fp variable needs a numeric initializer");
        return;
      }
      if (Neg)
        V.FpInit = -V.FpInit;
      L.next();
    }
    expect(Tok::Semi, "';'");
    P.Vars.push_back(std::move(V));
  }

  StmtList parseBlock() {
    StmtList Body;
    expect(Tok::LBrace, "'{'");
    while (ok() && L.Kind != Tok::RBrace && L.Kind != Tok::End)
      if (StmtPtr S = parseStmt())
        Body.push_back(std::move(S));
    expect(Tok::RBrace, "'}'");
    return Body;
  }

  StmtPtr parseStmt() {
    if (acceptIdent("for"))
      return parseFor();
    if (acceptIdent("if"))
      return parseIf();
    return parseAssign();
  }

  StmtPtr parseFor() {
    expect(Tok::LParen, "'('");
    std::string Var = expectIdent("loop variable");
    expect(Tok::Assign, "'='");
    ExprPtr Lo = parseExpr();
    expect(Tok::Semi, "';'");
    std::string Var2 = expectIdent("loop variable");
    if (ok() && Var2 != Var)
      fail("loop condition must test the loop variable");
    expect(Tok::Lt, "'<'");
    ExprPtr Hi = parseExpr();
    expect(Tok::Semi, "';'");
    std::string Var3 = expectIdent("loop variable");
    if (ok() && Var3 != Var)
      fail("loop increment must update the loop variable");
    expect(Tok::PlusAssign, "'+='");
    if (ok() && L.Kind != Tok::IntNum) {
      fail("loop step must be an integer literal");
      return nullptr;
    }
    int64_t Step = L.IntVal;
    if (ok())
      L.next();
    if (ok() && Step <= 0) {
      fail("loop step must be positive");
      return nullptr;
    }
    expect(Tok::RParen, "')'");
    StmtList Body = parseBlock();
    if (!ok())
      return nullptr;
    return forLoop(std::move(Var), std::move(Lo), std::move(Hi), Step,
                   std::move(Body));
  }

  StmtPtr parseIf() {
    expect(Tok::LParen, "'('");
    ExprPtr Cond = parseExpr();
    expect(Tok::RParen, "')'");
    StmtList Then = parseBlock();
    StmtList Else;
    if (acceptIdent("else")) {
      if (acceptIdent("if")) {
        // else-if chain: wrap the nested if as the sole else statement.
        if (StmtPtr Nested = parseIf())
          Else.push_back(std::move(Nested));
      } else {
        Else = parseBlock();
      }
    }
    if (!ok())
      return nullptr;
    return ifStmt(std::move(Cond), std::move(Then), std::move(Else));
  }

  StmtPtr parseAssign() {
    std::string Name = expectIdent("statement");
    if (!ok())
      return nullptr;
    ExprPtr Lhs;
    if (L.Kind == Tok::LBrack) {
      std::vector<ExprPtr> Idx;
      while (accept(Tok::LBrack)) {
        Idx.push_back(parseExpr());
        expect(Tok::RBrack, "']'");
      }
      Lhs = arrayRef(std::move(Name), std::move(Idx));
    } else {
      Lhs = varRef(std::move(Name));
    }
    bool Plus = false;
    if (accept(Tok::PlusAssign))
      Plus = true;
    else
      expect(Tok::Assign, "'=' or '+='");
    ExprPtr Rhs = parseExpr();
    expect(Tok::Semi, "';'");
    if (!ok())
      return nullptr;
    if (Plus)
      Rhs = binary(BinOp::Add, Lhs->clone(), std::move(Rhs));
    return assign(std::move(Lhs), std::move(Rhs));
  }

  // Precedence: Or < And < Cmp < Add < Mul < Unary < Primary.
  ExprPtr parseExpr() { return parseOr(); }

  ExprPtr parseOr() {
    ExprPtr E = parseAnd();
    while (ok() && accept(Tok::OrOr))
      E = binary(BinOp::Or, std::move(E), parseAnd());
    return E;
  }

  ExprPtr parseAnd() {
    ExprPtr E = parseCmp();
    while (ok() && accept(Tok::AndAnd))
      E = binary(BinOp::And, std::move(E), parseCmp());
    return E;
  }

  ExprPtr parseCmp() {
    ExprPtr E = parseAdd();
    while (ok()) {
      BinOp Op;
      if (accept(Tok::Lt)) Op = BinOp::Lt;
      else if (accept(Tok::Le)) Op = BinOp::Le;
      else if (accept(Tok::Gt)) Op = BinOp::Gt;
      else if (accept(Tok::Ge)) Op = BinOp::Ge;
      else if (accept(Tok::EqEq)) Op = BinOp::Eq;
      else if (accept(Tok::Ne)) Op = BinOp::Ne;
      else break;
      E = binary(Op, std::move(E), parseAdd());
    }
    return E;
  }

  ExprPtr parseAdd() {
    ExprPtr E = parseMul();
    while (ok()) {
      if (accept(Tok::Plus))
        E = binary(BinOp::Add, std::move(E), parseMul());
      else if (accept(Tok::Minus))
        E = binary(BinOp::Sub, std::move(E), parseMul());
      else
        break;
    }
    return E;
  }

  ExprPtr parseMul() {
    ExprPtr E = parseUnary();
    while (ok()) {
      if (accept(Tok::Star))
        E = binary(BinOp::Mul, std::move(E), parseUnary());
      else if (accept(Tok::Slash))
        E = binary(BinOp::Div, std::move(E), parseUnary());
      else
        break;
    }
    return E;
  }

  ExprPtr parseUnary() {
    if (accept(Tok::Minus))
      return unary(UnOp::Neg, parseUnary());
    if (accept(Tok::Bang))
      return unary(UnOp::Not, parseUnary());
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    if (accept(Tok::LParen)) {
      ExprPtr E = parseExpr();
      expect(Tok::RParen, "')'");
      return E;
    }
    if (L.Kind == Tok::IntNum) {
      int64_t V = L.IntVal;
      L.next();
      return intLit(V);
    }
    if (L.Kind == Tok::FpNum) {
      double V = L.FpVal;
      L.next();
      return fpLit(V);
    }
    if (L.Kind == Tok::Ident) {
      std::string Name = L.Ident;
      L.next();
      if (L.Kind == Tok::LBrack) {
        std::vector<ExprPtr> Idx;
        while (accept(Tok::LBrack)) {
          Idx.push_back(parseExpr());
          expect(Tok::RBrack, "']'");
        }
        return arrayRef(std::move(Name), std::move(Idx));
      }
      return varRef(std::move(Name));
    }
    fail("expected expression");
    return intLit(0);
  }
};

} // namespace

ParseResult lang::parseProgram(const std::string &Source,
                               const std::string &Name) {
  return Parser(Source, Name).run();
}

//===----------------------------------------------------------------------===//
// Semantic checker
//===----------------------------------------------------------------------===//

namespace {

class Checker {
public:
  explicit Checker(Program &P) : P(P) {}

  std::string run() {
    for (size_t I = 0; I != P.Arrays.size(); ++I)
      for (size_t J = I + 1; J != P.Arrays.size(); ++J)
        if (P.Arrays[I].Name == P.Arrays[J].Name)
          return "duplicate array '" + P.Arrays[I].Name + "'";
    if (std::string E = checkArraySizes(P); !E.empty())
      return E;
    for (const VarDecl &V : P.Vars) {
      if (P.findArray(V.Name))
        return "'" + V.Name + "' declared as both array and var";
      for (const VarDecl &W : P.Vars)
        if (&V != &W && V.Name == W.Name)
          return "duplicate var '" + V.Name + "'";
    }
    for (StmtPtr &S : P.Body) {
      checkStmt(*S);
      if (!Err.empty())
        return Err;
    }
    return Err;
  }

private:
  Program &P;
  std::string Err;
  std::vector<std::string> LoopVars;

  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
  }

  bool isLoopVar(const std::string &N) const {
    for (const std::string &V : LoopVars)
      if (V == N)
        return true;
    return false;
  }

  /// Wraps \p E in an IToF conversion in place.
  static void promote(ExprPtr &E) {
    ExprPtr Conv = unary(UnOp::IToF, std::move(E));
    Conv->Ty = Type::Fp;
    E = std::move(Conv);
  }

  Type checkExpr(Expr &E) {
    switch (E.Kind) {
    case ExprKind::IntLit:
      return E.Ty = Type::Int;
    case ExprKind::FpLit:
      return E.Ty = Type::Fp;
    case ExprKind::VarRef: {
      if (isLoopVar(E.Name))
        return E.Ty = Type::Int;
      if (const VarDecl *V = P.findVar(E.Name))
        return E.Ty = V->Ty;
      fail("unknown variable '" + E.Name + "'");
      return E.Ty = Type::Int;
    }
    case ExprKind::ArrayRef: {
      const ArrayDecl *A = P.findArray(E.Name);
      if (!A) {
        fail("unknown array '" + E.Name + "'");
        return E.Ty = Type::Fp;
      }
      if (E.Args.size() != A->Dims.size()) {
        fail("array '" + E.Name + "' expects " +
             std::to_string(A->Dims.size()) + " subscripts");
        return E.Ty = A->ElemTy;
      }
      for (ExprPtr &Idx : E.Args)
        if (checkExpr(*Idx) != Type::Int)
          fail("array subscript must be an int expression");
      return E.Ty = A->ElemTy;
    }
    case ExprKind::Unary: {
      Type T = checkExpr(*E.Args[0]);
      if (E.UOp == UnOp::IToF) {
        if (T != Type::Int)
          fail("itof on non-int operand");
        return E.Ty = Type::Fp;
      }
      if (E.UOp == UnOp::Not) {
        if (T != Type::Int)
          fail("'!' needs an int operand");
        return E.Ty = Type::Int;
      }
      return E.Ty = T;
    }
    case ExprKind::Binary: {
      Type L = checkExpr(*E.Args[0]);
      Type R = checkExpr(*E.Args[1]);
      switch (E.BOp) {
      case BinOp::And:
      case BinOp::Or:
        if (L != Type::Int || R != Type::Int)
          fail("logical operators need int operands");
        return E.Ty = Type::Int;
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
        if (L != R) {
          if (L == Type::Int)
            promote(E.Args[0]);
          else
            promote(E.Args[1]);
        }
        return E.Ty = Type::Int;
      case BinOp::Div:
        if (L == Type::Int)
          promote(E.Args[0]);
        if (R == Type::Int)
          promote(E.Args[1]);
        return E.Ty = Type::Fp;
      default:
        if (L == R)
          return E.Ty = L;
        if (L == Type::Int)
          promote(E.Args[0]);
        else
          promote(E.Args[1]);
        return E.Ty = Type::Fp;
      }
    }
    }
    return Type::Int;
  }

  void checkStmt(Stmt &S) {
    if (!Err.empty())
      return;
    switch (S.Kind) {
    case StmtKind::Assign: {
      if (S.Lhs->Kind != ExprKind::VarRef &&
          S.Lhs->Kind != ExprKind::ArrayRef) {
        fail("assignment target must be a variable or array element");
        return;
      }
      if (S.Lhs->Kind == ExprKind::VarRef && isLoopVar(S.Lhs->Name)) {
        fail("cannot assign to loop variable '" + S.Lhs->Name + "'");
        return;
      }
      Type LT = checkExpr(*S.Lhs);
      Type RT = checkExpr(*S.Rhs);
      if (LT == Type::Fp && RT == Type::Int)
        promote(S.Rhs);
      else if (LT == Type::Int && RT == Type::Fp)
        fail("cannot assign fp value to int location");
      return;
    }
    case StmtKind::For: {
      if (checkExpr(*S.Lo) != Type::Int || checkExpr(*S.Hi) != Type::Int)
        fail("loop bounds must be int expressions");
      if (P.findVar(S.LoopVar) || P.findArray(S.LoopVar))
        fail("loop variable '" + S.LoopVar + "' shadows a declaration");
      LoopVars.push_back(S.LoopVar);
      for (StmtPtr &C : S.Body)
        checkStmt(*C);
      LoopVars.pop_back();
      return;
    }
    case StmtKind::If: {
      if (checkExpr(*S.Cond) != Type::Int)
        fail("if condition must be an int expression (use a comparison)");
      for (StmtPtr &C : S.Then)
        checkStmt(*C);
      for (StmtPtr &C : S.Else)
        checkStmt(*C);
      return;
    }
    }
  }
};

} // namespace

std::string lang::checkProgram(Program &P) { return Checker(P).run(); }
