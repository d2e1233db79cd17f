//===- lang/AST.cpp - Kernel-language AST utilities -----------------------===//

#include "lang/AST.h"

#include "support/Str.h"

#include <cassert>

using namespace bsched;
using namespace bsched::lang;

//===----------------------------------------------------------------------===//
// Constructors
//===----------------------------------------------------------------------===//

ExprPtr lang::intLit(int64_t V) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::IntLit;
  E->Ty = Type::Int;
  E->IntVal = V;
  return E;
}

ExprPtr lang::fpLit(double V) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::FpLit;
  E->Ty = Type::Fp;
  E->FpVal = V;
  return E;
}

ExprPtr lang::varRef(std::string Name) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::VarRef;
  E->Name = std::move(Name);
  return E;
}

ExprPtr lang::arrayRef(std::string Name, std::vector<ExprPtr> Indices) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::ArrayRef;
  E->Name = std::move(Name);
  E->Args = std::move(Indices);
  return E;
}

ExprPtr lang::unary(UnOp Op, ExprPtr A) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Unary;
  E->UOp = Op;
  E->Args.push_back(std::move(A));
  return E;
}

ExprPtr lang::binary(BinOp Op, ExprPtr L, ExprPtr R) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Binary;
  E->BOp = Op;
  E->Args.push_back(std::move(L));
  E->Args.push_back(std::move(R));
  return E;
}

StmtPtr lang::assign(ExprPtr Lhs, ExprPtr Rhs) {
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::Assign;
  S->Lhs = std::move(Lhs);
  S->Rhs = std::move(Rhs);
  return S;
}

StmtPtr lang::forLoop(std::string Var, ExprPtr Lo, ExprPtr Hi, int64_t Step,
                      StmtList Body) {
  assert(Step > 0 && "loop step must be a positive constant");
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::For;
  S->LoopVar = std::move(Var);
  S->Lo = std::move(Lo);
  S->Hi = std::move(Hi);
  S->Step = Step;
  S->Body = std::move(Body);
  return S;
}

StmtPtr lang::ifStmt(ExprPtr Cond, StmtList Then, StmtList Else) {
  auto S = std::make_unique<Stmt>();
  S->Kind = StmtKind::If;
  S->Cond = std::move(Cond);
  S->Then = std::move(Then);
  S->Else = std::move(Else);
  return S;
}

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

ExprPtr Expr::clone() const {
  auto E = std::make_unique<Expr>();
  E->Kind = Kind;
  E->Ty = Ty;
  E->IntVal = IntVal;
  E->FpVal = FpVal;
  E->Name = Name;
  E->UOp = UOp;
  E->BOp = BOp;
  E->HM = HM;
  E->LocGroup = LocGroup;
  E->Args.reserve(Args.size());
  for (const ExprPtr &A : Args)
    E->Args.push_back(A->clone());
  return E;
}

StmtPtr Stmt::clone() const {
  auto S = std::make_unique<Stmt>();
  S->Kind = Kind;
  if (Lhs)
    S->Lhs = Lhs->clone();
  if (Rhs)
    S->Rhs = Rhs->clone();
  S->LoopVar = LoopVar;
  if (Lo)
    S->Lo = Lo->clone();
  if (Hi)
    S->Hi = Hi->clone();
  S->Step = Step;
  S->Body = cloneList(Body);
  S->NoUnroll = NoUnroll;
  if (Cond)
    S->Cond = Cond->clone();
  S->Then = cloneList(Then);
  S->Else = cloneList(Else);
  return S;
}

StmtList lang::cloneList(const StmtList &L) {
  StmtList Out;
  Out.reserve(L.size());
  for (const StmtPtr &S : L)
    Out.push_back(S->clone());
  return Out;
}

Program::Program(const Program &O)
    : Name(O.Name), Arrays(O.Arrays), Vars(O.Vars), Body(cloneList(O.Body)) {}

Program &Program::operator=(const Program &O) {
  if (this == &O)
    return *this;
  Name = O.Name;
  Arrays = O.Arrays;
  Vars = O.Vars;
  Body = cloneList(O.Body);
  return *this;
}

const ArrayDecl *Program::findArray(const std::string &N) const {
  for (const ArrayDecl &A : Arrays)
    if (A.Name == N)
      return &A;
  return nullptr;
}

const VarDecl *Program::findVar(const std::string &N) const {
  for (const VarDecl &V : Vars)
    if (V.Name == N)
      return &V;
  return nullptr;
}

std::string lang::checkArraySizes(const Program &P) {
  int64_t Total = 0;
  for (const ArrayDecl &A : P.Arrays) {
    int64_t N = 1;
    for (int64_t D : A.Dims) {
      if (D < 0)
        return "array '" + A.Name + "' has a negative dimension";
      if (__builtin_mul_overflow(N, D, &N))
        return "array '" + A.Name + "' has too many elements to index";
    }
    if (N > MaxProgramCells - Total)
      return "array '" + A.Name + "' takes the program's arrays past " +
             std::to_string(MaxProgramCells) + " elements";
    Total += N;
  }
  return "";
}

//===----------------------------------------------------------------------===//
// Variable substitution
//===----------------------------------------------------------------------===//

void lang::addToVarRefs(Expr &E, const std::string &Var, int64_t Delta) {
  if (E.Kind == ExprKind::VarRef && E.Name == Var) {
    // Rewrite in place: E := E + Delta.
    auto Inner = varRef(E.Name);
    Inner->Ty = Type::Int;
    E.Kind = ExprKind::Binary;
    E.BOp = BinOp::Add;
    E.Name.clear();
    E.Args.clear();
    E.Args.push_back(std::move(Inner));
    E.Args.push_back(intLit(Delta));
    E.Ty = Type::Int;
    return;
  }
  for (ExprPtr &A : E.Args)
    addToVarRefs(*A, Var, Delta);
}

void lang::addToVarRefs(Stmt &S, const std::string &Var, int64_t Delta) {
  if (S.Lhs)
    addToVarRefs(*S.Lhs, Var, Delta);
  if (S.Rhs)
    addToVarRefs(*S.Rhs, Var, Delta);
  if (S.Cond)
    addToVarRefs(*S.Cond, Var, Delta);
  // An inner loop reusing the name shadows it.
  if (S.Kind == StmtKind::For && S.LoopVar == Var) {
    if (S.Lo)
      addToVarRefs(*S.Lo, Var, Delta);
    if (S.Hi)
      addToVarRefs(*S.Hi, Var, Delta);
    return;
  }
  if (S.Lo)
    addToVarRefs(*S.Lo, Var, Delta);
  if (S.Hi)
    addToVarRefs(*S.Hi, Var, Delta);
  for (StmtPtr &C : S.Body)
    addToVarRefs(*C, Var, Delta);
  for (StmtPtr &C : S.Then)
    addToVarRefs(*C, Var, Delta);
  for (StmtPtr &C : S.Else)
    addToVarRefs(*C, Var, Delta);
}

void lang::replaceVarRefs(Expr &E, const std::string &Var,
                          const Expr &Replacement) {
  if (E.Kind == ExprKind::VarRef && E.Name == Var) {
    ExprPtr R = Replacement.clone();
    E = std::move(*R);
    return;
  }
  for (ExprPtr &A : E.Args)
    replaceVarRefs(*A, Var, Replacement);
}

void lang::replaceVarRefs(Stmt &S, const std::string &Var,
                          const Expr &Replacement) {
  if (S.Lhs)
    replaceVarRefs(*S.Lhs, Var, Replacement);
  if (S.Rhs)
    replaceVarRefs(*S.Rhs, Var, Replacement);
  if (S.Cond)
    replaceVarRefs(*S.Cond, Var, Replacement);
  if (S.Lo)
    replaceVarRefs(*S.Lo, Var, Replacement);
  if (S.Hi)
    replaceVarRefs(*S.Hi, Var, Replacement);
  if (S.Kind == StmtKind::For && S.LoopVar == Var)
    return; // Shadowed inside the body.
  for (StmtPtr &C : S.Body)
    replaceVarRefs(*C, Var, Replacement);
  for (StmtPtr &C : S.Then)
    replaceVarRefs(*C, Var, Replacement);
  for (StmtPtr &C : S.Else)
    replaceVarRefs(*C, Var, Replacement);
}

//===----------------------------------------------------------------------===//
// Cost estimate
//===----------------------------------------------------------------------===//

// Approximates the number of machine instructions the expression lowers to
// AFTER strength reduction: affine array addresses live in induction
// registers, so a reference costs about one memory instruction plus any
// non-trivial subscript arithmetic; literals fold into immediates.
static int estimateCost(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLit:
  case ExprKind::FpLit:
    return 0; // Immediate operands / constant registers.
  case ExprKind::VarRef:
    return 0; // Scalars live in registers.
  case ExprKind::ArrayRef: {
    int C = 1; // The load or store itself.
    for (const ExprPtr &A : E.Args)
      C += estimateCost(*A);
    return C;
  }
  case ExprKind::Unary:
    return 1 + estimateCost(*E.Args[0]);
  case ExprKind::Binary:
    return 1 + estimateCost(*E.Args[0]) + estimateCost(*E.Args[1]);
  }
  return 0;
}

int lang::estimateCost(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Assign:
    return ::estimateCost(*S.Lhs) + ::estimateCost(*S.Rhs);
  case StmtKind::For:
    // Loop overhead (induction update, compare, branch) + body.
    return 3 + estimateCost(S.Body);
  case StmtKind::If:
    return 2 + ::estimateCost(*S.Cond) + estimateCost(S.Then) +
           estimateCost(S.Else);
  }
  return 0;
}

int lang::estimateCost(const StmtList &L) {
  int C = 0;
  for (const StmtPtr &S : L)
    C += estimateCost(*S);
  return C;
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

static const char *binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add: return "+";
  case BinOp::Sub: return "-";
  case BinOp::Mul: return "*";
  case BinOp::Div: return "/";
  case BinOp::Lt: return "<";
  case BinOp::Le: return "<=";
  case BinOp::Gt: return ">";
  case BinOp::Ge: return ">=";
  case BinOp::Eq: return "==";
  case BinOp::Ne: return "!=";
  case BinOp::And: return "&&";
  case BinOp::Or: return "||";
  }
  return "?";
}

std::string lang::printExpr(const Expr &E) {
  switch (E.Kind) {
  case ExprKind::IntLit:
    return std::to_string(E.IntVal);
  case ExprKind::FpLit:
    return fmtDouble(E.FpVal, 6);
  case ExprKind::VarRef:
    return E.Name;
  case ExprKind::ArrayRef: {
    std::string S = E.Name;
    for (const ExprPtr &A : E.Args)
      S += "[" + printExpr(*A) + "]";
    if (E.HM == ir::HitMiss::Hit)
      S += "/*hit*/";
    else if (E.HM == ir::HitMiss::Miss)
      S += "/*miss*/";
    return S;
  }
  case ExprKind::Unary:
    if (E.UOp == UnOp::IToF)
      return printExpr(*E.Args[0]);
    return std::string(E.UOp == UnOp::Neg ? "-" : "!") + "(" +
           printExpr(*E.Args[0]) + ")";
  case ExprKind::Binary:
    return "(" + printExpr(*E.Args[0]) + " " + binOpName(E.BOp) + " " +
           printExpr(*E.Args[1]) + ")";
  }
  return "?";
}

std::string lang::printStmt(const Stmt &S, int Indent) {
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  auto PrintBody = [&](const StmtList &L) {
    std::string Out = " {\n";
    for (const StmtPtr &C : L)
      Out += printStmt(*C, Indent + 1);
    Out += Pad + "}";
    return Out;
  };
  switch (S.Kind) {
  case StmtKind::Assign:
    return Pad + printExpr(*S.Lhs) + " = " + printExpr(*S.Rhs) + ";\n";
  case StmtKind::For: {
    std::string Out = Pad + "for (" + S.LoopVar + " = " + printExpr(*S.Lo) +
                      "; " + S.LoopVar + " < " + printExpr(*S.Hi) + "; " +
                      S.LoopVar + " += " + std::to_string(S.Step) + ")";
    Out += PrintBody(S.Body);
    Out += "\n";
    return Out;
  }
  case StmtKind::If: {
    std::string Out = Pad + "if (" + printExpr(*S.Cond) + ")";
    Out += PrintBody(S.Then);
    if (!S.Else.empty()) {
      Out += " else";
      Out += PrintBody(S.Else);
    }
    Out += "\n";
    return Out;
  }
  }
  return "";
}

std::string lang::printProgram(const Program &P) {
  std::string Out;
  for (const ArrayDecl &A : P.Arrays) {
    Out += "array " + A.Name;
    for (int64_t D : A.Dims)
      Out += "[" + std::to_string(D) + "]";
    if (A.ElemTy == Type::Int)
      Out += " int";
    if (!A.RowMajor)
      Out += " colmajor";
    if (A.IsOutput)
      Out += " output";
    Out += ";\n";
  }
  for (const VarDecl &V : P.Vars) {
    Out += "var " + V.Name;
    if (V.Ty == Type::Int)
      Out += " int = " + std::to_string(V.IntInit);
    else
      Out += " = " + fmtDouble(V.FpInit, 6);
    Out += ";\n";
  }
  for (const StmtPtr &S : P.Body)
    Out += printStmt(*S, 0);
  return Out;
}
