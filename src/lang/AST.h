//===- lang/AST.h - Kernel-language abstract syntax -------------*- C++ -*-===//
///
/// \file
/// The kernel language: counted loop nests over cache-aligned arrays with
/// affine subscripts, scalar temporaries, and structured conditionals. It
/// plays the role of the paper's Fortran/C sources: rich enough to express
/// the Perfect Club / SPEC92-style numeric kernels the workload consists of,
/// small enough that the ILP transformations of sections 3.1-3.3 (unrolling,
/// peeling, postconditioning, locality annotation) are source-to-source
/// rewrites on this AST.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_LANG_AST_H
#define BALSCHED_LANG_AST_H

#include "ir/IR.h" // for ir::HitMiss annotations on array references

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bsched {
namespace lang {

enum class Type : uint8_t { Int, Fp };

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLit,
  FpLit,
  VarRef,
  ArrayRef,
  Unary,
  Binary,
};

enum class UnOp : uint8_t {
  Neg,  ///< arithmetic negation.
  IToF, ///< implicit int->fp conversion (inserted by the checker).
  Not,  ///< logical negation of an int condition.
};

enum class BinOp : uint8_t {
  Add, Sub, Mul, Div,
  Lt, Le, Gt, Ge, Eq, Ne, ///< comparisons; result type Int (0/1).
  And, Or,                ///< logical on Int operands.
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind Kind;
  /// Result type; filled in by the semantic checker (Int until then for
  /// literals/refs whose type is syntactically known).
  Type Ty = Type::Int;

  // IntLit / FpLit.
  int64_t IntVal = 0;
  double FpVal = 0.0;

  // VarRef / ArrayRef.
  std::string Name;

  // Unary / Binary.
  UnOp UOp = UnOp::Neg;
  BinOp BOp = BinOp::Add;

  /// Unary: [operand]. Binary: [lhs, rhs]. ArrayRef: subscripts.
  std::vector<ExprPtr> Args;

  // Locality-analysis annotations, meaningful on ArrayRef in rvalue position
  // (section 3.3): compile-time hit/miss knowledge and the locality group
  // tying hit loads to their governing miss load.
  ir::HitMiss HM = ir::HitMiss::Unknown;
  int LocGroup = -1;

  /// Deep copy (annotations included).
  ExprPtr clone() const;
};

ExprPtr intLit(int64_t V);
ExprPtr fpLit(double V);
ExprPtr varRef(std::string Name);
ExprPtr arrayRef(std::string Name, std::vector<ExprPtr> Indices);
ExprPtr unary(UnOp Op, ExprPtr A);
ExprPtr binary(BinOp Op, ExprPtr L, ExprPtr R);

/// Convenience: Add(L, R), Mul(L, R), ... for builder-style tests.
inline ExprPtr add(ExprPtr L, ExprPtr R) {
  return binary(BinOp::Add, std::move(L), std::move(R));
}
inline ExprPtr sub(ExprPtr L, ExprPtr R) {
  return binary(BinOp::Sub, std::move(L), std::move(R));
}
inline ExprPtr mul(ExprPtr L, ExprPtr R) {
  return binary(BinOp::Mul, std::move(L), std::move(R));
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t { Assign, For, If };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

struct Stmt {
  StmtKind Kind;

  // Assign: Lhs (VarRef or ArrayRef) = Rhs.
  ExprPtr Lhs, Rhs;

  // For: for (Var = Lo; Var < Hi; Var += Step) Body. Step is a positive
  // compile-time constant, which the unrolling and locality transforms rely
  // on; bounds may be arbitrary int expressions over enclosing scope.
  std::string LoopVar;
  ExprPtr Lo, Hi;
  int64_t Step = 1;
  StmtList Body;
  /// Set on loops a transform has already expanded (e.g. the main loop the
  /// unroller emits) so later unrolling passes leave them alone.
  bool NoUnroll = false;

  // If: if (Cond) Then else Else.
  ExprPtr Cond;
  StmtList Then, Else;

  StmtPtr clone() const;
};

StmtPtr assign(ExprPtr Lhs, ExprPtr Rhs);
StmtPtr forLoop(std::string Var, ExprPtr Lo, ExprPtr Hi, int64_t Step,
                StmtList Body);
StmtPtr ifStmt(ExprPtr Cond, StmtList Then, StmtList Else = {});

StmtList cloneList(const StmtList &L);

//===----------------------------------------------------------------------===//
// Declarations / program
//===----------------------------------------------------------------------===//

struct ArrayDecl {
  std::string Name;
  Type ElemTy = Type::Fp;
  std::vector<int64_t> Dims; ///< outermost first.
  bool RowMajor = true;      ///< the paper's C arrays; Fortran = column-major.
  bool IsOutput = false;     ///< contributes to the program checksum.
};

struct VarDecl {
  std::string Name;
  Type Ty = Type::Fp;
  double FpInit = 0.0;
  int64_t IntInit = 0;
};

struct Program {
  std::string Name = "kernel";
  std::vector<ArrayDecl> Arrays;
  std::vector<VarDecl> Vars;
  StmtList Body;

  Program() = default;
  Program(const Program &O);
  Program &operator=(const Program &O);
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  const ArrayDecl *findArray(const std::string &N) const;
  const VarDecl *findVar(const std::string &N) const;
};

/// Most cells all of a program's arrays may hold together. The checker
/// rejects larger programs, so element counts and flattened subscripts stay
/// far from int64_t overflow. The largest built-in source, Table 2's 8 MB
/// latency probe, holds 2^20 cells.
constexpr int64_t MaxProgramCells = int64_t(1) << 24;

/// Returns a diagnostic naming the first array that has a negative
/// dimension, whose element count overflows int64_t, or that takes the
/// program past MaxProgramCells; an empty string if every array fits.
std::string checkArraySizes(const Program &P);

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

/// Renders \p P as kernel-language source (used by tests and the
/// transformation examples; the output is re-parseable except for locality
/// hit/miss annotations, which print as trailing comments).
std::string printProgram(const Program &P);
std::string printStmt(const Stmt &S, int Indent = 0);
std::string printExpr(const Expr &E);

/// Rewrites every reference to loop variable \p Var inside \p E by adding the
/// constant \p Delta (used by unrolling: i -> i + k*step).
void addToVarRefs(Expr &E, const std::string &Var, int64_t Delta);
void addToVarRefs(Stmt &S, const std::string &Var, int64_t Delta);

/// Replaces every reference to \p Var inside the tree with a clone of
/// \p Replacement (used by peeling: i -> lo).
void replaceVarRefs(Expr &E, const std::string &Var, const Expr &Replacement);
void replaceVarRefs(Stmt &S, const std::string &Var, const Expr &Replacement);

/// Estimated number of IR instructions the statement lowers to; drives the
/// paper's unrolled-block size limits (64 instructions at factor 4, 128 at
/// factor 8).
int estimateCost(const Stmt &S);
int estimateCost(const StmtList &L);

} // namespace lang
} // namespace bsched

#endif // BALSCHED_LANG_AST_H
