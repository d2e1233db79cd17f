//===- lang/Eval.cpp - Reference AST evaluator -----------------------------===//
//
// evalProgram works in two steps. A binding pass walks the program once and
// emits a flat register code: each declared scalar, each `for` statement,
// each literal and each expression result gets its own 64-bit register;
// each array reference becomes one bounds-checked stride step per subscript
// into a single cell vector; each operator picks its int or fp form. A
// dispatch loop then runs the code, so nothing is looked up by name while
// the program runs.
//
//===----------------------------------------------------------------------===//

#include "lang/Eval.h"

#include "support/ZeroBuffer.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

using namespace bsched;
using namespace bsched::lang;

namespace {

enum class OpCode : uint8_t {
  Mov, ///< R[D] = R[A]; the arithmetic and compare ops are R[D] = R[A] op R[B].
  IAdd, ISub, IMul, INeg,
  FAdd, FSub, FMul, FDiv, FNeg,
  IToF, Not, And, Or,
  ILt, ILe, IGt, IGe, IEq, INe,
  FLt, FLe, FGt, FGe, FEq, FNe,
  Index,      ///< R[D] = R[A] * stride, once R[A] is within Subs[B]'s extent.
  IndexAdd,   ///< R[D] += R[A] * stride, likewise.
  Load,       ///< R[D] = Cells[B + R[A]].
  Store,      ///< Cells[B + R[A]] = R[D].
  IsSet,      ///< fails with Errors[B] while R[A] is 0.
  Count,      ///< budgets the A statements that start at StmtStarts[B...].
  // A loop's counter, bound, step and variable are R[D] to R[D + 3]; each
  // iteration starts by copying the counter into the variable.
  ForInit,    ///< counter = R[A]; goto B unless counter < bound.
  ForNext,    ///< counter += step; goto A while counter < bound.
  JumpIfZero, ///< goto B if R[A] == 0.
  Jump,       ///< goto B.
  Fail,       ///< stops with Errors[A].
  Halt,
};

struct Op {
  OpCode Code;
  uint32_t D = 0, A = 0, B = 0;
};

/// One subscript position of one array reference.
struct Subscript {
  uint64_t Extent;
  uint64_t Stride;
  const std::string *Array;
};

/// An error text, formatted only if the run fails: Prefix, then the name
/// and a closing quote if there is a name.
struct ErrorText {
  const char *Prefix;
  const std::string *Name;
};

constexpr uint32_t NoReg = ~0u;
constexpr uint32_t BudgetError = 0; ///< Errors[0].

double asFp(uint64_t Bits) { return std::bit_cast<double>(Bits); }
uint64_t bitsOf(double V) { return std::bit_cast<uint64_t>(V); }

OpCode binaryOp(BinOp Op, bool Fp) {
  switch (Op) {
  case BinOp::Add: return Fp ? OpCode::FAdd : OpCode::IAdd;
  case BinOp::Sub: return Fp ? OpCode::FSub : OpCode::ISub;
  case BinOp::Mul: return Fp ? OpCode::FMul : OpCode::IMul;
  case BinOp::Div: return OpCode::FDiv;
  case BinOp::Lt: return Fp ? OpCode::FLt : OpCode::ILt;
  case BinOp::Le: return Fp ? OpCode::FLe : OpCode::ILe;
  case BinOp::Gt: return Fp ? OpCode::FGt : OpCode::IGt;
  case BinOp::Ge: return Fp ? OpCode::FGe : OpCode::IGe;
  case BinOp::Eq: return Fp ? OpCode::FEq : OpCode::IEq;
  case BinOp::Ne: return Fp ? OpCode::FNe : OpCode::INe;
  case BinOp::And: return OpCode::And;
  case BinOp::Or: return OpCode::Or;
  }
  return OpCode::And;
}

/// A program bound for one run: its code, register file and cells. A run
/// may rewrite its own code (see Count), so each is run once.
class BoundProgram {
public:
  explicit BoundProgram(const Program &P) : P(P) {}

  /// Binds the program; returns a diagnostic if its arrays are too large.
  std::string bind() {
    if (std::string E = checkArraySizes(P); !E.empty())
      return E;
    Base.push_back(0);
    for (const ArrayDecl &A : P.Arrays) {
      uint64_t N = 1;
      for (int64_t D : A.Dims)
        N *= static_cast<uint64_t>(D);
      Base.push_back(Base.back() + N);
    }
    // Zero-initialized, as in the IR machine's memory image.
    Cells = ZeroBuffer<uint64_t>(Base.back());
    for (const ArrayDecl &A : P.Arrays)
      if (A.IsOutput) {
        size_t I = static_cast<size_t>(arrayIndex(A.Name));
        Outputs.push_back({Base[I], Base[I + 1]});
      }
    // Declared scalars take the first registers. Of two same-name
    // declarations (unchecked only), the last sets the value.
    Regs.resize(P.Vars.size());
    for (const VarDecl &V : P.Vars)
      Regs[static_cast<size_t>(P.findVar(V.Name) - P.Vars.data())] =
          V.Ty == Type::Int ? static_cast<uint64_t>(V.IntInit)
                            : bitsOf(V.FpInit);
    One = reg(1);
    Errors.push_back({"statement budget exhausted", nullptr});
    bindList(P.Body);
    emit(OpCode::Halt);
    return "";
  }

  EvalResult run(uint64_t MaxStmts) {
    EvalResult R;
    uint64_t *Rg = Regs.data();
    uint64_t *Mem = Cells.data();
    Op *Ops = Code.data();
    uint64_t N = 0; // statements executed
    auto fail = [&](const ErrorText &E) {
      R.StmtCount = N;
      R.Error = E.Prefix;
      if (E.Name)
        R.Error += *E.Name + "'";
      return R;
    };
    // Register X as a signed int or as a double.
    auto I = [Rg](uint32_t X) { return static_cast<int64_t>(Rg[X]); };
    auto F = [Rg](uint32_t X) { return asFp(Rg[X]); };
    for (const Op *Pc = Ops;;) {
      const Op O = *Pc++;
      switch (O.Code) {
      case OpCode::Mov: Rg[O.D] = Rg[O.A]; break;
      // Unsigned, so overflow wraps as two's complement does.
      case OpCode::IAdd: Rg[O.D] = Rg[O.A] + Rg[O.B]; break;
      case OpCode::ISub: Rg[O.D] = Rg[O.A] - Rg[O.B]; break;
      case OpCode::IMul: Rg[O.D] = Rg[O.A] * Rg[O.B]; break;
      case OpCode::INeg: Rg[O.D] = 0 - Rg[O.A]; break;
      case OpCode::FAdd: Rg[O.D] = bitsOf(F(O.A) + F(O.B)); break;
      case OpCode::FSub: Rg[O.D] = bitsOf(F(O.A) - F(O.B)); break;
      case OpCode::FMul: Rg[O.D] = bitsOf(F(O.A) * F(O.B)); break;
      case OpCode::FDiv: Rg[O.D] = bitsOf(F(O.A) / F(O.B)); break;
      // (0 - x), matching the lowered code: the Alpha-like ISA has no
      // sign-flip negate, so -(+0.0) is +0.0 and NaN signs are never flipped.
      case OpCode::FNeg: Rg[O.D] = bitsOf(0.0 - F(O.A)); break;
      case OpCode::IToF: Rg[O.D] = bitsOf(static_cast<double>(I(O.A))); break;
      case OpCode::Not: Rg[O.D] = Rg[O.A] == 0; break;
      case OpCode::And: Rg[O.D] = Rg[O.A] != 0 && Rg[O.B] != 0; break;
      case OpCode::Or: Rg[O.D] = Rg[O.A] != 0 || Rg[O.B] != 0; break;
      case OpCode::ILt: Rg[O.D] = I(O.A) < I(O.B); break;
      case OpCode::ILe: Rg[O.D] = I(O.A) <= I(O.B); break;
      case OpCode::IGt: Rg[O.D] = I(O.A) > I(O.B); break;
      case OpCode::IGe: Rg[O.D] = I(O.A) >= I(O.B); break;
      case OpCode::IEq: Rg[O.D] = I(O.A) == I(O.B); break;
      case OpCode::INe: Rg[O.D] = I(O.A) != I(O.B); break;
      case OpCode::FLt: Rg[O.D] = F(O.A) < F(O.B); break;
      case OpCode::FLe: Rg[O.D] = F(O.A) <= F(O.B); break;
      case OpCode::FGt: Rg[O.D] = F(O.A) > F(O.B); break;
      case OpCode::FGe: Rg[O.D] = F(O.A) >= F(O.B); break;
      case OpCode::FEq: Rg[O.D] = F(O.A) == F(O.B); break;
      case OpCode::FNe: Rg[O.D] = F(O.A) != F(O.B); break;
      case OpCode::Index:
      case OpCode::IndexAdd: {
        // Unsigned, so a negative subscript fails the same test.
        const Subscript &S = Subs[O.B];
        if (Rg[O.A] >= S.Extent)
          return fail({"subscript out of bounds on '", S.Array});
        uint64_t Offset = Rg[O.A] * S.Stride;
        Rg[O.D] = O.Code == OpCode::Index ? Offset : Rg[O.D] + Offset;
        break;
      }
      case OpCode::Load: Rg[O.D] = Mem[O.B + Rg[O.A]]; break;
      case OpCode::Store: Mem[O.B + Rg[O.A]] = Rg[O.D]; break;
      case OpCode::IsSet:
        if (Rg[O.A] == 0)
          return fail(Errors[O.B]);
        break;
      case OpCode::Count:
        // If the budget runs out inside this straight-line run, the first
        // statement past it fails instead of executing; the ones before it
        // still run, so an earlier error keeps its place.
        if (O.A > MaxStmts - N)
          Ops[StmtStarts[O.B + (MaxStmts - N)]] = {OpCode::Fail, 0,
                                                   BudgetError, 0};
        N += O.A;
        break;
      case OpCode::ForInit:
        Rg[O.D] = Rg[O.A];
        if (I(O.D) < I(O.D + 1))
          Rg[O.D + 3] = Rg[O.D];
        else
          Pc = Ops + O.B;
        break;
      case OpCode::ForNext:
        Rg[O.D] += Rg[O.D + 2];
        if (I(O.D) < I(O.D + 1)) {
          Rg[O.D + 3] = Rg[O.D];
          Pc = Ops + O.A;
        }
        break;
      case OpCode::JumpIfZero:
        if (Rg[O.A] == 0)
          Pc = Ops + O.B;
        break;
      case OpCode::Jump: Pc = Ops + O.B; break;
      case OpCode::Fail: return fail(Errors[O.A]);
      case OpCode::Halt:
        R.StmtCount = N;
        R.Checksum = checksum();
        return R;
      }
    }
  }

private:
  /// A name bound to a register: a loop variable in scope, or a scalar only
  /// an unchecked program's assignment creates (with its is-set register).
  struct Binding {
    const std::string *Name;
    uint32_t Reg;
    uint32_t Set;
  };

  const Program &P;
  std::vector<Op> Code;
  std::vector<uint64_t> Regs;  ///< register file, holding initial values.
  ZeroBuffer<uint64_t> Cells;  ///< every array's cells, in declaration order.
  std::vector<uint64_t> Base;  ///< array I's cells are [Base[I], Base[I+1]).
  /// Cell ranges the checksum covers, one per output declaration.
  std::vector<std::pair<uint64_t, uint64_t>> Outputs;
  std::vector<Subscript> Subs;
  std::vector<ErrorText> Errors;
  /// First op of each statement; a Count op's statements are contiguous.
  std::vector<uint32_t> StmtStarts;
  std::vector<Binding> Loops; ///< innermost last.
  std::vector<Binding> Implicit;
  uint32_t One = 0; ///< register holding 1.

  uint32_t reg(uint64_t Init = 0) {
    Regs.push_back(Init);
    return static_cast<uint32_t>(Regs.size() - 1);
  }

  void emit(OpCode C, uint32_t D = 0, uint32_t A = 0, uint32_t B = 0) {
    Code.push_back({C, D, A, B});
  }

  void move(uint32_t Dst, uint32_t Src) {
    if (Dst != Src)
      emit(OpCode::Mov, Dst, Src);
  }

  uint32_t error(const char *Prefix, const std::string &Name) {
    Errors.push_back({Prefix, &Name});
    return static_cast<uint32_t>(Errors.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(Code.size()); }

  /// The first array declared as \p N, or -1. (A duplicate declaration of
  /// an unchecked program gets cells but no references.)
  int64_t arrayIndex(const std::string &N) const {
    const ArrayDecl *A = P.findArray(N);
    return A ? A - P.Arrays.data() : -1;
  }

  /// The register of scalar \p N: the innermost loop variable so named, or
  /// the declared scalar; -1 if neither exists.
  int64_t scalar(const std::string &N) const {
    for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
      if (*It->Name == N)
        return It->Reg;
    const VarDecl *V = P.findVar(N);
    return V ? V - P.Vars.data() : -1;
  }

  Binding implicitScalar(const std::string &N) {
    for (const Binding &B : Implicit)
      if (*B.Name == N)
        return B;
    uint32_t Reg = reg();
    Implicit.push_back({&N, Reg, reg()});
    return Implicit.back();
  }

  /// Emits code computing \p E and returns the register holding it: \p Dst
  /// if E needs an operation and Dst is given, else a fresh register; a
  /// literal's or scalar's own register if E is one.
  uint32_t bindExpr(const Expr &E, uint32_t Dst = NoReg) {
    auto result = [&] { return Dst != NoReg ? Dst : reg(); };
    switch (E.Kind) {
    case ExprKind::IntLit:
      return reg(static_cast<uint64_t>(E.IntVal));
    case ExprKind::FpLit:
      return reg(bitsOf(E.FpVal));
    case ExprKind::VarRef: {
      if (int64_t R = scalar(E.Name); R >= 0)
        return static_cast<uint32_t>(R);
      Binding B = implicitScalar(E.Name);
      emit(OpCode::IsSet, 0, B.Set, error("unknown variable '", E.Name));
      return B.Reg;
    }
    case ExprKind::ArrayRef: {
      int64_t A = arrayIndex(E.Name);
      if (A < 0) {
        emit(OpCode::Fail, 0, error("unknown array '", E.Name));
        return reg();
      }
      uint32_t Idx = bindIndex(E, static_cast<size_t>(A));
      uint32_t R = result();
      emit(OpCode::Load, R, Idx, static_cast<uint32_t>(Base[A]));
      return R;
    }
    case ExprKind::Unary: {
      uint32_t X = bindExpr(*E.Args[0]);
      OpCode C = E.UOp == UnOp::IToF  ? OpCode::IToF
                 : E.UOp == UnOp::Not ? OpCode::Not
                 : E.Ty == Type::Fp   ? OpCode::FNeg
                                      : OpCode::INeg;
      uint32_t R = result();
      emit(C, R, X);
      return R;
    }
    case ExprKind::Binary: {
      // Both operands, always: && and || do not short-circuit.
      uint32_t L = bindExpr(*E.Args[0]);
      uint32_t Rhs = bindExpr(*E.Args[1]);
      uint32_t R = result();
      emit(binaryOp(E.BOp, E.Args[0]->Ty == Type::Fp), R, L, Rhs);
      return R;
    }
    }
    return reg();
  }

  /// Emits the flattened cell index of array reference \p E into a fresh
  /// register: each subscript in turn, checked right after it is computed.
  uint32_t bindIndex(const Expr &E, size_t ArrayIdx) {
    const ArrayDecl &A = P.Arrays[ArrayIdx];
    const size_t N = E.Args.size(), First = Subs.size();
    // A subscript past the declared rank (unchecked only) has extent 0.
    for (size_t K = 0; K != N; ++K)
      Subs.push_back({K < A.Dims.size() ? static_cast<uint64_t>(A.Dims[K]) : 0,
                      0, &A.Name});
    // Row-major strides multiply the extents after a subscript, column-major
    // ones those before it.
    uint64_t Stride = 1;
    for (size_t J = 0; J != N; ++J) {
      Subscript &S = Subs[First + (A.RowMajor ? N - 1 - J : J)];
      S.Stride = Stride;
      Stride *= S.Extent;
    }
    uint32_t Idx = reg();
    for (size_t K = 0; K != N; ++K) {
      uint32_t Sub = bindExpr(*E.Args[K]);
      emit(K == 0 ? OpCode::Index : OpCode::IndexAdd, Idx, Sub,
           static_cast<uint32_t>(First + K));
    }
    return Idx;
  }

  /// Binds \p L. Each run of statements up to the next for/if is
  /// straight-line code, so one Count op budgets the whole run.
  void bindList(const StmtList &L) {
    for (size_t I = 0; I != L.size();) {
      const uint32_t CountOp = here();
      emit(OpCode::Count, 0, 0, static_cast<uint32_t>(StmtStarts.size()));
      uint32_t N = 0;
      for (bool Control = false; I != L.size() && !Control;) {
        const Stmt &S = *L[I++];
        StmtStarts.push_back(here());
        ++N;
        Control = S.Kind != StmtKind::Assign;
        if (S.Kind == StmtKind::Assign)
          bindAssign(S);
        else if (S.Kind == StmtKind::For)
          bindFor(S);
        else
          bindIf(S);
      }
      Code[CountOp].A = N;
    }
  }

  void bindAssign(const Stmt &S) {
    const Expr &Lhs = *S.Lhs;
    if (Lhs.Kind == ExprKind::VarRef) {
      if (int64_t Found = scalar(Lhs.Name); Found >= 0) {
        uint32_t R = static_cast<uint32_t>(Found);
        move(R, bindExpr(*S.Rhs, R));
        return;
      }
      // An unchecked program's assignment creates the scalar it names.
      Binding B = implicitScalar(Lhs.Name);
      move(B.Reg, bindExpr(*S.Rhs, B.Reg));
      emit(OpCode::Mov, B.Set, One);
      return;
    }
    // The right-hand side runs before the subscripts.
    uint32_t V = bindExpr(*S.Rhs);
    int64_t A = arrayIndex(Lhs.Name);
    if (A < 0) {
      emit(OpCode::Fail, 0, error("unknown array '", Lhs.Name));
      return;
    }
    uint32_t Idx = bindIndex(Lhs, static_cast<size_t>(A));
    emit(OpCode::Store, V, Idx, static_cast<uint32_t>(Base[A]));
  }

  void bindFor(const Stmt &S) {
    // The counter, its bound, its step and the loop variable sit in
    // consecutive registers. The variable is a copy of the counter, made at
    // the start of each iteration, so a body that writes it (only an
    // unchecked program can) leaves the trip count alone.
    uint32_t Ctr = reg(), Hi = reg();
    reg(static_cast<uint64_t>(S.Step));
    uint32_t Var = reg();
    uint32_t Lo = bindExpr(*S.Lo);
    move(Hi, bindExpr(*S.Hi, Hi));
    const uint32_t Init = here();
    emit(OpCode::ForInit, Ctr, Lo);
    const uint32_t Body = here();
    Loops.push_back({&S.LoopVar, Var, 0});
    bindList(S.Body);
    Loops.pop_back();
    emit(OpCode::ForNext, Ctr, Body);
    Code[Init].B = here();
  }

  void bindIf(const Stmt &S) {
    uint32_t Cond = bindExpr(*S.Cond);
    const uint32_t Branch = here();
    emit(OpCode::JumpIfZero, 0, Cond);
    bindList(S.Then);
    if (S.Else.empty()) {
      Code[Branch].B = here();
      return;
    }
    const uint32_t Skip = here();
    emit(OpCode::Jump);
    Code[Branch].B = here();
    bindList(S.Else);
    Code[Skip].B = here();
  }

  /// FNV-1a over the output arrays' cells, in declaration order.
  uint64_t checksum() const {
    uint64_t Hash = 1469598103934665603ull;
    for (auto [Begin, End] : Outputs)
      for (uint64_t C = Begin; C != End; ++C) {
        uint8_t Bytes[8];
        std::memcpy(Bytes, &Cells[C], 8);
        for (uint8_t B : Bytes) {
          Hash ^= B;
          Hash *= 1099511628211ull;
        }
      }
    return Hash;
  }
};

} // namespace

EvalResult lang::evalProgram(const Program &P, uint64_t MaxStmts) {
  BoundProgram B(P);
  if (std::string E = B.bind(); !E.empty()) {
    EvalResult R;
    R.Error = std::move(E);
    return R;
  }
  return B.run(MaxStmts);
}
