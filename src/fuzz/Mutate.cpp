//===- fuzz/Mutate.cpp - Structured AST mutator -----------------------------===//

#include "fuzz/Mutate.h"

#include "lang/Eval.h"
#include "lang/Parser.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::fuzz;
using namespace bsched::lang;

const char *fuzz::mutationKindName(MutationKind K) {
  switch (K) {
  case MutationKind::InsertAssign: return "insert-assign";
  case MutationKind::InsertLoop: return "insert-loop";
  case MutationKind::DeleteStmt: return "delete-stmt";
  case MutationKind::SwapStmts: return "swap-stmts";
  case MutationKind::PerturbSubscript: return "perturb-subscript";
  case MutationKind::RewriteLoopBounds: return "rewrite-loop-bounds";
  case MutationKind::RewriteCond: return "rewrite-cond";
  case MutationKind::ResizeArray: return "resize-array";
  case MutationKind::ToggleLayout: return "toggle-layout";
  case MutationKind::ToggleOutput: return "toggle-output";
  }
  return "?";
}

namespace {

/// Candidate mutations tried before mutateProgram gives up on a step.
constexpr int Attempts = 24;
/// AST-eval statement budget a valid program finishes within.
constexpr uint64_t EvalBudget = 2000000;
/// Mutants whose statement count (lang::estimateCost) exceeds this are
/// rejected.
constexpr int MaxCost = 4096;
/// Upper bound for any array dimension or trip count a mutation writes.
constexpr int64_t MaxDim = 256;

/// A loop variable in scope at some program point, with the largest value it
/// can take when that is provable from literal bounds.
struct LoopVarInfo {
  std::string Name;
  int64_t MaxVal = 0;
  bool Known = false;
};
using Env = std::vector<LoopVarInfo>;

/// Addressable mutation points, collected in one walk so each mutation kind
/// can sample uniformly from the sites it applies to.
struct Sites {
  struct Block { StmtList *List; Env E; int Depth; };
  struct StmtAt { StmtList *List; size_t Index; Env E; };
  struct Ref { Expr *E; Env Scope; };   ///< an ArrayRef expression.
  struct Loop { Stmt *S; };
  struct Cond { Stmt *S; };

  std::vector<Block> Blocks;
  std::vector<StmtAt> Stmts;
  std::vector<Ref> Refs;
  std::vector<Loop> Loops;
  std::vector<Cond> Conds;
};

void collectExpr(Expr &E, const Env &Scope, Sites &Out) {
  if (E.Kind == ExprKind::ArrayRef)
    Out.Refs.push_back({&E, Scope});
  for (ExprPtr &A : E.Args)
    collectExpr(*A, Scope, Out);
}

void collectList(StmtList &L, Env &E, int Depth, Sites &Out) {
  Out.Blocks.push_back({&L, E, Depth});
  for (size_t I = 0; I != L.size(); ++I) {
    Stmt &S = *L[I];
    Out.Stmts.push_back({&L, I, E});
    switch (S.Kind) {
    case StmtKind::Assign:
      collectExpr(*S.Lhs, E, Out);
      collectExpr(*S.Rhs, E, Out);
      break;
    case StmtKind::For: {
      Out.Loops.push_back({&S});
      collectExpr(*S.Lo, E, Out);
      collectExpr(*S.Hi, E, Out);
      LoopVarInfo V;
      V.Name = S.LoopVar;
      if (S.Lo->Kind == ExprKind::IntLit && S.Hi->Kind == ExprKind::IntLit &&
          S.Lo->IntVal >= 0 && S.Hi->IntVal > S.Lo->IntVal && S.Step > 0) {
        V.Known = true;
        V.MaxVal = S.Lo->IntVal +
                   (S.Hi->IntVal - 1 - S.Lo->IntVal) / S.Step * S.Step;
      }
      E.push_back(V);
      collectList(S.Body, E, Depth + 1, Out);
      E.pop_back();
      break;
    }
    case StmtKind::If:
      Out.Conds.push_back({&S});
      collectExpr(*S.Cond, E, Out);
      collectList(S.Then, E, Depth + 1, Out);
      collectList(S.Else, E, Depth + 1, Out);
      break;
    }
  }
}

Sites collectSites(Program &P) {
  Sites Out;
  Env E;
  collectList(P.Body, E, 0, Out);
  return Out;
}

/// Builds an int expression provably in [0, Dim) from the loop variables in
/// scope, falling back to a literal.
ExprPtr inBoundsSubscript(RNG &Rng, const Env &Scope, int64_t Dim) {
  if (!Scope.empty() && Rng.nextBool(0.7)) {
    for (int Attempt = 0; Attempt != 3; ++Attempt) {
      const LoopVarInfo &V = Scope[Rng.nextBelow(Scope.size())];
      if (!V.Known || V.MaxVal >= Dim)
        continue;
      int64_t MaxOff = Dim - 1 - V.MaxVal;
      int64_t Off =
          MaxOff > 0
              ? static_cast<int64_t>(Rng.nextBelow(static_cast<uint64_t>(
                    std::min<int64_t>(MaxOff, 3) + 1)))
              : 0;
      if (Off == 0)
        return varRef(V.Name);
      return binary(BinOp::Add, varRef(V.Name), intLit(Off));
    }
  }
  return intLit(static_cast<int64_t>(
      Rng.nextBelow(static_cast<uint64_t>(std::max<int64_t>(Dim, 1)))));
}

/// Index of a random fp array of \p P, or npos if none exist.
size_t pickFpArray(RNG &Rng, const Program &P) {
  std::vector<size_t> Fp;
  for (size_t K = 0; K != P.Arrays.size(); ++K)
    if (P.Arrays[K].ElemTy == Type::Fp)
      Fp.push_back(K);
  if (Fp.empty())
    return static_cast<size_t>(-1);
  return Fp[Rng.nextBelow(Fp.size())];
}

ExprPtr fpRef(RNG &Rng, const Program &P, const Env &Scope) {
  switch (Rng.nextBelow(3)) {
  case 0:
    return fpLit(static_cast<double>(Rng.nextBelow(64)) * 0.25 - 8.0);
  case 1:
    if (!P.Vars.empty())
      return varRef(P.Vars[Rng.nextBelow(P.Vars.size())].Name);
    [[fallthrough]];
  default: {
    size_t K = pickFpArray(Rng, P);
    if (K == static_cast<size_t>(-1))
      return fpLit(1.5);
    std::vector<ExprPtr> Subs;
    for (int64_t D : P.Arrays[K].Dims)
      Subs.push_back(inBoundsSubscript(Rng, Scope, D));
    return arrayRef(P.Arrays[K].Name, std::move(Subs));
  }
  }
}

/// A small fp expression over in-scope names (depth at most 2).
ExprPtr smallFpExpr(RNG &Rng, const Program &P, const Env &Scope) {
  if (Rng.nextBool(0.4))
    return fpRef(Rng, P, Scope);
  BinOp Op;
  switch (Rng.nextBelow(6)) {
  case 0: Op = BinOp::Sub; break;
  case 1: Op = BinOp::Mul; break;
  case 2: Op = BinOp::Div; break;
  default: Op = BinOp::Add; break;
  }
  ExprPtr L = fpRef(Rng, P, Scope);
  ExprPtr R = fpRef(Rng, P, Scope);
  if (Op == BinOp::Div) // keep denominators away from zero
    R = binary(BinOp::Add, binary(BinOp::Mul, std::move(R), fpLit(0.25)),
               fpLit(1.0));
  return binary(Op, std::move(L), std::move(R));
}

StmtPtr newAssign(RNG &Rng, const Program &P, const Env &Scope) {
  size_t K = pickFpArray(Rng, P);
  if (K != static_cast<size_t>(-1) && Rng.nextBool(0.6)) {
    std::vector<ExprPtr> Subs;
    for (int64_t D : P.Arrays[K].Dims)
      Subs.push_back(inBoundsSubscript(Rng, Scope, D));
    return assign(arrayRef(P.Arrays[K].Name, std::move(Subs)),
                  smallFpExpr(Rng, P, Scope));
  }
  if (P.Vars.empty())
    return nullptr;
  return assign(varRef(P.Vars[Rng.nextBelow(P.Vars.size())].Name),
                smallFpExpr(Rng, P, Scope));
}

/// A loop-variable name not used by any loop in \p P.
std::string freshLoopVar(const Program &P) {
  std::vector<std::string> Used;
  std::function<void(const StmtList &)> Walk = [&](const StmtList &L) {
    for (const StmtPtr &S : L) {
      if (S->Kind == StmtKind::For) {
        Used.push_back(S->LoopVar);
        Walk(S->Body);
      } else if (S->Kind == StmtKind::If) {
        Walk(S->Then);
        Walk(S->Else);
      }
    }
  };
  Walk(P.Body);
  for (int K = 0;; ++K) {
    std::string Name = "m" + std::to_string(K);
    if (std::find(Used.begin(), Used.end(), Name) == Used.end())
      return Name;
  }
}

/// One comparator other than \p Op, uniformly.
BinOp otherComparator(RNG &Rng, BinOp Op) {
  const BinOp Cmp[] = {BinOp::Lt, BinOp::Le, BinOp::Gt,
                       BinOp::Ge, BinOp::Eq, BinOp::Ne};
  for (;;) {
    BinOp C = Cmp[Rng.nextBelow(6)];
    if (C != Op)
      return C;
  }
}

/// Applies one candidate mutation of kind \p K to \p P. Returns false when
/// the kind has no applicable site; the result is validated by the caller.
bool applyMutation(MutationKind K, Program &P, RNG &Rng) {
  Sites S = collectSites(P);
  switch (K) {
  case MutationKind::InsertAssign: {
    Sites::Block &B = S.Blocks[Rng.nextBelow(S.Blocks.size())];
    StmtPtr A = newAssign(Rng, P, B.E);
    if (!A)
      return false;
    size_t At = Rng.nextBelow(B.List->size() + 1);
    B.List->insert(B.List->begin() + static_cast<ptrdiff_t>(At),
                   std::move(A));
    return true;
  }
  case MutationKind::InsertLoop: {
    Sites::Block &B = S.Blocks[Rng.nextBelow(S.Blocks.size())];
    if (B.Depth >= 3)
      return false;
    int64_t Trip = 2 + static_cast<int64_t>(Rng.nextBelow(7));
    std::string Var = freshLoopVar(P);
    Env Inner = B.E;
    Inner.push_back({Var, Trip - 1, true});
    StmtPtr A = newAssign(Rng, P, Inner);
    if (!A)
      return false;
    StmtList Body;
    Body.push_back(std::move(A));
    size_t At = Rng.nextBelow(B.List->size() + 1);
    B.List->insert(B.List->begin() + static_cast<ptrdiff_t>(At),
                   forLoop(Var, intLit(0), intLit(Trip),
                           Rng.nextBool(0.8) ? 1 : 2, std::move(Body)));
    return true;
  }
  case MutationKind::DeleteStmt: {
    if (S.Stmts.empty())
      return false;
    Sites::StmtAt &T = S.Stmts[Rng.nextBelow(S.Stmts.size())];
    // Keep the program non-empty and never empty a structured body: the
    // printer/parser round trip wants every block to hold a statement.
    if (T.List->size() <= 1)
      return false;
    T.List->erase(T.List->begin() + static_cast<ptrdiff_t>(T.Index));
    return true;
  }
  case MutationKind::SwapStmts: {
    std::vector<Sites::Block *> Candidates;
    for (Sites::Block &B : S.Blocks)
      if (B.List->size() >= 2)
        Candidates.push_back(&B);
    if (Candidates.empty())
      return false;
    Sites::Block *B = Candidates[Rng.nextBelow(Candidates.size())];
    size_t I = Rng.nextBelow(B->List->size() - 1);
    std::swap((*B->List)[I], (*B->List)[I + 1]);
    return true;
  }
  case MutationKind::PerturbSubscript: {
    std::vector<size_t> WithSubs;
    for (size_t I = 0; I != S.Refs.size(); ++I)
      if (!S.Refs[I].E->Args.empty())
        WithSubs.push_back(I);
    if (WithSubs.empty())
      return false;
    Sites::Ref &R = S.Refs[WithSubs[Rng.nextBelow(WithSubs.size())]];
    const ArrayDecl *A = P.findArray(R.E->Name);
    if (!A || A->Dims.size() != R.E->Args.size())
      return false;
    size_t Dim = Rng.nextBelow(A->Dims.size());
    R.E->Args[Dim] = inBoundsSubscript(Rng, R.Scope, A->Dims[Dim]);
    return true;
  }
  case MutationKind::RewriteLoopBounds: {
    if (S.Loops.empty())
      return false;
    Stmt *L = S.Loops[Rng.nextBelow(S.Loops.size())].S;
    if (Rng.nextBool(0.3)) {
      L->Step = L->Step == 1 ? 2 : 1;
      return true;
    }
    if (L->Hi->Kind != ExprKind::IntLit)
      return false;
    int64_t Cap = std::min<int64_t>(2 * L->Hi->IntVal + 2, MaxDim);
    L->Hi = intLit(1 + static_cast<int64_t>(
                           Rng.nextBelow(static_cast<uint64_t>(Cap))));
    return true;
  }
  case MutationKind::RewriteCond: {
    if (S.Conds.empty())
      return false;
    Stmt *C = S.Conds[Rng.nextBelow(S.Conds.size())].S;
    double Roll = Rng.nextDouble();
    if (Roll < 0.4 && C->Cond->Kind == ExprKind::Binary) {
      C->Cond->BOp = otherComparator(Rng, C->Cond->BOp);
      return true;
    }
    if (Roll < 0.7 && !C->Then.empty() && !C->Else.empty()) {
      std::swap(C->Then, C->Else);
      return true;
    }
    C->Cond = unary(UnOp::Not, std::move(C->Cond));
    return true;
  }
  case MutationKind::ResizeArray: {
    if (P.Arrays.empty())
      return false;
    ArrayDecl &A = P.Arrays[Rng.nextBelow(P.Arrays.size())];
    size_t Dim = Rng.nextBelow(A.Dims.size());
    int64_t Old = A.Dims[Dim];
    int64_t New =
        Rng.nextBool(0.6)
            ? std::min<int64_t>(Old + 1 +
                                    static_cast<int64_t>(Rng.nextBelow(32)),
                                MaxDim)
            : std::max<int64_t>(1, Old - 1 -
                                       static_cast<int64_t>(
                                           Rng.nextBelow(8)));
    if (New == Old)
      return false;
    A.Dims[Dim] = New;
    return true;
  }
  case MutationKind::ToggleLayout: {
    std::vector<ArrayDecl *> Multi;
    for (ArrayDecl &A : P.Arrays)
      if (A.Dims.size() >= 2)
        Multi.push_back(&A);
    if (Multi.empty())
      return false;
    ArrayDecl *A = Multi[Rng.nextBelow(Multi.size())];
    A->RowMajor = !A->RowMajor;
    return true;
  }
  case MutationKind::ToggleOutput: {
    if (P.Arrays.size() < 2)
      return false;
    ArrayDecl &A = P.Arrays[Rng.nextBelow(P.Arrays.size())];
    int Outputs = 0;
    for (const ArrayDecl &D : P.Arrays)
      Outputs += D.IsOutput ? 1 : 0;
    if (A.IsOutput && Outputs <= 1)
      return false; // keep the checksum sensitive to something
    A.IsOutput = !A.IsOutput;
    return true;
  }
  }
  return false;
}

} // namespace

std::string fuzz::validateProgram(const lang::Program &P) {
  // Check a copy (checkProgram mutates: name resolution + conversions).
  Program Checked = P;
  if (std::string E = checkProgram(Checked); !E.empty())
    return "check: " + E;
  // Print -> parse round trip: the corpus stores source text, so a mutant
  // that cannot survive re-parsing is useless no matter how it evaluates.
  std::string Text = printProgram(Checked);
  ParseResult R = parseProgram(Text, P.Name);
  if (!R.ok())
    return "reparse: " + R.Error;
  if (std::string E = checkProgram(R.Prog); !E.empty())
    return "recheck: " + E;
  // AST evaluation rejects out-of-bounds subscripts and runaway loops.
  lang::EvalResult Ev = lang::evalProgram(Checked, EvalBudget);
  if (!Ev.ok())
    return "eval: " + Ev.Error;
  return "";
}

std::optional<MutationKind> fuzz::mutateProgram(lang::Program &P, RNG &Rng,
                                                MutationCounts *Counts) {
  for (int Attempt = 0; Attempt != Attempts; ++Attempt) {
    auto K = static_cast<MutationKind>(
        Rng.nextBelow(static_cast<uint64_t>(NumMutationKinds)));
    Program Cand = P;
    if (!applyMutation(K, Cand, Rng))
      continue;
    if (lang::estimateCost(Cand.Body) > MaxCost ||
        !validateProgram(Cand).empty()) {
      if (Counts)
        ++Counts->Rejected;
      continue;
    }
    // Commit the CHECKED candidate, not the raw edit: freshly built nodes
    // carry no type/conversion annotations yet, and an unnormalized AST is
    // a semantic trap — lang::evalProgram honors the stale annotations
    // while compileProgram re-checks its own copy, so the two can disagree
    // on a program that is unambiguous on paper. Normalizing here keeps
    // the in-memory mutant bit-for-bit equivalent to its printed source.
    if (!checkProgram(Cand).empty()) {
      if (Counts)
        ++Counts->Rejected;
      continue; // unreachable given validation, but never commit unchecked
    }
    P = std::move(Cand);
    if (Counts)
      ++Counts->Applied[static_cast<int>(K)];
    return K;
  }
  return std::nullopt;
}
