//===- lang/Generate.cpp - Random kernel-program generator -----------------===//

#include "lang/Generate.h"

#include "lang/Parser.h"
#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::lang;

namespace {

// The shape of a generated program.
constexpr int MaxArrays = 4;      ///< fp arrays (plus maybe an index array).
constexpr int MaxArrayElems = 64; ///< per dimension.
constexpr int MaxStmtsPerBlock = 5;
constexpr int MaxLoopDepth = 3;
constexpr int MaxTrip = 24; ///< literal loop trip counts.
constexpr int MaxExprDepth = 3;

class Generator {
public:
  explicit Generator(uint64_t Seed) : Rng(Seed) {}

  Program run() {
    P.Name = "fuzz";

    // All fp arrays share the leading dimension so index-array values are
    // always in range for any of them. The lead dimension is at least 8
    // (loops need room for a few unrolled trips).
    LeadDim = 8 + static_cast<int64_t>(Rng.nextBelow(MaxArrayElems - 7));
    int NumArrays = 1 + static_cast<int>(Rng.nextBelow(MaxArrays));
    for (int K = 0; K != NumArrays; ++K) {
      ArrayDecl A;
      A.Name = "a" + std::to_string(K);
      A.Dims.push_back(LeadDim);
      if (Rng.nextBool(0.4))
        A.Dims.push_back(
            4 + static_cast<int64_t>(Rng.nextBelow(12))); // modest 2D
      A.RowMajor = !Rng.nextBool(0.25);
      A.IsOutput = K == 0 || Rng.nextBool(0.3);
      P.Arrays.push_back(std::move(A));
    }
    if (Rng.nextBool(0.5)) {
      ArrayDecl Idx;
      Idx.Name = "gidx";
      Idx.ElemTy = Type::Int;
      Idx.Dims.push_back(LeadDim);
      P.Arrays.push_back(std::move(Idx));
      HasIndexArray = true;
    }

    int NumScalars = 2 + static_cast<int>(Rng.nextBelow(3));
    for (int K = 0; K != NumScalars; ++K) {
      VarDecl V;
      V.Name = "s" + std::to_string(K);
      V.FpInit = static_cast<double>(Rng.nextBelow(100)) * 0.125 - 4.0;
      P.Vars.push_back(std::move(V));
    }

    // Deterministic in-range fill for the index array (a reversal).
    if (HasIndexArray) {
      StmtList Body;
      Body.push_back(assign(
          arrayRef("gidx", vec(varRef("z"))),
          binary(BinOp::Sub, intLit(LeadDim - 1), varRef("z"))));
      P.Body.push_back(forLoop("z", intLit(0), intLit(LeadDim), 1,
                               std::move(Body)));
    }

    genBlock(P.Body, /*Depth=*/0);

    // Always read something into an output so the checksum is sensitive.
    P.Body.push_back(assign(arrayRef(P.Arrays[0].Name, subsFor(0)),
                            varRef(P.Vars[0].Name)));

    [[maybe_unused]] std::string E = checkProgram(P);
    assert(E.empty() && "generator produced an ill-formed program");
    return std::move(P);
  }

private:
  RNG Rng;
  Program P;
  int64_t LeadDim = 8;
  bool HasIndexArray = false;
  int LoopCounter = 0;
  int StmtBudget = 60;

  struct LoopVar {
    std::string Name;
    int64_t MaxVal; ///< inclusive upper bound on the variable's value.
  };
  std::vector<LoopVar> LoopVars;

  static std::vector<ExprPtr> vec(ExprPtr A) {
    std::vector<ExprPtr> V;
    V.push_back(std::move(A));
    return V;
  }
  static std::vector<ExprPtr> vec(ExprPtr A, ExprPtr B) {
    std::vector<ExprPtr> V;
    V.push_back(std::move(A));
    V.push_back(std::move(B));
    return V;
  }

  /// An int expression guaranteed to lie in [0, Dim).
  ExprPtr subscript(int64_t Dim) {
    // Try a loop variable (+ small offset) that provably fits.
    if (!LoopVars.empty() && Rng.nextBool(0.75)) {
      for (int Attempt = 0; Attempt != 3; ++Attempt) {
        const LoopVar &LV =
            LoopVars[Rng.nextBelow(LoopVars.size())];
        if (LV.MaxVal >= Dim)
          continue;
        int64_t MaxOff = Dim - 1 - LV.MaxVal;
        int64_t Off = MaxOff > 0
                          ? static_cast<int64_t>(Rng.nextBelow(
                                static_cast<uint64_t>(
                                    std::min<int64_t>(MaxOff, 3) + 1)))
                          : 0;
        if (Off == 0)
          return varRef(LV.Name);
        return binary(BinOp::Add, varRef(LV.Name), intLit(Off));
      }
    }
    // Indirect through the index array (values < LeadDim <= any fp Dim?
    // only when Dim == LeadDim).
    if (HasIndexArray && Dim == LeadDim && Rng.nextBool(0.3))
      return arrayRef("gidx", vec(subscript(LeadDim)));
    return intLit(static_cast<int64_t>(
        Rng.nextBelow(static_cast<uint64_t>(Dim))));
  }

  /// Subscript list for array \p K.
  std::vector<ExprPtr> subsFor(size_t K) {
    std::vector<ExprPtr> Subs;
    for (int64_t D : P.Arrays[K].Dims)
      Subs.push_back(subscript(D));
    return Subs;
  }

  /// Index of a random fp array.
  size_t fpArray() {
    for (;;) {
      size_t K = Rng.nextBelow(P.Arrays.size());
      if (P.Arrays[K].ElemTy == Type::Fp)
        return K;
    }
  }

  ExprPtr fpExpr(int Depth) {
    if (Depth >= MaxExprDepth || Rng.nextBool(0.35)) {
      switch (Rng.nextBelow(3)) {
      case 0:
        return fpLit(static_cast<double>(Rng.nextBelow(64)) * 0.25 - 8.0);
      case 1:
        return varRef(P.Vars[Rng.nextBelow(P.Vars.size())].Name);
      default: {
        size_t K = fpArray();
        return arrayRef(P.Arrays[K].Name, subsFor(K));
      }
      }
    }
    BinOp Op;
    switch (Rng.nextBelow(8)) {
    case 0: Op = BinOp::Sub; break;
    case 1: Op = BinOp::Mul; break;
    case 2: Op = BinOp::Div; break; // fp division; inf/nan are deterministic
    default: Op = BinOp::Add; break;
    }
    ExprPtr L = fpExpr(Depth + 1);
    ExprPtr R = fpExpr(Depth + 1);
    if (Op == BinOp::Div) // keep denominators away from zero
      R = binary(BinOp::Add, binary(BinOp::Mul, std::move(R), fpLit(0.25)),
                 fpLit(1.0));
    if (Rng.nextBool(0.1))
      L = unary(UnOp::Neg, std::move(L));
    return binary(Op, std::move(L), std::move(R));
  }

  ExprPtr condition() {
    return binary(Rng.nextBool(0.5) ? BinOp::Lt : BinOp::Ge,
                  fpExpr(MaxExprDepth - 1),
                  fpExpr(MaxExprDepth - 1));
  }

  void genBlock(StmtList &Out, int Depth) {
    int N = 1 + static_cast<int>(Rng.nextBelow(MaxStmtsPerBlock));
    for (int K = 0; K != N && StmtBudget > 0; ++K) {
      --StmtBudget;
      double Roll = Rng.nextDouble();
      if (Roll < 0.45) {
        // Array store or scalar assignment.
        if (Rng.nextBool(0.6)) {
          size_t A = fpArray();
          Out.push_back(
              assign(arrayRef(P.Arrays[A].Name, subsFor(A)), fpExpr(0)));
        } else {
          Out.push_back(assign(
              varRef(P.Vars[Rng.nextBelow(P.Vars.size())].Name), fpExpr(0)));
        }
      } else if (Roll < 0.70 && Depth < MaxLoopDepth) {
        // Loop with a literal trip count; deeper nests get shorter trips so
        // the total work stays bounded.
        int64_t Trip =
            2 + static_cast<int64_t>(Rng.nextBelow(static_cast<uint64_t>(
                    std::max(2, MaxTrip >> (2 * Depth)))));
        Trip = std::min<int64_t>(Trip, LeadDim);
        int64_t Step = Rng.nextBool(0.8) ? 1 : 2;
        std::string Var = "i" + std::to_string(LoopCounter++);
        LoopVars.push_back({Var, Trip - 1});
        StmtList Body;
        genBlock(Body, Depth + 1);
        if (Body.empty())
          Body.push_back(assign(varRef(P.Vars[0].Name),
                                binary(BinOp::Add, varRef(P.Vars[0].Name),
                                       fpLit(1.0))));
        LoopVars.pop_back();
        Out.push_back(
            forLoop(Var, intLit(0), intLit(Trip), Step, std::move(Body)));
      } else {
        StmtList Then, Else;
        genBlock(Then, Depth + 1);
        if (Then.empty())
          continue;
        if (Rng.nextBool(0.5))
          genBlock(Else, Depth + 1);
        Out.push_back(ifStmt(condition(), std::move(Then), std::move(Else)));
      }
    }
  }
};

} // namespace

Program lang::generateProgram(uint64_t Seed) {
  return Generator(Seed).run();
}
