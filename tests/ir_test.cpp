//===- tests/ir_test.cpp - Unit tests for the IR, verifier, interpreter ---===//

#include "NaiveLiveness.h"
#include "ir/IR.h"
#include "ir/IRParser.h"
#include "ir/Interp.h"
#include "ir/Liveness.h"

#include <gtest/gtest.h>

using namespace bsched;
using namespace bsched::ir;

namespace {

/// Builds a module that sums A[0..N) into B[0] with a simple counted loop:
///   b0: i = 0; sum = 0.0; base = &A
///   b1: t = (i < N); br t, b2, b3
///   b2: x = A[i]; sum += x; i += 1; jmp b1
///   b3: B[0] = sum; ret
Module buildSumModule(int64_t N) {
  Module M;
  ArrayInfo A;
  A.Name = "A";
  A.Dims = {N};
  int AId = M.addArray(A);
  ArrayInfo B;
  B.Name = "B";
  B.Dims = {1};
  B.IsOutput = true;
  int BId = M.addArray(B);
  M.layout();

  Function &F = M.Fn;
  Reg I = F.makeReg(RegClass::Int);
  Reg Sum = F.makeReg(RegClass::Fp);
  Reg ABase = F.makeReg(RegClass::Int);
  Reg BBase = F.makeReg(RegClass::Int);
  Reg T = F.makeReg(RegClass::Int);
  Reg X = F.makeReg(RegClass::Fp);
  Reg Addr = F.makeReg(RegClass::Int);
  Reg Off = F.makeReg(RegClass::Int);

  int B0 = F.makeBlock();
  int B1 = F.makeBlock();
  int B2 = F.makeBlock();
  int B3 = F.makeBlock();

  auto emit = [&F](int BB, Instr In) { F.Blocks[BB].Instrs.push_back(In); };

  {
    Instr In;
    In.Op = Opcode::LdI;
    In.Dst = I;
    In.Imm = 0;
    In.HasImm = true;
    emit(B0, In);
    In = Instr();
    In.Op = Opcode::FLdI;
    In.Dst = Sum;
    In.setFImm(0.0);
    emit(B0, In);
    In = Instr();
    In.Op = Opcode::LdI;
    In.Dst = ABase;
    In.Imm = static_cast<int64_t>(M.Arrays[AId].Base);
    In.HasImm = true;
    emit(B0, In);
    In = Instr();
    In.Op = Opcode::LdI;
    In.Dst = BBase;
    In.Imm = static_cast<int64_t>(M.Arrays[BId].Base);
    In.HasImm = true;
    emit(B0, In);
    In = Instr();
    In.Op = Opcode::Jmp;
    In.Target0 = B1;
    emit(B0, In);
  }
  {
    Instr In;
    In.Op = Opcode::CmpLt;
    In.Dst = T;
    In.SrcA = I;
    In.Imm = N;
    In.HasImm = true;
    emit(B1, In);
    In = Instr();
    In.Op = Opcode::Br;
    In.SrcA = T;
    In.Target0 = B2;
    In.Target1 = B3;
    emit(B1, In);
  }
  {
    Instr In;
    In.Op = Opcode::Sll;
    In.Dst = Off;
    In.SrcA = I;
    In.Imm = 3;
    In.HasImm = true;
    emit(B2, In);
    In = Instr();
    In.Op = Opcode::IAdd;
    In.Dst = Addr;
    In.SrcA = ABase;
    In.SrcB = Off;
    emit(B2, In);
    In = Instr();
    In.Op = Opcode::FLoad;
    In.Dst = X;
    In.Base = Addr;
    In.Offset = 0;
    In.Mem.ArrayId = AId;
    emit(B2, In);
    In = Instr();
    In.Op = Opcode::FAdd;
    In.Dst = Sum;
    In.SrcA = Sum;
    In.SrcB = X;
    emit(B2, In);
    In = Instr();
    In.Op = Opcode::IAdd;
    In.Dst = I;
    In.SrcA = I;
    In.Imm = 1;
    In.HasImm = true;
    emit(B2, In);
    In = Instr();
    In.Op = Opcode::Jmp;
    In.Target0 = B1;
    emit(B2, In);
  }
  {
    Instr In;
    In.Op = Opcode::FStore;
    In.SrcA = Sum;
    In.Base = BBase;
    In.Offset = 0;
    In.Mem.ArrayId = BId;
    emit(B3, In);
    In = Instr();
    In.Op = Opcode::Ret;
    emit(B3, In);
  }
  return M;
}

} // namespace

TEST(IRBasics, RegHelpers) {
  Reg R;
  EXPECT_FALSE(R.isValid());
  EXPECT_TRUE(physIntReg(0).isPhys());
  EXPECT_TRUE(physFpReg(31).isPhys());
  Function F;
  Reg V = F.makeReg(RegClass::Fp);
  EXPECT_TRUE(V.isVirtual());
  EXPECT_EQ(F.regClass(V), RegClass::Fp);
  EXPECT_EQ(F.regClass(physIntReg(5)), RegClass::Int);
  EXPECT_EQ(F.regClass(physFpReg(5)), RegClass::Fp);
}

TEST(IRBasics, OpInfoTable) {
  EXPECT_EQ(opInfo(Opcode::IMul).Latency, 8);
  EXPECT_EQ(opInfo(Opcode::FDiv).Latency, 30);
  EXPECT_EQ(opInfo(Opcode::FAdd).Latency, 4);
  EXPECT_EQ(opInfo(Opcode::Load).Latency, LoadHitLatency);
  EXPECT_TRUE(opInfo(Opcode::Load).IsLoad);
  EXPECT_TRUE(opInfo(Opcode::FStore).IsStore);
  EXPECT_TRUE(opInfo(Opcode::Br).IsTerminator);
  EXPECT_EQ(opInfo(Opcode::IMul).Cls, InstrClass::LongInt);
  EXPECT_EQ(opInfo(Opcode::FDiv).Cls, InstrClass::LongFp);
}

TEST(IRBasics, FImmRoundTrip) {
  Instr In;
  In.setFImm(3.14159);
  EXPECT_DOUBLE_EQ(In.fimm(), 3.14159);
  In.setFImm(-0.0);
  EXPECT_DOUBLE_EQ(In.fimm(), -0.0);
}

TEST(IRBasics, CMovReadsOldDst) {
  Instr In;
  In.Op = Opcode::CMov;
  In.Dst = Reg(100);
  In.SrcA = Reg(101);
  In.SrcB = Reg(102);
  std::vector<Reg> Uses;
  In.appendUses(Uses);
  ASSERT_EQ(Uses.size(), 3u);
  EXPECT_EQ(Uses[2], Reg(100));
}

TEST(Layout, ArraysAreCacheLineAligned) {
  Module M = buildSumModule(7);
  for (const ArrayInfo &A : M.Arrays)
    EXPECT_EQ(A.Base % 32, 0u) << A.Name;
  EXPECT_GE(M.Arrays[1].Base, M.Arrays[0].Base + 7 * 8);
  EXPECT_GE(M.SpillArrayId, 0);
  EXPECT_GT(M.MemorySize, M.Arrays.back().Base);
}

TEST(Layout, Idempotent) {
  Module M = buildSumModule(4);
  uint64_t Base0 = M.Arrays[0].Base;
  int NumArrays = static_cast<int>(M.Arrays.size());
  M.layout();
  EXPECT_EQ(M.Arrays[0].Base, Base0);
  EXPECT_EQ(static_cast<int>(M.Arrays.size()), NumArrays);
}

TEST(Verifier, AcceptsWellFormed) {
  Module M = buildSumModule(3);
  EXPECT_EQ(verify(M), "");
}

TEST(Verifier, RejectsMissingTerminator) {
  Module M = buildSumModule(3);
  M.Fn.Blocks[3].Instrs.pop_back(); // drop ret
  EXPECT_NE(verify(M), "");
}

TEST(Verifier, RejectsClassMismatch) {
  Module M = buildSumModule(3);
  // FAdd with an integer operand.
  for (Instr &I : M.Fn.Blocks[2].Instrs)
    if (I.Op == Opcode::FAdd)
      I.SrcB = I.SrcA = Reg(0); // physical int reg
  EXPECT_NE(verify(M), "");
}

TEST(Verifier, RejectsBadBranchTarget) {
  Module M = buildSumModule(3);
  M.Fn.Blocks[1].terminator().Target0 = 99;
  EXPECT_NE(verify(M), "");
}

TEST(Verifier, RejectsTerminatorMidBlock) {
  Module M = buildSumModule(3);
  Instr Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Target0 = 0;
  auto &Instrs = M.Fn.Blocks[2].Instrs;
  Instrs.insert(Instrs.begin(), Jmp);
  EXPECT_NE(verify(M), "");
}

TEST(Interp, SumsArray) {
  // All memory starts zeroed, so the sum is 0; use a program that writes
  // then reads instead: store i as double via ItoF into A, then sum.
  const int64_t N = 10;
  Module M = buildSumModule(N);
  // Prepend an init loop is complex here; instead run and check determinism
  // and the block counts of the sum loop.
  InterpResult R = interpret(M);
  EXPECT_TRUE(R.Finished);
  EXPECT_EQ(R.BlockCounts[0], 1u);
  EXPECT_EQ(R.BlockCounts[1], static_cast<uint64_t>(N + 1));
  EXPECT_EQ(R.BlockCounts[2], static_cast<uint64_t>(N));
  EXPECT_EQ(R.BlockCounts[3], 1u);
  // Edge counts: b1 takes the loop edge N times, exits once.
  EXPECT_EQ(R.EdgeCounts[1][0], static_cast<uint64_t>(N));
  EXPECT_EQ(R.EdgeCounts[1][1], 1u);
}

TEST(Interp, ChecksumIsDeterministic) {
  Module M1 = buildSumModule(5);
  Module M2 = buildSumModule(5);
  EXPECT_EQ(interpret(M1).Checksum, interpret(M2).Checksum);
}

TEST(Interp, RespectsInstructionBudget) {
  Module M = buildSumModule(1000000);
  InterpResult R = interpret(M, 100);
  EXPECT_FALSE(R.Finished);
  EXPECT_LE(R.DynInstrs, 100u);
}

TEST(Interp, DynInstrCountMatchesStructure) {
  const int64_t N = 4;
  Module M = buildSumModule(N);
  InterpResult R = interpret(M);
  // b0: 5 instrs, b1: 2 per visit, b2: 6 per iteration, b3: 2.
  uint64_t Expected = 5 + 2 * (N + 1) + 6 * N + 2;
  EXPECT_EQ(R.DynInstrs, Expected);
}

TEST(Printer, ContainsOpcodesAndBlocks) {
  Module M = buildSumModule(2);
  std::string S = printFunction(M.Fn);
  EXPECT_NE(S.find("b0:"), std::string::npos);
  EXPECT_NE(S.find("fld"), std::string::npos);
  EXPECT_NE(S.find("br"), std::string::npos);
  EXPECT_NE(S.find("ret"), std::string::npos);
}

TEST(Liveness, LoopCarriedValuesLiveAroundLoop) {
  Module M = buildSumModule(3);
  Liveness L = computeLiveness(M.Fn);
  // Sum (vreg index 1 => id 65) is live into the loop header and body.
  Reg Sum(NumPhysTotal + 1);
  EXPECT_TRUE(L.isLiveIn(1, Sum));
  EXPECT_TRUE(L.isLiveIn(2, Sum));
  EXPECT_TRUE(L.isLiveIn(3, Sum));
  // X (vreg index 5) is block-local to b2: not live in anywhere.
  Reg X(NumPhysTotal + 5);
  for (int B = 0; B != 4; ++B)
    EXPECT_FALSE(L.isLiveIn(B, X)) << "block " << B;
  test::expectMatchesNaive(L, M.Fn, "sum loop");
}

TEST(Liveness, DeadAfterLastUse) {
  Module M = buildSumModule(3);
  Liveness L = computeLiveness(M.Fn);
  Reg Sum(NumPhysTotal + 1);
  // Sum is consumed by the store in b3 and not live out of it.
  EXPECT_FALSE(L.isLiveOut(3, Sum));
}

//===----------------------------------------------------------------------===//
// Liveness on hand-written CFG shapes. Lowered modules never contain an
// unreachable block or an irreducible cycle, so only these reach those
// paths of the solver's block order. Each case checks a few bits by hand,
// then every row of computeLiveness and of a LivenessTracker against the
// naive reference solve.
//===----------------------------------------------------------------------===//

namespace {

Reg vreg(unsigned N) { return Reg(NumPhysTotal + N); }

Function parseFunction(const char *Text) {
  ParseIRResult R = parseModule(Text);
  EXPECT_TRUE(R.ok()) << R.Error << "\n" << Text;
  return std::move(R.M.Fn);
}

/// computeLiveness and a fresh tracker, each against the naive solve.
Liveness solveAndCheck(const Function &F) {
  LivenessTracker T;
  T.compute(F);
  test::expectMatchesNaive(T, F, F.Name + " tracker");
  Liveness L = computeLiveness(F);
  test::expectMatchesNaive(L, F, F.Name + " computeLiveness");
  return L;
}

} // namespace

/// b1 and b3 are unreachable; b3 jumps to b1, which jumps into reachable
/// code. An unreachable block still gets the least fixpoint: its own
/// upward-exposed use and what its successor needs.
TEST(LivenessShapes, UnreachableBlocks) {
  Function F = parseFunction(R"(
func unreachable
b0:
  ldi v0, 1
  jmp b2
b1:
  add v1, v2, #1
  jmp b2
b2:
  add v3, v0, #1
  ret
b3:
  add v4, v0, v5
  jmp b1
)");
  ASSERT_EQ(F.Blocks.size(), 4u);
  Liveness L = solveAndCheck(F);
  EXPECT_TRUE(L.isLiveIn(1, vreg(2)));  // its own upward-exposed use
  EXPECT_TRUE(L.isLiveIn(1, vreg(0)));  // needed by b2
  EXPECT_TRUE(L.isLiveOut(3, vreg(2))); // through unreachable b1
  EXPECT_TRUE(L.isLiveIn(3, vreg(5)));
  EXPECT_FALSE(L.isLiveIn(0, vreg(0)));
  EXPECT_FALSE(L.isLiveIn(2, vreg(2)));
  EXPECT_FALSE(L.isLiveOut(1, vreg(1)));
}

TEST(LivenessShapes, SelfLoop) {
  Function F = parseFunction(R"(
func selfloop
b0:
  ldi v0, 0
  ldi v1, 10
  jmp b1
b1:
  add v0, v0, #1
  cmplt v2, v0, v1
  br v2, b1, b2
b2:
  add v3, v0, #0
  ret
)");
  Liveness L = solveAndCheck(F);
  EXPECT_TRUE(L.isLiveIn(1, vreg(0)));
  EXPECT_TRUE(L.isLiveIn(1, vreg(1)));
  EXPECT_TRUE(L.isLiveOut(1, vreg(1))); // around the self edge
  EXPECT_FALSE(L.isLiveIn(1, vreg(2)));
  EXPECT_FALSE(L.isLiveIn(2, vreg(1)));
  EXPECT_FALSE(L.isLiveOut(2, vreg(0)));
}

/// b1 <-> b2 is a cycle with two entries from b0 (irreducible). v4 is used
/// only in b1, so it is live around the whole cycle.
TEST(LivenessShapes, IrreducibleTwoEntryCycle) {
  Function F = parseFunction(R"(
func irreducible
b0:
  ldi v0, 0
  ldi v1, 5
  ldi v4, 2
  cmplt v2, v0, v1
  br v2, b1, b2
b1:
  add v0, v0, v4
  jmp b2
b2:
  cmplt v3, v0, v1
  br v3, b1, b3
b3:
  add v5, v0, #0
  ret
)");
  Liveness L = solveAndCheck(F);
  EXPECT_TRUE(L.isLiveIn(2, vreg(4)));
  EXPECT_TRUE(L.isLiveOut(1, vreg(4)));
  EXPECT_TRUE(L.isLiveIn(1, vreg(1)));
  EXPECT_TRUE(L.isLiveIn(2, vreg(0)));
  EXPECT_FALSE(L.isLiveIn(3, vreg(4)));
  EXPECT_FALSE(L.isLiveOut(0, vreg(2)));
}

/// The loop header b1 sits below its preheader b2 and its body b3: the
/// forward edge b2 -> b1 and the back edge b3 -> b1 both go to a lower id.
TEST(LivenessShapes, EdgesToLowerIds) {
  Function F = parseFunction(R"(
func lowerids
b0:
  ldi v0, 0
  ldi v1, 8
  jmp b2
b1:
  cmplt v2, v0, v1
  br v2, b3, b4
b2:
  ldi v5, 3
  jmp b1
b3:
  add v0, v0, v5
  jmp b1
b4:
  add v6, v0, #0
  ret
)");
  Liveness L = solveAndCheck(F);
  EXPECT_TRUE(L.isLiveOut(2, vreg(5)));
  EXPECT_TRUE(L.isLiveIn(1, vreg(5)));
  EXPECT_TRUE(L.isLiveIn(3, vreg(5)));
  EXPECT_TRUE(L.isLiveIn(2, vreg(1)));
  EXPECT_FALSE(L.isLiveIn(2, vreg(5)));
  EXPECT_FALSE(L.isLiveIn(0, vreg(1)));
  EXPECT_FALSE(L.isLiveIn(4, vreg(1)));
}

TEST(LivenessShapes, SingleBlockRet) {
  Function F = parseFunction(R"(
func single
b0:
  ldi v0, 1
  add v1, v0, v2
  ret
)");
  Liveness L = solveAndCheck(F);
  EXPECT_TRUE(L.isLiveIn(0, vreg(2)));
  EXPECT_FALSE(L.isLiveIn(0, vreg(0)));
  EXPECT_FALSE(L.LiveOut[0].any());
}

/// A function with no blocks (ir::verify rejects one, but nothing stops a
/// caller from solving it) yields empty rows.
TEST(LivenessShapes, NoBlocks) {
  Function F;
  LivenessTracker T;
  T.compute(F);
  EXPECT_EQ(T.numBlocks(), 0u);
  EXPECT_EQ(T.BlocksResolved, 0);
  Liveness L = computeLiveness(F);
  EXPECT_TRUE(L.LiveIn.empty());
  EXPECT_TRUE(L.LiveOut.empty());
}
