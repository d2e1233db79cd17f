//===- tests/verify_test.cpp - Static verifier subsystem tests -------------===//
//
// Three parts:
//  - Positive: the real pipeline, over all 17 workloads and every fuzzing
//    configuration, must produce zero diagnostics (the verifier is wired
//    into driver::compileProgram and a diagnostic is a hard compile error).
//  - Negative: hand-constructed illegal modules must make each check fire
//    with a diagnostic localized to the offending block/instruction. These
//    prove the verifier is not vacuously happy.
//  - Pinned: one digest over every report of a seeded mutation sweep of
//    real compiles, so a diagnostic's kind, position, text or order cannot
//    change unnoticed.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/ProfileCache.h"
#include "driver/Workloads.h"
#include "ir/IRParser.h"
#include "support/RNG.h"
#include "support/Serialize.h"
#include "trace/Trace.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bsched;
using namespace bsched::ir;
using namespace bsched::verify;

namespace {

/// Same configuration matrix as fuzz_test.cpp.
std::vector<driver::CompileOptions> allConfigs() {
  std::vector<driver::CompileOptions> Cs;
  for (auto Kind : {sched::SchedulerKind::Traditional,
                    sched::SchedulerKind::Balanced}) {
    auto Add = [&](int LU, bool TrS, bool LA) {
      driver::CompileOptions O;
      O.Scheduler = Kind;
      O.UnrollFactor = LU;
      O.TraceScheduling = TrS;
      O.LocalityAnalysis = LA;
      Cs.push_back(O);
    };
    Add(1, false, false);
    Add(4, false, false);
    Add(8, true, true);
  }
  driver::CompileOptions Est;
  Est.TraceScheduling = true;
  Est.UseEstimatedProfile = true;
  Est.UnrollFactor = 4;
  Cs.push_back(Est);
  driver::CompileOptions Hy;
  Hy.Scheduler = sched::SchedulerKind::Hybrid;
  Cs.push_back(Hy);
  driver::CompileOptions Plain;
  Plain.Lower.StrengthReduction = false;
  Plain.Lower.IfConversion = false;
  Cs.push_back(Plain);
  driver::CompileOptions Tight;
  Tight.UnrollFactor = 4;
  Tight.RegAlloc.AllocatablePerClass = 6;
  Cs.push_back(Tight);
  driver::CompileOptions Spill;
  Spill.UnrollFactor = 8;
  Spill.TraceScheduling = true;
  Spill.RegAlloc.AllocatablePerClass = 4;
  Cs.push_back(Spill);
  return Cs;
}

Module parse(const char *Text) {
  ParseIRResult R = parseModule(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

/// True if any diagnostic of \p Kind mentions \p Needle and (when >= 0)
/// points at \p Block.
bool hasDiag(const VerifyResult &R, Check Kind, const std::string &Needle,
             int Block = -1) {
  return std::any_of(R.Diags.begin(), R.Diags.end(), [&](const Diagnostic &D) {
    return D.Kind == Kind &&
           D.Message.find(Needle) != std::string::npos &&
           (Block < 0 || D.Block == Block);
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Positive: real pipeline output verifies clean everywhere.
//===----------------------------------------------------------------------===//

TEST(VerifyPipeline, AllWorkloadsAllConfigsZeroDiagnostics) {
  for (const driver::Workload &W : driver::workloads()) {
    lang::Program P = driver::parseWorkload(W);
    for (const driver::CompileOptions &Opts : allConfigs()) {
      driver::CompileResult C = driver::compileProgram(P, Opts);
      std::string DiagText;
      for (const Diagnostic &D : C.VerifyDiags)
        DiagText += toString(D) + "\n";
      ASSERT_TRUE(C.VerifyDiags.empty())
          << W.Name << " [" << Opts.tag() << "]:\n" << DiagText;
      ASSERT_TRUE(C.ok()) << W.Name << " [" << Opts.tag() << "]: " << C.Error;
    }
  }
}

//===----------------------------------------------------------------------===//
// Negative: block-local scheduling checks.
//===----------------------------------------------------------------------===//

namespace {

const char *StraightLine = "func f\n"
                           "b0:\n"
                           "  ldi v0, 1\n"
                           "  add v1, v0, #1\n"
                           "  add v2, v1, #2\n"
                           "  ret\n";

} // namespace

TEST(VerifySchedule, LegalPermutationIsClean) {
  Module B = parse(StraightLine);
  Module A = B;
  // add v2 depends on add v1; ldi v0 may not move below its use. The only
  // legal non-identity permutation here is... none, so test identity.
  EXPECT_TRUE(verifySchedule(B, A).ok());
}

TEST(VerifySchedule, DependenceInversionCaught) {
  Module B = parse(StraightLine);
  Module A = B;
  // Schedule the consumer above its producer.
  std::swap(A.Fn.Blocks[0].Instrs[0], A.Fn.Blocks[0].Instrs[1]);
  VerifyResult R = verifySchedule(B, A);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Schedule, "despite a dependence", 0))
      << R.report();
  EXPECT_EQ(R.Diags.front().Block, 0);
  EXPECT_EQ(R.Diags.front().Instr, 0); // the hoisted consumer's new slot.
}

TEST(VerifySchedule, DroppedInstructionCaught) {
  Module B = parse(StraightLine);
  Module A = B;
  A.Fn.Blocks[0].Instrs.erase(A.Fn.Blocks[0].Instrs.begin() + 2);
  VerifyResult R = verifySchedule(B, A);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Schedule, "dropped", 0)) << R.report();
}

TEST(VerifySchedule, InventedInstructionCaught) {
  Module B = parse(StraightLine);
  Module A = B;
  // Duplicate the first instruction; the second copy matches nothing.
  A.Fn.Blocks[0].Instrs.insert(A.Fn.Blocks[0].Instrs.begin(),
                               A.Fn.Blocks[0].Instrs[0]);
  VerifyResult R = verifySchedule(B, A);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Schedule, "not present", 0)) << R.report();
}

TEST(VerifySchedule, DisplacedTerminatorCaught) {
  Module B = parse("func f\n"
                   "b0:\n"
                   "  ldi v0, 1\n"
                   "  ldi v1, 2\n"
                   "  ret\n");
  Module A = B;
  std::rotate(A.Fn.Blocks[0].Instrs.begin(),
              A.Fn.Blocks[0].Instrs.end() - 1, A.Fn.Blocks[0].Instrs.end());
  VerifyResult R = verifySchedule(B, A);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Schedule, "terminator", 0)) << R.report();
}

TEST(VerifySchedule, StoreLoadReorderCaught) {
  // A load scheduled above a store to a possibly-aliasing address (no
  // affine form in parsed IR, so the pair must be kept in order).
  Module B = parse("array A 4\n"
                   "func f\n"
                   "b0:\n"
                   "  ldi v0, 64\n"
                   "  ldi v1, 9\n"
                   "  st v1, 0(v0)\n"
                   "  ld v2, 0(v0)\n"
                   "  ret\n");
  Module A = B;
  std::swap(A.Fn.Blocks[0].Instrs[2], A.Fn.Blocks[0].Instrs[3]);
  VerifyResult R = verifySchedule(B, A);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Schedule, "despite a dependence", 0))
      << R.report();
}

TEST(VerifySchedule, HitFloatingAboveMissCaught) {
  Module B = parse("array A 4\n"
                   "func f\n"
                   "b0:\n"
                   "  ldi v0, 64\n"
                   "  fld v1, 0(v0)  ; miss\n"
                   "  fld v2, 8(v0)  ; hit\n"
                   "  ret\n");
  B.Fn.Blocks[0].Instrs[1].LocalityGroup = 0;
  B.Fn.Blocks[0].Instrs[2].LocalityGroup = 0;
  Module A = B;
  EXPECT_TRUE(verifySchedule(B, A).ok());
  // Load-load pairs reorder freely, so only the locality contract fires.
  std::swap(A.Fn.Blocks[0].Instrs[1], A.Fn.Blocks[0].Instrs[2]);
  VerifyResult R = verifySchedule(B, A);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Locality, "floated above", 0)) << R.report();
  EXPECT_TRUE(std::all_of(R.Diags.begin(), R.Diags.end(),
                          [](const Diagnostic &D) {
                            return D.Kind == Check::Locality;
                          }))
      << R.report();
}

TEST(VerifyModule, AnnotationOnNonLoadCaught) {
  Module M = parse(StraightLine);
  M.Fn.Blocks[0].Instrs[1].HM = HitMiss::Hit;
  VerifyResult R = verifyModule(M);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Locality, "non-load", 0)) << R.report();
}

//===----------------------------------------------------------------------===//
// Negative: register-allocation checks.
//===----------------------------------------------------------------------===//

namespace {

/// Applies a virtual->physical id mapping to every register operand and
/// prepends the frame-base initialization, producing a "hand-allocated"
/// After module for verifyRegAlloc.
Module handAllocate(const Module &B,
                    const std::vector<std::pair<uint32_t, uint32_t>> &Map) {
  Module A = B;
  auto MapReg = [&](Reg &R) {
    if (!R.isVirtual())
      return;
    for (auto [V, P] : Map)
      if (R.Id == NumPhysTotal + V) {
        R = Reg(P);
        return;
      }
  };
  for (BasicBlock &Blk : A.Fn.Blocks)
    for (Instr &I : Blk.Instrs) {
      MapReg(I.Dst);
      MapReg(I.SrcA);
      MapReg(I.SrcB);
      MapReg(I.SrcC);
      MapReg(I.Base);
    }
  Instr Init;
  Init.Op = Opcode::LdI;
  Init.Dst = physIntReg(regalloc::FrameBaseReg);
  Init.Imm = static_cast<int64_t>(
      A.Arrays[static_cast<size_t>(A.SpillArrayId)].Base);
  Init.HasImm = true;
  A.Fn.Blocks[0].Instrs.insert(A.Fn.Blocks[0].Instrs.begin(), Init);
  return A;
}

const char *TwoValues = "func f\n"
                        "b0:\n"
                        "  ldi v0, 1\n"
                        "  ldi v1, 2\n"
                        "  add v2, v0, v1\n"
                        "  add v2, v2, v2\n"
                        "  ret\n";

} // namespace

TEST(VerifyRegAlloc, LegalHandAllocationIsClean) {
  Module B = parse(TwoValues);
  Module A = handAllocate(B, {{0, 0}, {1, 1}, {2, 2}});
  VerifyResult R = verifyRegAlloc(B, A, 28);
  EXPECT_TRUE(R.ok()) << R.report();
}

TEST(VerifyRegAlloc, InterferenceCaught) {
  Module B = parse(TwoValues);
  // v0 and v1 are simultaneously live; give both r0.
  Module A = handAllocate(B, {{0, 0}, {1, 0}, {2, 2}});
  VerifyResult R = verifyRegAlloc(B, A, 28);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::RegAlloc, "share", 0)) << R.report();
  // Localized: the diagnostic points at the interfering definition.
  auto It = std::find_if(R.Diags.begin(), R.Diags.end(),
                         [](const Diagnostic &D) {
                           return D.Message.find("share") != std::string::npos;
                         });
  ASSERT_NE(It, R.Diags.end());
  EXPECT_EQ(It->Block, 0);
  EXPECT_GE(It->Instr, 0);
}

// The interference check's diagnostics, pinned whole: text, position and
// order (blocks in order, each walked bottom-up; at one definition the other
// values in increasing register id), each pair reported once.

TEST(VerifyRegAlloc, ConflictLiveOnlyThroughLiveOutCaught) {
  // v0 is never used in b0, so it is live at v1's definition only because
  // b0's live-out set says so.
  Module B = parse("func f\n"
                   "b0:\n"
                   "  ldi v0, 1\n"
                   "  ldi v1, 2\n"
                   "  jmp b1\n"
                   "b1:\n"
                   "  add v2, v0, v1\n"
                   "  ret\n");
  EXPECT_TRUE(verifyRegAlloc(B, handAllocate(B, {{0, 0}, {1, 1}, {2, 2}}), 28)
                  .ok());
  VerifyResult R =
      verifyRegAlloc(B, handAllocate(B, {{0, 0}, {1, 0}, {2, 2}}), 28);
  EXPECT_EQ(R.report(), "b0[1]: v1 and v0 are simultaneously live but share "
                        "r0 [regalloc]\n");
}

TEST(VerifyRegAlloc, ThreeValuesOnOneRegisterReportEachPairOnce) {
  // v0, v1 and v2 all sit on r0. At v2's definition both others are live;
  // the pair (v1, v0) meets at v1's second definition and again at its
  // first, but is reported once.
  Module B = parse("func f\n"
                   "b0:\n"
                   "  ldi v0, 1\n"
                   "  ldi v1, 2\n"
                   "  ldi v2, 3\n"
                   "  add v3, v0, v1\n"
                   "  add v3, v3, v2\n"
                   "  ldi v1, 5\n"
                   "  add v3, v3, v1\n"
                   "  add v3, v3, v0\n"
                   "  ret\n");
  VerifyResult R =
      verifyRegAlloc(B, handAllocate(B, {{0, 0}, {1, 0}, {2, 0}, {3, 1}}), 28);
  EXPECT_EQ(R.report(),
            "b0[5]: v1 and v0 are simultaneously live but share r0 [regalloc]\n"
            "b0[2]: v2 and v0 are simultaneously live but share r0 [regalloc]\n"
            "b0[2]: v2 and v1 are simultaneously live but share r0 "
            "[regalloc]\n");
}

TEST(VerifyRegAlloc, ConditionalMoveReadsItsDestination) {
  // The conditional move both kills and reads its destination v1, so v1 is
  // live above it and v2's definition on v1's register conflicts.
  for (const char *Op : {"cmov", "fcmov"}) {
    bool Fp = Op[0] == 'f';
    std::string Text = std::string("func f\n"
                                   "b0:\n"
                                   "  ldi v0, 1\n") +
                       (Fp ? "  fldi v1, 2.0\n  fldi v2, 3.0\n"
                           : "  ldi v1, 2\n  ldi v2, 3\n") +
                       "  " + Op + " v1, v0, v2\n" +
                       (Fp ? "  fadd v3, v1, v1\n" : "  add v3, v1, v1\n") +
                       "  ret\n";
    Module B = parse(Text.c_str());
    uint32_t Cls = Fp ? NumPhysPerClass : 0;
    EXPECT_TRUE(verifyRegAlloc(B,
                               handAllocate(B, {{0, 0},
                                                {1, Cls + 1},
                                                {2, Cls + 2},
                                                {3, Cls + 3}}),
                               28)
                    .ok())
        << Op;
    VerifyResult R = verifyRegAlloc(
        B, handAllocate(B, {{0, 0}, {1, Cls + 1}, {2, Cls + 1}, {3, Cls + 3}}),
        28);
    EXPECT_EQ(R.report(), std::string("b0[2]: v2 and v1 are simultaneously "
                                      "live but share ") +
                              (Fp ? "f1" : "r1") + " [regalloc]\n")
        << Op;
  }
}

TEST(VerifyRegAlloc, IntAndFpWithSameLocalIndexDoNotConflict) {
  // r3 and f3 are different registers: v0 and v1 are live together but
  // never share one.
  Module B = parse("func f\n"
                   "b0:\n"
                   "  ldi v0, 1\n"
                   "  fldi v1, 2.0\n"
                   "  add v2, v0, #1\n"
                   "  fadd v3, v1, v1\n"
                   "  ret\n");
  VerifyResult R = verifyRegAlloc(
      B, handAllocate(B, {{0, 3}, {1, NumPhysPerClass + 3}, {2, 4},
                          {3, NumPhysPerClass + 4}}),
      28);
  EXPECT_TRUE(R.ok()) << R.report();
}

TEST(VerifyRegAlloc, RestoreFromNeverSpilledSlotCaught) {
  Module B = parse(TwoValues);
  Module A = handAllocate(B, {{0, 0}, {1, 1}, {2, 2}});
  // Reroute the first add's v0 use through a restore of a slot no spill
  // ever wrote.
  Instr Rst;
  Rst.Op = Opcode::Load;
  Rst.Dst = physIntReg(regalloc::SpillScratchRegs[0]);
  Rst.Base = physIntReg(regalloc::FrameBaseReg);
  Rst.Offset = 0;
  Rst.Mem.ArrayId = A.SpillArrayId;
  Rst.Mem.HasForm = true;
  Rst.Mem.Const = 0;
  Rst.IsRestore = true;
  auto &Ins = A.Fn.Blocks[0].Instrs;
  Ins[3].SrcA = Rst.Dst; // add v2, <scratch>, r1
  Ins.insert(Ins.begin() + 3, Rst);
  VerifyResult R = verifyRegAlloc(B, A, 28);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::RegAlloc, "no spill ever wrote", 0))
      << R.report();
}

TEST(VerifyRegAlloc, SurvivingVirtualCaught) {
  Module B = parse(TwoValues);
  Module A = handAllocate(B, {{0, 0}, {1, 1}}); // v2 left unmapped.
  VerifyResult R = verifyRegAlloc(B, A, 28);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::RegAlloc, "still virtual", 0)) << R.report();
}

TEST(VerifyRegAlloc, OutOfBudgetRegisterCaught) {
  Module B = parse(TwoValues);
  // r20 is legal for 28 allocatable registers but not for 6.
  Module A = handAllocate(B, {{0, 0}, {1, 20}, {2, 2}});
  EXPECT_TRUE(verifyRegAlloc(B, A, 28).ok());
  VerifyResult R = verifyRegAlloc(B, A, 6);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::RegAlloc, "outside the allocatable range", 0))
      << R.report();
}

TEST(VerifyRegAlloc, MissingFrameInitCaught) {
  Module B = parse(TwoValues);
  Module A = handAllocate(B, {{0, 0}, {1, 1}, {2, 2}});
  A.Fn.Blocks[0].Instrs.erase(A.Fn.Blocks[0].Instrs.begin());
  VerifyResult R = verifyRegAlloc(B, A, 28);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::RegAlloc, "frame base", 0)) << R.report();
}

//===----------------------------------------------------------------------===//
// Negative: trace-scheduling compensation checks.
//===----------------------------------------------------------------------===//

namespace {

// Diamond-free join: b1 enters the trace {b0, b2} at b2.
const char *JoinBefore = "func f\n"
                         "b0:\n"
                         "  ldi v0, 7\n"
                         "  br v0, b2, b1\n"
                         "b1:\n"
                         "  jmp b2\n"
                         "b2:\n"
                         "  ldi v1, 5\n"
                         "  add v2, v1, #1\n"
                         "  ret\n";

// Legal trace schedule: ldi v1 hoisted from b2 into b0 (it crosses the
// join, so the off-trace edge b1->b2 detours through compensation b3).
const char *JoinAfterLegal = "func f\n"
                             "b0:\n"
                             "  ldi v0, 7\n"
                             "  ldi v1, 5\n"
                             "  br v0, b2, b1\n"
                             "b1:\n"
                             "  jmp b3\n"
                             "b2:\n"
                             "  add v2, v1, #1\n"
                             "  ret\n"
                             "b3:\n"
                             "  ldi v1, 5\n"
                             "  jmp b2\n";

const std::vector<std::vector<int>> JoinTraces = {{0, 2}, {1}};

} // namespace

TEST(VerifyTrace, LegalCompensationIsClean) {
  Module B = parse(JoinBefore);
  Module A = parse(JoinAfterLegal);
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  EXPECT_TRUE(R.ok()) << R.report();
}

TEST(VerifyTrace, MissingCompensationInstrCaught) {
  Module B = parse(JoinBefore);
  Module A = parse(JoinAfterLegal);
  // Gut the compensation block: the crossed ldi copy disappears.
  A.Fn.Blocks[3].Instrs.erase(A.Fn.Blocks[3].Instrs.begin());
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Compensation, "crossed the join", 3))
      << R.report();
}

TEST(VerifyTrace, UnreroutedOffTraceEdgeCaught) {
  Module B = parse(JoinBefore);
  Module A = parse(JoinAfterLegal);
  // b1 jumps straight to the join, skipping its compensation code.
  A.Fn.Blocks[1].Instrs.back().Target0 = 2;
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Compensation, "compensation block", 1))
      << R.report();
}

TEST(VerifyTrace, WrongCompensationContentCaught) {
  Module B = parse(JoinBefore);
  Module A = parse(JoinAfterLegal);
  A.Fn.Blocks[3].Instrs[0].Imm = 6; // copies ldi v1, 6 instead of 5.
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Compensation, "differs from", 3))
      << R.report();
}

TEST(VerifyTrace, StoreSpeculatedAboveSplitCaught) {
  Module B = parse("array A 4\n"
                   "func f\n"
                   "b0:\n"
                   "  ldi v0, 64\n"
                   "  ldi v1, 9\n"
                   "  br v1, b2, b1\n"
                   "b1:\n"
                   "  jmp b2\n"
                   "b2:\n"
                   "  st v1, 0(v0)\n"
                   "  ret\n");
  Module A = parse("array A 4\n"
                   "func f\n"
                   "b0:\n"
                   "  ldi v0, 64\n"
                   "  ldi v1, 9\n"
                   "  st v1, 0(v0)\n"
                   "  br v1, b2, b1\n"
                   "b1:\n"
                   "  jmp b3\n"
                   "b2:\n"
                   "  ret\n"
                   "b3:\n"
                   "  st v1, 0(v0)\n"
                   "  jmp b2\n");
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  ASSERT_FALSE(R.ok());
  // The join compensation is in place; the store is still illegal above
  // the split (the off-trace path must not observe it).
  EXPECT_TRUE(hasDiag(R, Check::Compensation, "speculated above the split", 0))
      << R.report();
}

TEST(VerifyTrace, LiveOutClobberAboveSplitCaught) {
  // v1 is live into the off-trace path (b1 stores it); redefining it above
  // the split clobbers that path.
  Module B = parse("array A 4\n"
                   "func f\n"
                   "b0:\n"
                   "  ldi v0, 64\n"
                   "  ldi v1, 9\n"
                   "  br v1, b2, b1\n"
                   "b1:\n"
                   "  st v1, 0(v0)\n"
                   "  jmp b2\n"
                   "b2:\n"
                   "  ldi v1, 3\n"
                   "  st v1, 8(v0)\n"
                   "  ret\n");
  Module A = B;
  // Hoist "ldi v1, 3" from b2 above b0's branch, with join compensation.
  auto &B0 = A.Fn.Blocks[0].Instrs;
  auto &B2 = A.Fn.Blocks[2].Instrs;
  B0.insert(B0.end() - 1, B2.front());
  B2.erase(B2.begin());
  int Comp = A.Fn.makeBlock();
  Instr Copy;
  Copy.Op = Opcode::LdI;
  Copy.Dst = Reg(NumPhysTotal + 1);
  Copy.Imm = 3;
  Copy.HasImm = true;
  Instr Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Target0 = 2;
  A.Fn.Blocks[Comp].Instrs = {Copy, Jmp};
  A.Fn.Blocks[1].Instrs.back().Target0 = Comp;
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasDiag(R, Check::Compensation, "live into off-trace", 0))
      << R.report();
}

TEST(VerifyTrace, DownwardMotionCaught) {
  Module B = parse(JoinBefore);
  Module A = B;
  // Sink "ldi v0, 7" from b0 below its home terminator, into b2.
  auto &B0 = A.Fn.Blocks[0].Instrs;
  auto &B2 = A.Fn.Blocks[2].Instrs;
  B2.insert(B2.begin(), B0.front());
  B0.erase(B0.begin());
  VerifyResult R = verifyTraceSchedule(B, A, JoinTraces);
  ASSERT_FALSE(R.ok());
  // The branch now reads v0 before any definition reaches it.
  EXPECT_TRUE(hasDiag(R, Check::Compensation, "below its home", 2) ||
              hasDiag(R, Check::Schedule, "despite a dependence", 0))
      << R.report();
}

//===----------------------------------------------------------------------===//
// Pinned: every report of a seeded mutation sweep over real compiles.
//===----------------------------------------------------------------------===//
//
// hasDiag matches by substring, so it cannot notice a diagnostic whose
// wording, position or order changed. This sweep compiles every workload at
// unroll 1, 4 and 8, breaks the passes' output in a fixed, seeded way and
// folds every report() into one FNV-1a digest:
//  - block schedules (sched::scheduleFunction) and trace schedules with
//    nearby instruction pairs swapped, some legally;
//  - allocations under 28 and under 6 registers per class with one
//    definition or use rewritten to another allocatable register, or one
//    spill or restore moved to the neighbouring slot.

namespace {

/// Every report of a sweep, folded in order.
struct ReportLog {
  Fnv1a Digest;
  size_t Reports = 0, Diags = 0, Interference = 0, Failing = 0;

  void add(const VerifyResult &R) {
    Digest.str(R.report());
    Digest.byte(0);
    ++Reports;
    Diags += R.Diags.size();
    Failing += !R.ok();
    for (const Diagnostic &D : R.Diags)
      Interference +=
          D.Message.find("simultaneously live") != std::string::npos;
  }
};

/// Swaps \p N pairs of instructions, each within one block and at most
/// eight slots apart; the first of each pair is drawn over all instructions,
/// so big blocks take most swaps.
void swapPairs(Module &M, RNG &Rng, int N) {
  std::vector<std::pair<size_t, size_t>> Firsts; // (block, index)
  for (size_t B = 0; B != M.Fn.Blocks.size(); ++B)
    for (size_t I = 0; I + 1 < M.Fn.Blocks[B].Instrs.size(); ++I)
      Firsts.emplace_back(B, I);
  if (Firsts.empty())
    return;
  for (int K = 0; K != N; ++K) {
    auto [B, I] = Firsts[Rng.nextBelow(Firsts.size())];
    std::vector<Instr> &Ins = M.Fn.Blocks[B].Instrs;
    size_t J = I + 1 + Rng.nextBelow(std::min<size_t>(8, Ins.size() - 1 - I));
    std::swap(Ins[I], Ins[J]);
  }
}

/// Rewrites one allocatable register operand of an allocated instruction
/// (spill traffic and remats aside) to another allocatable register of the
/// same class.
void rewriteOperand(Module &M, unsigned Allocatable, RNG &Rng) {
  std::vector<Reg *> Ops;
  for (BasicBlock &B : M.Fn.Blocks)
    for (Instr &I : B.Instrs)
      if (!I.IsSpill && !I.IsRestore && !I.IsRemat)
        for (Reg *R : {&I.Dst, &I.SrcA, &I.SrcB, &I.SrcC, &I.Base})
          if (R->isPhys() && R->Id % NumPhysPerClass < Allocatable)
            Ops.push_back(R);
  if (Ops.empty())
    return;
  Reg &R = *Ops[Rng.nextBelow(Ops.size())];
  uint32_t Local = R.Id % NumPhysPerClass;
  uint32_t To = static_cast<uint32_t>(Rng.nextBelow(Allocatable - 1));
  if (To >= Local)
    ++To;
  R = Reg(R.Id - Local + To);
}

/// Moves one spill or restore of \p M to the slot 8 bytes above or below;
/// false when \p M has no spill traffic.
bool moveSlot(Module &M, RNG &Rng) {
  std::vector<Instr *> Traffic;
  for (BasicBlock &B : M.Fn.Blocks)
    for (Instr &I : B.Instrs)
      if (I.IsSpill || I.IsRestore)
        Traffic.push_back(&I);
  if (Traffic.empty())
    return false;
  Instr &I = *Traffic[Rng.nextBelow(Traffic.size())];
  int64_t D = Rng.nextBool(0.5) ? 8 : -8;
  I.Offset += D;
  I.Mem.Const += D;
  return true;
}

} // namespace

TEST(VerifyDigest, SeededMutationsPinEveryReport) {
  RNG Rng(0x5eed);
  ReportLog Log;
  for (const driver::Workload &W : driver::workloads()) {
    lang::Program P = driver::parseWorkload(W);
    for (int LU : {1, 4, 8}) {
      driver::CompileOptions O;
      O.UnrollFactor = LU;
      driver::CompileResult FE = driver::compileFrontEnd(P, O);
      ASSERT_TRUE(FE.ok()) << W.Name << ": " << FE.Error;
      const Module &Before = FE.M;

      Module Sched = Before;
      sched::scheduleFunction(Sched, O.Scheduler, O.Balance);
      Module Traced = Before;
      trace::TraceStats T = trace::traceScheduleFunction(
          Traced, driver::profileModule(Before), O.Scheduler, O.Balance);
      for (int K = 0; K != 16; ++K) {
        Module A = Sched;
        swapPairs(A, Rng, K % 4);
        Log.add(verifySchedule(Before, A));
        Module AT = Traced;
        swapPairs(AT, Rng, K % 4);
        Log.add(verifyTraceSchedule(Before, AT, T.Formed));
      }

      for (unsigned Alloc : {28u, 6u}) {
        regalloc::RegAllocOptions RO;
        RO.AllocatablePerClass = Alloc;
        Module Allocated = Sched;
        ASSERT_TRUE(regalloc::allocateRegisters(Allocated, RO).ok()) << W.Name;
        Log.add(verifyRegAlloc(Sched, Allocated, Alloc));
        for (int K = 0; K != 16; ++K) {
          Module A = Allocated;
          rewriteOperand(A, Alloc, Rng);
          Log.add(verifyRegAlloc(Sched, A, Alloc));
        }
        for (int K = 0; K != 8; ++K) {
          Module A = Allocated;
          if (moveSlot(A, Rng))
            Log.add(verifyRegAlloc(Sched, A, Alloc));
        }
      }
    }
  }
  EXPECT_EQ(Log.Reports, 3862u);
  EXPECT_EQ(Log.Failing, 3056u);
  EXPECT_EQ(Log.Diags, 6169u);
  EXPECT_EQ(Log.Interference, 515u);
  EXPECT_EQ(Log.Digest.get(), 10053969389430207812ull);
}
