//===- tests/sim_test.cpp - Timing simulator tests ------------------------===//

#include "ir/Interp.h"
#include "lang/Eval.h"
#include "lang/Parser.h"
#include "lower/Lower.h"
#include "regalloc/LinearScan.h"
#include "sched/Schedule.h"
#include "sim/Machine.h"

#include <gtest/gtest.h>

using namespace bsched;
using namespace bsched::ir;
using namespace bsched::sim;

namespace {

/// Parses, lowers, schedules, allocates; returns the runnable module.
Module compile(const std::string &Src,
               sched::SchedulerKind K = sched::SchedulerKind::Balanced) {
  lang::ParseResult PR = lang::parseProgram(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  EXPECT_EQ(lang::checkProgram(PR.Prog), "");
  lower::LowerResult LR = lower::lowerProgram(PR.Prog);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  sched::scheduleFunction(LR.M, K);
  regalloc::RegAllocStats S = regalloc::allocateRegisters(LR.M);
  EXPECT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(verify(LR.M), "");
  return std::move(LR.M);
}

const char *StreamKernel = R"(
array A[4096];
array B[4096] output;
for (i = 0; i < 4096; i += 1) { A[i] = i * 0.5; }
for (i = 0; i < 4096; i += 1) { B[i] = A[i] * 2.0 + 1.0; }
)";

const char *TinyKernel = R"(
array Out[4] output;
Out[0] = 1.5;
Out[1] = 2.5;
)";

} // namespace

TEST(Sim, MatchesInterpreterChecksum) {
  Module M = compile(StreamKernel);
  uint64_t Ref = interpret(M).Checksum;
  SimResult R = simulate(M);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Checksum, Ref);
}

TEST(Sim, RequiresAllocatedCode) {
  lang::ParseResult PR = lang::parseProgram(TinyKernel);
  ASSERT_TRUE(PR.ok());
  ASSERT_EQ(lang::checkProgram(PR.Prog), "");
  lower::LowerResult LR = lower::lowerProgram(PR.Prog);
  ASSERT_TRUE(LR.ok());
  SimResult R = simulate(LR.M); // still virtual registers
  EXPECT_FALSE(R.ok());
}

TEST(Sim, CycleCountExceedsInstructionCount) {
  Module M = compile(StreamKernel);
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  EXPECT_GT(R.Cycles, R.Counts.total());
}

TEST(Sim, InstructionMixIsPlausible) {
  Module M = compile(StreamKernel);
  SimResult R = simulate(M);
  // Two 4096-iteration loops: >= 8192 stores, >= 4096 loads, branches for
  // every iteration.
  EXPECT_GE(R.Counts.Stores, 8192u);
  EXPECT_GE(R.Counts.Loads, 4096u);
  EXPECT_GE(R.Counts.Branches, 8192u);
  EXPECT_GT(R.Counts.ShortFp, 0u);
}

TEST(Sim, ColdCachesMissThenReuseHits) {
  Module M = compile(StreamKernel);
  SimResult R = simulate(M);
  // 4096 doubles = 1024 lines touched twice (write then read) while 8KB L1
  // holds only 256 lines: substantial misses, but spatial locality bounds
  // the rate around 1/4 per sweep.
  EXPECT_GT(R.L1D.Misses, 1000u);
  // Write-around stores miss the L1 tag check every sweep, so the combined
  // rate is high; spatial reuse still keeps it below the all-miss bound.
  EXPECT_LT(R.L1D.missRate(), 0.9);
  EXPECT_GT(R.L2.Accesses, 0u);
}

TEST(Sim, SmallFootprintMostlyHits) {
  Module M = compile(R"(
array A[64] output;
for (r = 0; r < 50; r += 1) {
  for (i = 0; i < 64; i += 1) { A[i] = A[i] + 1.0; }
}
)");
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  EXPECT_LT(R.L1D.missRate(), 0.01) << "64 doubles fit the 8KB L1";
}

TEST(Sim, LoadInterlocksAttributedToLoads) {
  // A pointer-chase style serial dependence on loads: virtually every load's
  // consumer stalls.
  Module M = compile(R"(
array A[8192];
array Out[4] output;
var s = 0.0;
for (i = 0; i < 8192; i += 1) { A[i] = 1.0; }
for (r = 0; r < 4; r += 1) {
  for (i = 0; i < 8192; i += 1) { s = s + A[i]; }
}
Out[0] = s;
)");
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  EXPECT_GT(R.LoadInterlockCycles, 0u);
}

TEST(Sim, FixedInterlocksFromDivideChains) {
  Module M = compile(R"(
array Out[4] output;
var x = 1234.5;
for (i = 0; i < 1000; i += 1) { x = x / 1.0001; }
Out[0] = x;
)");
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  // A serial divide chain: ~30 cycles per iteration are fixed interlocks.
  EXPECT_GT(R.FixedInterlockCycles, 20000u);
  EXPECT_GT(R.Counts.LongFp, 999u);
}

TEST(Sim, BranchPredictorLearnsLoops) {
  Module M = compile(StreamKernel);
  SimResult R = simulate(M);
  // Loop back edges are overwhelmingly taken: mispredict rate must be tiny.
  EXPECT_LT(static_cast<double>(R.BranchMispredicts) /
                static_cast<double>(R.Counts.Branches),
            0.05);
}

TEST(Sim, AlternatingBranchMispredicts) {
  Module M = compile(R"(
array A[1024] output;
var t = 0.0;
for (i = 0; i < 1024; i += 1) {
  if (A[i] < -1.0) { A[i] = t; t = t + 1.0; } else { A[0] = t; }
}
)");
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  EXPECT_GT(R.Counts.Branches, 1024u);
}

TEST(Sim, DTlbMissesOnLargeStrides) {
  // Touch one element per 8KB page across a 4MB array: every access is a new
  // page, blowing the 64-entry DTLB.
  Module M = compile(R"(
array A[524288];
array Out[4] output;
var s = 0.0;
for (r = 0; r < 3; r += 1) {
  for (i = 0; i < 512; i += 1) { s = s + A[i * 1024]; }
}
Out[0] = s;
)");
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  EXPECT_GT(R.DTlbMisses, 1000u);
  EXPECT_GT(R.DTlbStallCycles, 0u);
}

TEST(Sim, MemoryLatencyBoundsLoadLatency) {
  // A huge array streamed once: misses go to memory (50 cycles); total
  // cycles per element must stay far below worst case thanks to
  // non-blocking overlap but above the hit-only bound.
  Module M = compile(R"(
array A[262144];
array Out[4] output;
var s = 0.0;
for (i = 0; i < 131072; i += 8) { s = s + A[i * 2]; }
Out[0] = s;
)");
  SimResult R = simulate(M);
  ASSERT_TRUE(R.Finished);
  EXPECT_GT(R.L3.Accesses, 0u);
}

TEST(Sim, SimpleModelRunsAndMatchesChecksum) {
  Module M = compile(StreamKernel);
  uint64_t Ref = interpret(M).Checksum;
  MachineConfig C;
  C.SimpleModel = true;
  C.SimpleHitRate = 0.8;
  SimResult R = simulate(M, C);
  ASSERT_TRUE(R.Finished);
  EXPECT_EQ(R.Checksum, Ref);
  EXPECT_EQ(R.ICacheStallCycles, 0u);
  EXPECT_EQ(R.DTlbMisses, 0u);
  EXPECT_EQ(R.BranchPenaltyCycles, 0u);
}

TEST(Sim, SimpleModelHitRateMatters) {
  Module M = compile(StreamKernel);
  MachineConfig C95;
  C95.SimpleModel = true;
  C95.SimpleHitRate = 0.95;
  MachineConfig C50 = C95;
  C50.SimpleHitRate = 0.50;
  SimResult R95 = simulate(M, C95);
  SimResult R50 = simulate(M, C50);
  EXPECT_GT(R50.Cycles, R95.Cycles);
}

TEST(Sim, SimpleModelIsDeterministic) {
  Module M = compile(StreamKernel);
  MachineConfig C;
  C.SimpleModel = true;
  EXPECT_EQ(simulate(M, C).Cycles, simulate(M, C).Cycles);
}

TEST(Sim, CycleBudgetStopsRunaway) {
  Module M = compile(StreamKernel);
  SimResult R = simulate(M, MachineConfig{}, /*MaxCycles=*/1000);
  EXPECT_FALSE(R.Finished);
  EXPECT_TRUE(R.ok());
}

TEST(Sim, BalancedBeatsTraditionalOnMissHeavyStreams) {
  // The headline effect: a kernel with load-level parallelism and real
  // misses should run at least as fast under balanced scheduling.
  const char *Src = R"(
array A[65536];
array B[65536];
array Out[8] output;
var s = 0.0;
var t = 0.0;
for (i = 0; i < 65536; i += 1) { A[i] = i * 0.5; B[i] = i * 0.25; }
for (i = 0; i < 65528; i += 1) {
  s = s + A[i] * 2.0 + B[i + 7] * 3.0 + A[i + 3];
  t = t * 1.0000001 + s;
}
Out[0] = s + t;
)";
  Module MB = compile(Src, sched::SchedulerKind::Balanced);
  Module MT = compile(Src, sched::SchedulerKind::Traditional);
  SimResult RB = simulate(MB);
  SimResult RT = simulate(MT);
  ASSERT_TRUE(RB.Finished);
  ASSERT_TRUE(RT.Finished);
  EXPECT_EQ(RB.Checksum, RT.Checksum);
  EXPECT_LE(RB.LoadInterlockCycles, RT.LoadInterlockCycles);
}

//===----------------------------------------------------------------------===//
// Configuration validation (negative paths)
//===----------------------------------------------------------------------===//
//
// Malformed configurations used to be undefined behaviour (a zero-set cache
// divides by zero in the set index; a zero-entry predictor indexes mod 0).
// simulate() now validates up front and returns SimResult::Error for both
// simulator cores.

namespace {

/// Expects simulate() under both cores to reject \p C with a validation
/// error rather than faulting.
void expectRejected(const MachineConfig &C, const char *What) {
  EXPECT_NE(validateMachineConfig(C), "") << What;
  Module M = compile(TinyKernel);
  for (SimImpl Impl : {SimImpl::Fast, SimImpl::Reference}) {
    MachineConfig WithImpl = C;
    WithImpl.Impl = Impl;
    SimResult R = simulate(M, WithImpl);
    EXPECT_FALSE(R.ok()) << What;
    EXPECT_NE(R.Error.find("invalid machine configuration"), std::string::npos)
        << What << ": " << R.Error;
    EXPECT_FALSE(R.Finished);
  }
}

} // namespace

TEST(SimConfig, DefaultsAreValid) {
  EXPECT_EQ(validateMachineConfig(MachineConfig{}), "");
}

TEST(SimConfig, ZeroSetCacheRejected) {
  // SizeBytes < LineSize * Assoc leaves zero sets: the set index would be
  // a modulo by zero on the first access.
  MachineConfig C;
  C.L1D.SizeBytes = 16; // one 32-byte line does not fit
  expectRejected(C, "zero-set L1D");
}

TEST(SimConfig, ZeroLineSizeRejected) {
  MachineConfig C;
  C.L2.LineSize = 0;
  expectRejected(C, "zero line size");
}

TEST(SimConfig, ZeroAssocRejected) {
  MachineConfig C;
  C.L3.Assoc = 0;
  expectRejected(C, "zero associativity");
}

TEST(SimConfig, ZeroLatencyCacheRejected) {
  MachineConfig C;
  C.L1I.Latency = 0;
  expectRejected(C, "zero cache latency");
}

TEST(SimConfig, ZeroEntryBranchPredictorRejected) {
  // Counter lookup is (Addr >> 2) % entries: mod zero.
  MachineConfig C;
  C.BranchPredictorEntries = 0;
  expectRejected(C, "zero-entry predictor");
}

TEST(SimConfig, ZeroEntryTlbRejected) {
  MachineConfig C;
  C.DTlbEntries = 0;
  expectRejected(C, "zero-entry DTLB");
  MachineConfig C2;
  C2.ITlbEntries = 0;
  expectRejected(C2, "zero-entry ITLB");
}

TEST(SimConfig, ZeroPageSizeRejected) {
  MachineConfig C;
  C.PageSize = 0;
  expectRejected(C, "zero page size");
}

TEST(SimConfig, ZeroMshrsRejected) {
  MachineConfig C;
  C.NumMSHRs = 0;
  expectRejected(C, "zero MSHRs");
}

TEST(SimConfig, ZeroWriteBufferRejected) {
  MachineConfig C;
  C.WriteBufferEntries = 0;
  expectRejected(C, "zero write-buffer entries");
}

TEST(SimConfig, ZeroIssueWidthRejected) {
  MachineConfig C;
  C.IssueWidth = 0;
  expectRejected(C, "zero issue width");
}

TEST(SimConfig, SimpleModelLatenciesValidated) {
  MachineConfig C;
  C.SimpleModel = true;
  C.SimpleMissLatency = 0;
  expectRejected(C, "zero simple-model miss latency");
}

TEST(SimConfig, NegativeLatenciesRejected) {
  MachineConfig C;
  C.MemoryLatency = 0;
  expectRejected(C, "zero memory latency");
  MachineConfig C2;
  C2.TlbRefillLatency = -1;
  expectRejected(C2, "negative TLB refill");
  MachineConfig C3;
  C3.BranchMispredictPenalty = -1;
  expectRejected(C3, "negative mispredict penalty");
}

TEST(SimConfig, ReferenceImplSelectable) {
  // The seed simulator stays selectable (the twin pattern): same checksum,
  // same cycle count as the fast core on a real workload.
  Module M = compile(StreamKernel);
  MachineConfig Ref;
  Ref.Impl = SimImpl::Reference;
  SimResult RR = simulate(M, Ref);
  SimResult RF = simulate(M, MachineConfig{});
  ASSERT_TRUE(RR.Finished);
  ASSERT_TRUE(RF.Finished);
  EXPECT_EQ(RR.Checksum, RF.Checksum);
  EXPECT_EQ(RR.Cycles, RF.Cycles);
}

TEST(Sim, StatsAreInternallyConsistent) {
  Module M = compile(StreamKernel);
  SimResult R = simulate(M);
  uint64_t Stalls = R.LoadInterlockCycles + R.FixedInterlockCycles +
                    R.ICacheStallCycles + R.ITlbStallCycles +
                    R.DTlbStallCycles + R.BranchPenaltyCycles +
                    R.MshrStallCycles + R.WriteBufferStallCycles;
  EXPECT_EQ(R.Cycles, R.Counts.total() + Stalls)
      << "every cycle is an issue slot or an attributed stall";
}
