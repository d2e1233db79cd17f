//===- tests/trace_equivalence_test.cpp - Fast/reference trace twins -------===//
//
// Pins TraceImpl::Fast against TraceImpl::Reference:
//
//  * Config sweep: every trace-scheduling configuration of the canonical
//    differential list (fuzz/Configs.h), over every workload, must produce
//    byte-identical compiled code and identical TraceStats under both cores.
//  * Compensation stress: hand-written CFGs that maximize the bookkeeping the
//    fast core performs incrementally — side entrances into the middle of a
//    trace, multi-join traces with several cold arms, and a peeled-loop back
//    edge whose latch is itself a trace block (so compensation retargets an
//    on-trace terminator). Each shape is checked at the trace-pass level:
//    identical output text, identical stats, verifier-clean, and an
//    interpreter checksum unchanged by the pass.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "fuzz/Configs.h"
#include "ir/IRParser.h"
#include "ir/Interp.h"
#include "lang/Parser.h"
#include "lower/Lower.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <string>

using namespace bsched;
using namespace bsched::ir;
using namespace bsched::trace;

namespace {

/// Asserts the two cores produced the same traces and the same compensation.
void expectStatsEqual(const TraceStats &Fast, const TraceStats &Ref,
                      const std::string &What) {
  EXPECT_EQ(Fast.Traces, Ref.Traces) << What;
  EXPECT_EQ(Fast.MultiBlockTraces, Ref.MultiBlockTraces) << What;
  EXPECT_EQ(Fast.LongestTrace, Ref.LongestTrace) << What;
  EXPECT_EQ(Fast.CompensationBlocks, Ref.CompensationBlocks) << What;
  EXPECT_EQ(Fast.CompensationInstrs, Ref.CompensationInstrs) << What;
  EXPECT_EQ(Fast.Formed, Ref.Formed) << What;
}

/// Runs both trace cores on copies of \p M under both weight models and
/// requires byte-identical functions, identical stats, clean verification,
/// and the interpreter checksum \p M had before scheduling. Returns the
/// fast core's stats from the Balanced run so callers can assert the shape
/// actually exercised compensation.
TraceStats expectTwinEquivalence(const Module &M, const std::string &What) {
  InterpResult Profile = interpret(M);
  EXPECT_TRUE(Profile.Finished) << What;
  TraceStats Out;
  for (auto Kind : {sched::SchedulerKind::Traditional,
                    sched::SchedulerKind::Balanced}) {
    Module FastM = M;
    Module RefM = M;
    TraceStats FS = traceScheduleFunction(FastM, Profile, Kind, {},
                                          TraceImpl::Fast);
    TraceStats RS = traceScheduleFunction(RefM, Profile, Kind, {},
                                          TraceImpl::Reference);
    EXPECT_EQ(printFunction(FastM.Fn), printFunction(RefM.Fn))
        << What << ": fast trace core diverged from the reference twin";
    expectStatsEqual(FS, RS, What);
    EXPECT_EQ(ir::verify(FastM), "") << What << "\n" << printFunction(FastM.Fn);
    EXPECT_EQ(ir::verify(RefM), "") << What << "\n" << printFunction(RefM.Fn);
    InterpResult After = interpret(FastM);
    EXPECT_TRUE(After.Finished) << What;
    EXPECT_EQ(After.Checksum, Profile.Checksum)
        << What << ": trace scheduling changed program behaviour";
    if (Kind == sched::SchedulerKind::Balanced)
      Out = FS;
  }
  return Out;
}

Module parseIR(const char *Text) {
  ParseIRResult R = parseModule(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential-config sweep over the workload suite
//===----------------------------------------------------------------------===//

/// Every trace-scheduling configuration of the canonical differential list
/// (including the trace-hostile one with if-conversion off) compiles every
/// workload to the same bytes under both trace cores. Both compiles use the
/// fast scheduler core, so only the trace implementation differs.
TEST(TraceEquivalence, DifferentialConfigSweep) {
  for (const driver::CompileOptions &Opts :
       fuzz::differentialCompileConfigs()) {
    if (!Opts.TraceScheduling)
      continue;
    for (const driver::Workload &W : driver::workloads()) {
      lang::Program P = driver::parseWorkload(W);
      driver::CompileOptions RefOpts = Opts;
      RefOpts.TraceImpl = TraceImpl::Reference;
      driver::CompileResult Fast = driver::compileProgram(P, Opts);
      driver::CompileResult Ref = driver::compileProgram(P, RefOpts);
      ASSERT_TRUE(Fast.ok()) << W.Name << " [" << Opts.tag() << "]: "
                             << Fast.Error;
      ASSERT_TRUE(Ref.ok()) << W.Name << " [" << Opts.tag() << "]: "
                            << Ref.Error;
      std::string What = std::string(W.Name) + " [" + Opts.tag() + "]";
      EXPECT_EQ(printFunction(Fast.M.Fn), printFunction(Ref.M.Fn))
          << What << ": fast trace core diverged from the reference twin";
      expectStatsEqual(Fast.Trace, Ref.Trace, What);
    }
  }
}

//===----------------------------------------------------------------------===//
// Compensation-heavy CFG stress
//===----------------------------------------------------------------------===//

/// A cold arm entering the hot trace from the side: the loop body splits
/// into a dominant arm (90/100) and a cold arm, both jumping to the shared
/// latch. The trace is header/split/hot-arm/latch, so the cold arm's edge is
/// a side entrance into the last trace block; latch instructions hoisted
/// above the join need a compensation copy on that edge. The latch carries
/// cheap integer work that is ready immediately while the hot arm stalls on
/// floating-point latency, so the hoist (and the compensation) happens.
TEST(TraceEquivalence, SideEntranceIntoTrace) {
  const char *Text = R"(
array Out 8 output
func sideentry
b0:
  ldi v0, 0
  ldi v1, 64
  ldi v2, 100
  ldi v3, 90
  fldi v4, 1.5
  jmp b1
b1:
  cmplt v5, v0, v2
  br v5, b2, b6
b2:
  cmplt v6, v0, v3
  br v6, b3, b4
b3:
  itof v7, v0
  fmul v8, v7, v4
  fadd v9, v8, v4
  fst v9, 0(v1)
  jmp b5
b4:
  itof v10, v0
  fadd v11, v10, v10
  fst v11, 8(v1)
  jmp b5
b5:
  add v0, v0, #1
  sll v12, v0, #1
  xor v13, v12, v0
  st v13, 16(v1)
  jmp b1
b6:
  ret
)";
  Module M = parseIR(Text);
  TraceStats S = expectTwinEquivalence(M, "SideEntranceIntoTrace");
  EXPECT_GE(S.MultiBlockTraces, 1) << "hot path should form a trace";
  EXPECT_GT(S.CompensationInstrs, 0)
      << "side entrance should force compensation copies";
}

/// Two biased diamonds back to back inside one loop: the trace runs
/// header/split1/hot1/join1/hot2/join2, so it contains two joins fed by two
/// distinct cold arms — two independent compensation sites whose blocks the
/// fast core must append in the same order as the reference.
TEST(TraceEquivalence, MultiJoinTrace) {
  const char *Text = R"(
array Out 8 output
func multijoin
b0:
  ldi v0, 0
  ldi v1, 64
  ldi v2, 120
  ldi v3, 100
  ldi v4, 110
  fldi v5, 0.5
  jmp b1
b1:
  cmplt v6, v0, v2
  br v6, b2, b9
b2:
  cmplt v7, v0, v3
  br v7, b3, b4
b3:
  itof v8, v0
  fmul v9, v8, v5
  jmp b5
b4:
  itof v10, v0
  fadd v9, v10, v5
  jmp b5
b5:
  fst v9, 0(v1)
  add v11, v0, #3
  cmplt v12, v0, v4
  br v12, b6, b7
b6:
  fadd v13, v9, v5
  jmp b8
b7:
  fmul v13, v9, v9
  jmp b8
b8:
  fst v13, 8(v1)
  add v0, v0, #1
  xor v14, v11, v0
  st v14, 16(v1)
  jmp b1
b9:
  ret
)";
  Module M = parseIR(Text);
  TraceStats S = expectTwinEquivalence(M, "MultiJoinTrace");
  EXPECT_GE(S.LongestTrace, 4) << "both diamonds should fold into one trace";
}

/// A peeled first iteration falling into a loop: the trace grows backward
/// from the hot header into the peeled block, so the loop's own back edge
/// becomes a join into the middle of the trace — and its source (the latch)
/// is itself a trace block. Compensation on that edge must retarget an
/// on-trace terminator to the new block, the subtlest path of the fast
/// core's incremental predecessor bookkeeping.
TEST(TraceEquivalence, PeeledLoopBackEdgeJoin) {
  const char *Text = R"(
array Out 8 output
func peeled
b0:
  ldi v0, 0
  ldi v1, 64
  ldi v2, 100
  fldi v3, 2.0
  fldi v4, 0.0
  jmp b1
b1:
  fadd v4, v4, v3
  fst v4, 0(v1)
  jmp b2
b2:
  cmplt v5, v0, v2
  br v5, b3, b4
b3:
  itof v6, v0
  fmul v7, v6, v3
  fadd v4, v4, v7
  fst v4, 8(v1)
  add v0, v0, #1
  sll v8, v0, #2
  st v8, 16(v1)
  jmp b2
b4:
  ret
)";
  Module M = parseIR(Text);
  TraceStats S = expectTwinEquivalence(M, "PeeledLoopBackEdgeJoin");
  EXPECT_GE(S.MultiBlockTraces, 1) << "peeled entry should join the trace";
}

/// The same stress shapes lowered from source through the full front end:
/// nested biased conditionals yield a trace with several joins at once, and
/// the trace-hostile driver config (if-conversion off) keeps every diamond
/// alive. Checked end-to-end through compileProgram so regalloc runs over
/// the compensation blocks of both cores.
TEST(TraceEquivalence, LoweredNestedDiamonds) {
  const char *Src = R"(
array A[256] output;
var t = 0.0;
for (i = 0; i < 256; i += 1) {
  if (i < 200) {
    if (i < 150) {
      t = t + 1.0;
    } else {
      t = t * 1.5;
    }
    A[i] = t * 2.0;
  } else {
    t = t - 1.0;
    A[i] = t * 0.5;
  }
  A[i] = A[i] + i;
}
)";
  lang::ParseResult PR = lang::parseProgram(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  ASSERT_EQ(lang::checkProgram(PR.Prog), "");

  // Trace-pass-level twin check on the branchy lowering.
  lower::LowerOptions LOpts;
  LOpts.IfConversion = false;
  lower::LowerResult LR = lower::lowerProgram(PR.Prog, LOpts);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  TraceStats S = expectTwinEquivalence(LR.M, "LoweredNestedDiamonds");
  EXPECT_GE(S.MultiBlockTraces, 1);

  // End-to-end twin check under the trace-hostile configuration, with
  // unrolling on top so the trace spans peeled iterations.
  for (int Unroll : {1, 4}) {
    driver::CompileOptions Opts;
    Opts.TraceScheduling = true;
    Opts.Lower.IfConversion = false;
    Opts.UnrollFactor = Unroll;
    driver::CompileOptions RefOpts = Opts;
    RefOpts.TraceImpl = TraceImpl::Reference;
    driver::CompileResult Fast = driver::compileProgram(PR.Prog, Opts);
    driver::CompileResult Ref = driver::compileProgram(PR.Prog, RefOpts);
    ASSERT_TRUE(Fast.ok()) << Fast.Error;
    ASSERT_TRUE(Ref.ok()) << Ref.Error;
    std::string What = "LoweredNestedDiamonds LU" + std::to_string(Unroll);
    EXPECT_EQ(printFunction(Fast.M.Fn), printFunction(Ref.M.Fn)) << What;
    expectStatsEqual(Fast.Trace, Ref.Trace, What);
  }
}
