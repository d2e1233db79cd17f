//===- tests/sim_equivalence_test.cpp - Fast vs reference simulator --------===//
//
// The twin contract for the simulator rewrite: SimImpl::Fast (predecoded
// micro-ops, MRU/one-probe memory-system fast paths, run-based fetch) must
// reproduce SimImpl::Reference (the preserved seed simulator) bit for bit —
// every SimResult field, not just the checksum — across the full workload
// suite and a spread of machine configurations chosen to drive every fast
// path and its fallback:
//
//  * the full 21164 hierarchy (runs the fetch-run and MRU machinery hard);
//  * the 1993 simple stochastic model (RNG draw ordering);
//  * PerfectFrontEnd (no fetch modeling at all);
//  * superscalar widths (issue-group bookkeeping);
//  * a starved machine (1-2 entry TLBs/MSHRs/write buffer: every stall
//    path, constant MSHR pressure, TLB thrash);
//  * non-power-of-two geometries (division/modulo fallbacks instead of the
//    shift/mask paths, including a non-power-of-two page size).
//
// Budget-capped runs are compared too: the two cores must stop at the same
// cycle with identical partial statistics.
//
//===----------------------------------------------------------------------===//

#include "TestConfigs.h"

#include "driver/Experiment.h"
#include "fuzz/Oracle.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::driver;
using namespace bsched::sim;

// The machine-model builders live in src/fuzz/Configs.cpp now, shared with
// the coverage-guided fuzzer; these aliases keep the test bodies readable.
using fuzz::oddGeometryMachine;
using fuzz::perfectFrontEndMachine;
using fuzz::simpleModelMachine;
using fuzz::starvedMachine;
using fuzz::widthMachine;

namespace {

/// Runs both cores on \p M and asserts bit-identical results.
void expectTwinsAgree(const ir::Module &M, MachineConfig C,
                      uint64_t MaxCycles, const std::string &What) {
  C.Impl = SimImpl::Fast;
  SimResult F = simulate(M, C, MaxCycles);
  C.Impl = SimImpl::Reference;
  SimResult R = simulate(M, C, MaxCycles);
  EXPECT_EQ(fuzz::diffSimResults(F, R), "") << What;
}

} // namespace

/// The core grid: every workload under the machine models the experiments
/// actually use (full 21164, the 1993 simple model, back-end-only), capped
/// so the reference core's cost stays bounded. 51 workload x config points.
TEST(SimEquivalence, AllWorkloadsCoreConfigs) {
  CompileOptions Opts;
  Opts.UnrollFactor = 4;
  Opts.VerifyPasses = false;
  const MachineConfig Configs[] = {MachineConfig{}, simpleModelMachine(0.8),
                                   perfectFrontEndMachine()};
  const char *Tags[] = {"21164", "simple80", "pfe"};
  for (const Workload &W : workloads()) {
    lang::Program P = parseWorkload(W);
    CompileResult C = compileProgram(P, Opts);
    ASSERT_TRUE(C.ok()) << W.Name << ": " << C.Error;
    for (size_t I = 0; I != 3; ++I)
      expectTwinsAgree(C.M, Configs[I], /*MaxCycles=*/1000000,
                       std::string(W.Name) + " [" + Tags[I] + "]");
  }
}

/// Stress configurations on a subset of workloads: superscalar widths,
/// starved resources, non-power-of-two geometries, the 0.95 simple model.
TEST(SimEquivalence, StressConfigs) {
  CompileOptions Opts;
  Opts.UnrollFactor = 8;
  Opts.TraceScheduling = true;
  Opts.RegAlloc.AllocatablePerClass = 8; // spills: restores hammer the L1D
  Opts.VerifyPasses = false;
  struct Point {
    const char *Tag;
    MachineConfig C;
  };
  const Point Points[] = {
      {"w2", widthMachine(2)},           {"w4+pfe", widthMachine(4, true)},
      {"starved", starvedMachine()},     {"oddgeom", oddGeometryMachine()},
      {"simple95", simpleModelMachine(0.95)},
  };
  const auto &All = workloads();
  for (size_t WI = 0; WI < All.size() && WI < 5; ++WI) {
    lang::Program P = parseWorkload(All[WI]);
    CompileResult C = compileProgram(P, Opts);
    ASSERT_TRUE(C.ok()) << All[WI].Name << ": " << C.Error;
    for (const Point &Pt : Points)
      expectTwinsAgree(C.M, Pt.C, /*MaxCycles=*/600000,
                       std::string(All[WI].Name) + " [" + Pt.Tag + "]");
  }
}

/// Uncapped runs: the twins agree through to completion, including the
/// checksum and the exact final cycle.
TEST(SimEquivalence, FullRunsToCompletion) {
  CompileOptions Opts;
  Opts.VerifyPasses = false;
  const auto &All = workloads();
  for (size_t WI = 0; WI < All.size() && WI < 3; ++WI) {
    lang::Program P = parseWorkload(All[WI]);
    CompileResult C = compileProgram(P, Opts);
    ASSERT_TRUE(C.ok()) << All[WI].Name << ": " << C.Error;
    MachineConfig M;
    M.Impl = SimImpl::Fast;
    SimResult F = simulate(C.M, M);
    ASSERT_TRUE(F.Finished) << All[WI].Name;
    M.Impl = SimImpl::Reference;
    SimResult R = simulate(C.M, M);
    ASSERT_TRUE(R.Finished) << All[WI].Name;
    EXPECT_EQ(fuzz::diffSimResults(F, R), "") << All[WI].Name;
  }
}

/// Tiny cycle budgets slice execution at arbitrary points — including
/// mid-run in the fetch machinery and mid-stall; the partial statistics
/// must still match exactly at every cut.
TEST(SimEquivalence, BudgetCutsAgreeEverywhere) {
  CompileOptions Opts;
  Opts.VerifyPasses = false;
  lang::Program P = parseWorkload(workloads().front());
  CompileResult C = compileProgram(P, Opts);
  ASSERT_TRUE(C.ok()) << C.Error;
  for (uint64_t Cap : {0ull, 1ull, 7ull, 100ull, 1000ull, 5000ull, 50000ull})
    expectTwinsAgree(C.M, MachineConfig{}, Cap,
                     "budget " + std::to_string(Cap));
}
