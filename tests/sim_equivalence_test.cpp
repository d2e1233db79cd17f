//===- tests/sim_equivalence_test.cpp - Fast vs reference simulator --------===//
//
// The twin contract for the simulator rewrite: SimImpl::Fast (predecoded
// micro-ops, hinted/one-probe memory-system fast paths, run-based fetch) must
// reproduce SimImpl::Reference (the preserved seed simulator) bit for bit —
// every SimResult field, not just the checksum — across the full workload
// suite and a spread of machine configurations chosen to drive every fast
// path and its fallback:
//
//  * the full 21164 hierarchy (runs the fetch-run and TLB-hint machinery
//    hard);
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

#include "driver/Experiment.h"
#include "fuzz/Configs.h"
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

namespace {

/// What a budget cut in front of a dynamic instruction interrupts.
struct DynInstr {
  /// Continues the previous instruction's fetch run (same block, I-cache
  /// line and page), so its fetch was booked at the run's head.
  bool MidRun;
  bool Terminator;
};

/// The first \p N dynamic instructions of \p M under \p C, from an
/// architectural walk of the module, independent of both cores.
std::vector<DynInstr> walkDynamic(const ir::Module &M, const MachineConfig &C,
                                  size_t N) {
  const ir::Function &F = M.Fn;
  std::vector<uint64_t> CodeAddr(F.Blocks.size());
  uint64_t Addr = CodeBase;
  for (const ir::BasicBlock &B : F.Blocks) {
    CodeAddr[static_cast<size_t>(B.Id)] = Addr;
    Addr += 4 * B.Instrs.size();
  }
  ir::ExecState S(M);
  std::vector<DynInstr> Trace;
  int Block = 0;
  size_t Index = 0;
  while (Trace.size() < N) {
    const ir::Instr &In =
        F.Blocks[static_cast<size_t>(Block)].Instrs[Index];
    uint64_t A = CodeAddr[static_cast<size_t>(Block)] + 4 * Index;
    Trace.push_back({Index != 0 &&
                         A / C.L1I.LineSize == (A - 4) / C.L1I.LineSize &&
                         A / C.PageSize == (A - 4) / C.PageSize,
                     In.isTerminator()});
    if (!In.isTerminator()) {
      ir::executeInstr(S, In);
      ++Index;
      continue;
    }
    if (In.Op == ir::Opcode::Ret)
      break;
    Block = In.Op == ir::Opcode::Br && S.readInt(In.SrcA) == 0 ? In.Target1
                                                              : In.Target0;
    Index = 0;
  }
  return Trace;
}

} // namespace

/// Cycle budgets slice execution at arbitrary points; the partial
/// statistics must match exactly at every cut. Every cap from 0 to 400 is
/// tried, so the cuts land where the two cores keep their state
/// differently: inside a fetch run, whose hits the fast core books at the
/// run's head, and inside a partly filled issue group. The sweep checks
/// that it reached both, rather than leave it to luck.
TEST(SimEquivalence, BudgetCutsAgreeEverywhere) {
  CompileOptions Opts;
  Opts.VerifyPasses = false;
  struct Point {
    const char *Tag;
    MachineConfig C;
  };
  const Point Points[] = {{"21164", MachineConfig{}},
                          {"w4", widthMachine(4)},
                          {"starved", starvedMachine()}};
  constexpr uint64_t MaxDenseCap = 400;
  const auto &All = workloads();
  for (size_t WI = 0; WI < All.size() && WI < 2; ++WI) {
    lang::Program P = parseWorkload(All[WI]);
    CompileResult C = compileProgram(P, Opts);
    ASSERT_TRUE(C.ok()) << All[WI].Name << ": " << C.Error;
    for (const Point &Pt : Points) {
      const std::string Where =
          std::string(All[WI].Name) + " [" + Pt.Tag + "]";
      std::vector<uint64_t> Caps;
      for (uint64_t Cap = 0; Cap <= MaxDenseCap; ++Cap)
        Caps.push_back(Cap);
      for (uint64_t Cap : {1000ull, 5000ull, 50000ull})
        Caps.push_back(Cap);
      // Instructions issued before each dense cap's cut.
      std::vector<uint64_t> Issued;
      for (uint64_t Cap : Caps) {
        MachineConfig MC = Pt.C;
        MC.Impl = SimImpl::Fast;
        SimResult F = simulate(C.M, MC, Cap);
        MC.Impl = SimImpl::Reference;
        SimResult R = simulate(C.M, MC, Cap);
        ASSERT_EQ(fuzz::diffSimResults(F, R), "")
            << Where << " budget " << Cap;
        if (Cap <= MaxDenseCap) {
          ASSERT_FALSE(R.Finished) << Where << ": finished within the sweep";
          Issued.push_back(R.Counts.total());
        }
      }

      std::vector<DynInstr> Trace =
          walkDynamic(C.M, Pt.C, Issued.back() + 1);
      bool CutMidRun = false, CutMidGroup = false;
      for (uint64_t Cap = 0; Cap != MaxDenseCap; ++Cap) {
        uint64_t N = Issued[Cap];
        ASSERT_LT(N, Trace.size()) << Where;
        CutMidRun |= Trace[N].MidRun;
        // The next cap's run issues the cut instruction and one more
        // without leaving the cut's cycle, and the instruction before the
        // cut was no terminator, which may close its group. So the group
        // open at the cut held an instruction and had room for the next.
        CutMidGroup |= N != 0 && Issued[Cap + 1] >= N + 2 &&
                       !Trace[N - 1].Terminator;
      }
      EXPECT_TRUE(CutMidRun) << Where << ": no cut inside a fetch run";
      if (Pt.C.IssueWidth > 1) {
        EXPECT_TRUE(CutMidGroup)
            << Where << ": no cut inside a partly filled issue group";
      }
    }
  }
}
