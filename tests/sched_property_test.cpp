//===- tests/sched_property_test.cpp - Scheduler invariants, fuzzed --------===//
//
// Property-based checks of the dependence DAG and list scheduler over blocks
// taken from randomly generated programs: schedules are valid topological
// orders, balanced weights respect their bounds, scheduling is
// deterministic, and the register-pressure ceiling actually reduces the
// maximum number of simultaneously live values.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Configs.h"
#include "lang/Generate.h"
#include "lang/Parser.h"
#include "sched/DepDAG.h"
#include "sched/Exact.h"
#include "sched/Schedule.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>
#include <map>

using namespace bsched;
using namespace bsched::ir;
using namespace bsched::sched;

namespace {

/// All blocks of a lowered (optionally unrolled) fuzz program with at least
/// \p MinSize instructions.
std::vector<std::vector<const Instr *>> fuzzBlocks(uint64_t Seed,
                                                   Module &Storage,
                                                   int Unroll = 1,
                                                   size_t MinSize = 4) {
  driver::CompileOptions Opts;
  Opts.UnrollFactor = Unroll;
  Opts.CleanupIR = false;
  driver::CompileResult FE =
      driver::compileFrontEnd(lang::generateProgram(Seed), Opts);
  EXPECT_TRUE(FE.ok()) << FE.Error;
  Storage = std::move(FE.M);
  std::vector<std::vector<const Instr *>> Out;
  for (const BasicBlock &B : Storage.Fn.Blocks) {
    if (B.Instrs.size() < MinSize)
      continue;
    std::vector<const Instr *> Ptrs;
    for (const Instr &I : B.Instrs)
      Ptrs.push_back(&I);
    Out.push_back(std::move(Ptrs));
  }
  return Out;
}

void expectValidTopo(const DepDAG &G, const std::vector<unsigned> &Order) {
  ASSERT_EQ(Order.size(), G.size());
  std::vector<unsigned> Pos(G.size());
  std::vector<bool> Seen(G.size(), false);
  for (unsigned K = 0; K != Order.size(); ++K) {
    ASSERT_FALSE(Seen[Order[K]]);
    Seen[Order[K]] = true;
    Pos[Order[K]] = K;
  }
  for (unsigned I = 0; I != G.size(); ++I)
    for (unsigned S : G.succs(I))
      EXPECT_LT(Pos[I], Pos[S]);
}

/// Maximum simultaneously live values (per class) of a schedule: a value is
/// live from its producer's position to its last reader's.
unsigned maxLive(const std::vector<const Instr *> &Instrs,
                 const std::vector<unsigned> &Order, RegClass Cls) {
  // Producer node per register at each point, in scheduled order.
  std::vector<const Instr *> Seq;
  for (unsigned N : Order)
    Seq.push_back(Instrs[N]);
  std::map<uint32_t, size_t> LastDef;
  // Intervals [def, lastUse] over scheduled positions.
  std::map<std::pair<uint32_t, size_t>, size_t> End; // (reg,defpos)->lastuse
  std::vector<Reg> Uses;
  for (size_t K = 0; K != Seq.size(); ++K) {
    Uses.clear();
    Seq[K]->appendUses(Uses);
    for (Reg R : Uses) {
      auto It = LastDef.find(R.Id);
      if (It != LastDef.end())
        End[{R.Id, It->second}] = K;
    }
    if (Reg D = Seq[K]->def(); D.isValid())
      LastDef[D.Id] = K;
  }
  std::vector<int> Delta(Seq.size() + 1, 0);
  for (const auto &[Key, E] : End) {
    size_t DefPos = Key.second;
    const Instr *Def = Seq[DefPos];
    bool IsFp = opInfo(Def->Op).DstCls == 1;
    if ((Cls == RegClass::Fp) != IsFp)
      continue;
    ++Delta[DefPos];
    --Delta[E];
  }
  int Live = 0, Max = 0;
  for (size_t K = 0; K != Delta.size(); ++K) {
    Live += Delta[K];
    Max = std::max(Max, Live);
  }
  return static_cast<unsigned>(Max);
}

class SchedProperty : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(SchedProperty, SchedulesAreValidTopologicalOrders) {
  Module M;
  for (auto &Ptrs : fuzzBlocks(GetParam(), M)) {
    DepDAG G = buildDepDAG(Ptrs);
    addBlockControlEdges(G, Ptrs);
    for (auto Kind : {SchedulerKind::Traditional, SchedulerKind::Balanced}) {
      std::vector<double> W = Kind == SchedulerKind::Balanced
                                  ? balancedWeights(G, Ptrs)
                                  : traditionalWeights(Ptrs);
      expectValidTopo(G, listSchedule(G, W, Ptrs));
    }
  }
}

TEST_P(SchedProperty, BalancedWeightBounds) {
  Module M;
  for (auto &Ptrs : fuzzBlocks(GetParam(), M)) {
    DepDAG G = buildDepDAG(Ptrs);
    addBlockControlEdges(G, Ptrs);
    std::vector<double> W = balancedWeights(G, Ptrs);
    for (size_t K = 0; K != Ptrs.size(); ++K) {
      if (Ptrs[K]->isLoad()) {
        EXPECT_GE(W[K], static_cast<double>(LoadHitLatency));
        EXPECT_LE(W[K], static_cast<double>(LoadWeightCap));
      } else {
        EXPECT_DOUBLE_EQ(W[K],
                         static_cast<double>(opInfo(Ptrs[K]->Op).Latency));
      }
    }
  }
}

TEST_P(SchedProperty, SchedulingIsDeterministic) {
  Module M1, M2;
  auto A = fuzzBlocks(GetParam(), M1);
  auto B = fuzzBlocks(GetParam(), M2);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(scheduleRegion(A[I], SchedulerKind::Balanced),
              scheduleRegion(B[I], SchedulerKind::Balanced));
  }
}

TEST_P(SchedProperty, PressureCeilingReducesMaxLive) {
  // On unrolled code (big blocks), a low ceiling must not increase the
  // schedule's maximum liveness relative to no ceiling, and should reduce it
  // whenever the unconstrained schedule exceeds the ceiling by a margin.
  Module M;
  for (auto &Ptrs : fuzzBlocks(GetParam(), M, /*Unroll=*/4, /*MinSize=*/24)) {
    DepDAG G = buildDepDAG(Ptrs);
    addBlockControlEdges(G, Ptrs);
    std::vector<double> W = balancedWeights(G, Ptrs);
    std::vector<unsigned> Free = listSchedule(G, W, Ptrs, /*Threshold=*/0);
    std::vector<unsigned> Capped = listSchedule(G, W, Ptrs, /*Threshold=*/6);
    expectValidTopo(G, Capped);
    for (RegClass Cls : {RegClass::Int, RegClass::Fp}) {
      unsigned MF = maxLive(Ptrs, Free, Cls);
      unsigned MC = maxLive(Ptrs, Capped, Cls);
      if (MF > 10) {
        EXPECT_LT(MC, MF) << "ceiling did not relieve pressure";
      }
      EXPECT_LE(MC, std::max(MF, 8u));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedProperty,
                         ::testing::Values(1, 3, 7, 11, 19, 23, 42, 77, 101,
                                           311));

// On every block the exact branch-and-bound oracle closes, across the
// shared differential compile configs: the fast schedule is never better
// than the proven optimum (the gap is never negative — fast-beats-exact
// would be a solver bug), the solver's order is a legal topological order,
// and the exact schedule passes the independent verify:: legality checker
// exactly like the fast one (which the pipeline already verified under
// VerifyPasses).
TEST(ExactOptimalityGap, ClosedBlocksAreLegalAndNeverNegative) {
  exact::ExactOptions EO;
  EO.MaxNodes = 24;
  EO.MaxExpansions = 20000;
  unsigned Attempted = 0, Closed = 0;
  for (uint64_t Seed : {uint64_t(3), uint64_t(42), uint64_t(101)}) {
    lang::Program P = lang::generateProgram(Seed);
    for (driver::CompileOptions Cfg : fuzz::differentialCompileConfigs()) {
      Cfg.StopBeforeRegAlloc = true; // judge the scheduler's own output
      driver::CompileResult C = driver::compileProgram(P, Cfg);
      ASSERT_TRUE(C.ok()) << Cfg.tag() << ": " << C.Error;
      for (size_t BI = 0; BI != C.M.Fn.Blocks.size(); ++BI) {
        const BasicBlock &B = C.M.Fn.Blocks[BI];
        if (B.Instrs.size() <= 2 || B.Instrs.size() > EO.MaxNodes)
          continue;
        std::vector<const Instr *> Ptrs;
        for (const Instr &I : B.Instrs)
          Ptrs.push_back(&I);
        DepDAG G = buildDepDAG(Ptrs);
        addBlockControlEdges(G, Ptrs);
        // The block is already scheduled, so identity IS the fast order.
        std::vector<unsigned> Fast(Ptrs.size());
        for (unsigned K = 0; K != Ptrs.size(); ++K)
          Fast[K] = K;
        unsigned FastCycles = exact::evaluateOrder(G, Ptrs, Fast, EO);
        exact::ExactResult R = exact::scheduleExact(G, Ptrs, EO, &Fast);
        ++Attempted;
        EXPECT_LE(R.Cycles, FastCycles)
            << Cfg.tag() << " b" << B.Id << ": solver lost to its warm start";
        if (!R.closed())
          continue;
        ++Closed;
        EXPECT_EQ(R.LowerBound, R.Cycles);
        expectValidTopo(G, R.Order);
        EXPECT_EQ(exact::evaluateOrder(G, Ptrs, R.Order, EO), R.Cycles);

        ir::Module After = C.M;
        std::vector<Instr> Permuted;
        Permuted.reserve(B.Instrs.size());
        for (unsigned N : R.Order)
          Permuted.push_back(B.Instrs[N]);
        After.Fn.Blocks[BI].Instrs = std::move(Permuted);
        verify::VerifyResult V = verify::verifySchedule(C.M, After);
        EXPECT_TRUE(V.ok())
            << Cfg.tag() << " b" << B.Id << ":\n" << V.report();
      }
    }
  }
  // The sweep must actually exercise the solver, and mostly close.
  EXPECT_GT(Attempted, 20u);
  EXPECT_GE(Closed * 10, Attempted * 6) << Closed << "/" << Attempted;
}
