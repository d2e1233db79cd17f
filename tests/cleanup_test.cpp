//===- tests/cleanup_test.cpp - Incremental liveness & cleanup twins -------===//
//
// Pins the machinery behind the worklist-driven cleanup fixpoint:
//
//  * ir::LivenessTracker's incremental update contract: after any sequence
//    of block edits (marked via markDirty), refresh() must restore exact
//    equality with the naive reference solve (NaiveLiveness.h) over the
//    edited function — checked under randomized deletions, duplications and
//    reorderings of block instructions, in batches, over lowered workload
//    CFGs. computeLiveness is checked against the same reference.
//  * The rowVersion contract the cleanup pass's skip logic relies on: a
//    block whose rowVersion did not move across a refresh has bit-identical
//    LiveIn/LiveOut rows.
//  * The sweep order: a full solve visits at most (max loop depth + 2)
//    blocks per block, on generated programs and on every workload.
//  * The cleanup twins: opt::cleanupModule's worklist implementation and the
//    reference implementation must produce byte-identical modules and make
//    identical decisions (same semantic counters) on every workload.
//
//===----------------------------------------------------------------------===//

#include "NaiveLiveness.h"
#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "fuzz/Configs.h"
#include "ir/CFG.h"
#include "ir/IRParser.h"
#include "ir/Interp.h"
#include "ir/Liveness.h"
#include "lang/Generate.h"
#include "lang/Parser.h"
#include "opt/Cleanup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::ir;

namespace {

/// CFG-preserving random edit of one block: delete, duplicate, or reorder a
/// non-terminator instruction. Returns false when the block is too small to
/// edit. Never creates register ids, never touches the terminator — the
/// exact mutation envelope the cleanup passes operate in.
bool mutateBlock(BasicBlock &B, std::mt19937 &Rng) {
  size_t Body = B.Instrs.size() - 1; // terminator excluded
  if (Body == 0)
    return false;
  switch (Rng() % 3) {
  case 0: { // delete
    if (Body < 2)
      return false;
    size_t At = Rng() % Body;
    B.Instrs.erase(B.Instrs.begin() + At);
    return true;
  }
  case 1: { // duplicate at a random position
    size_t From = Rng() % Body;
    size_t At = Rng() % (Body + 1);
    Instr Copy = B.Instrs[From];
    B.Instrs.insert(B.Instrs.begin() + At, Copy);
    return true;
  }
  default: { // swap two body instructions
    if (Body < 2)
      return false;
    size_t X = Rng() % Body, Y = Rng() % Body;
    std::swap(B.Instrs[X], B.Instrs[Y]);
    return true;
  }
  }
}

/// Lowered (virtual-register) modules with real multi-block CFGs to mutate:
/// a few workloads across unroll factors and with if-conversion off, so the
/// CFGs cover diamonds, loops and straight-line runs.
std::vector<Module> mutationSubjects() {
  std::vector<Module> Ms;
  const char *Names[] = {"tomcatv", "DYFESM", "hydro2d", "spice2g6"};
  for (const char *Name : Names) {
    const driver::Workload *W = driver::findWorkload(Name);
    if (!W)
      continue;
    lang::Program P = driver::parseWorkload(*W);
    for (int Unroll : {1, 4}) {
      for (bool IfConv : {true, false}) {
        driver::CompileOptions Opts;
        Opts.UnrollFactor = Unroll;
        Opts.CleanupIR = false;
        Opts.Lower.IfConversion = IfConv;
        driver::CompileResult FE = driver::compileFrontEnd(P, Opts);
        if (FE.ok())
          Ms.push_back(std::move(FE.M));
      }
    }
  }
  return Ms;
}

} // namespace

//===----------------------------------------------------------------------===//
// LivenessTracker incremental-update contract
//===----------------------------------------------------------------------===//

/// The first compute(), and computeLiveness, must already equal the naive
/// reference solve.
TEST(LivenessTracker, InitialComputeMatchesOneShot) {
  for (const Module &M : mutationSubjects()) {
    LivenessTracker T;
    T.compute(M.Fn);
    ASSERT_TRUE(T.valid());
    test::expectMatchesNaive(T, M.Fn, M.Fn.Name);
    test::expectMatchesNaive(computeLiveness(M.Fn), M.Fn,
                             M.Fn.Name + " computeLiveness");
  }
}

/// Randomized edit batches: mark, refresh, compare against the naive solve.
/// Deterministic seed so failures replay.
TEST(LivenessTracker, RandomizedEditsMatchFreshSolve) {
  std::mt19937 Rng(0xba15c4ed);
  for (Module &M : mutationSubjects()) {
    Function &F = M.Fn;
    LivenessTracker T;
    T.compute(F);
    for (int Round = 0; Round != 24; ++Round) {
      int Edits = 1 + static_cast<int>(Rng() % 4);
      bool Touched = false;
      for (int E = 0; E != Edits; ++E) {
        int B = static_cast<int>(Rng() % F.Blocks.size());
        if (mutateBlock(F.Blocks[B], Rng)) {
          T.markDirty(B);
          Touched = true;
        }
      }
      if (!Touched)
        continue;
      T.refresh(F);
      test::expectMatchesNaive(T, F,
                               std::string(F.Name) + " round " +
                                   std::to_string(Round));
    }
  }
}

/// A refresh after marking blocks dirty WITHOUT editing them must leave the
/// solution unchanged (markDirty is conservative, refresh is exact), and a
/// refresh with nothing dirty must be a no-op.
TEST(LivenessTracker, SpuriousDirtyMarksAreExact) {
  for (Module &M : mutationSubjects()) {
    Function &F = M.Fn;
    LivenessTracker T;
    T.compute(F);
    T.refresh(F); // clean: no-op
    test::expectMatchesNaive(T, F, std::string(F.Name) + " clean refresh");
    for (size_t B = 0; B < F.Blocks.size(); B += 2)
      T.markDirty(static_cast<int>(B));
    T.refresh(F);
    test::expectMatchesNaive(T, F, std::string(F.Name) + " spurious dirty");
  }
}

/// The skip-logic contract: a block whose rowVersion did not move across a
/// refresh has bit-identical LiveIn/LiveOut rows. (The converse need not
/// hold — versions bump conservatively for every block in the affected
/// region.) The cleanup pass's per-block DCE and hoist caches rely on this.
TEST(LivenessTracker, UnchangedRowVersionMeansUnchangedRows) {
  std::mt19937 Rng(0x5eed);
  for (Module &M : mutationSubjects()) {
    Function &F = M.Fn;
    LivenessTracker T;
    T.compute(F);
    size_t W = T.words();
    size_t NB = F.Blocks.size();
    std::vector<uint64_t> SnapIn(NB * W), SnapOut(NB * W), Ver(NB);
    for (int Round = 0; Round != 12; ++Round) {
      for (size_t B = 0; B != NB; ++B) {
        std::memcpy(&SnapIn[B * W], T.liveInRow(static_cast<int>(B)),
                    W * sizeof(uint64_t));
        std::memcpy(&SnapOut[B * W], T.liveOutRow(static_cast<int>(B)),
                    W * sizeof(uint64_t));
        Ver[B] = T.rowVersion(static_cast<int>(B));
      }
      int B = static_cast<int>(Rng() % NB);
      if (!mutateBlock(F.Blocks[B], Rng))
        continue;
      T.markDirty(B);
      T.refresh(F);
      for (size_t Blk = 0; Blk != NB; ++Blk) {
        ASSERT_GE(T.rowVersion(static_cast<int>(Blk)), Ver[Blk])
            << F.Name << ": rowVersion went backwards";
        if (T.rowVersion(static_cast<int>(Blk)) != Ver[Blk])
          continue;
        EXPECT_EQ(std::memcmp(&SnapIn[Blk * W],
                              T.liveInRow(static_cast<int>(Blk)),
                              W * sizeof(uint64_t)),
                  0)
            << F.Name << ": block " << Blk
            << " LiveIn moved under an unchanged rowVersion";
        EXPECT_EQ(std::memcmp(&SnapOut[Blk * W],
                              T.liveOutRow(static_cast<int>(Blk)),
                              W * sizeof(uint64_t)),
                  0)
            << F.Name << ": block " << Blk
            << " LiveOut moved under an unchanged rowVersion";
      }
    }
  }
}

/// Guards the sweep order without timing anything. A full solve in DFS
/// postorder settles in at most (max loop depth + 2) sweeps on a reducible
/// CFG, so it visits at most that many blocks per block. An order blind to
/// the CFG, such as descending block ids, takes about 24 sweeps on these
/// modules, far past the bound.
/// Checked on the front-end modules of generated programs under every
/// differential config and on the 17 workloads at LU1/4/8.
TEST(LivenessTracker, FullSolveSweepsWithinLoopDepthPlusTwo) {
  auto Check = [](const Function &F, const std::string &What) {
    LivenessTracker T;
    T.compute(F);
    std::vector<int> Depth = loopDepths(F);
    int MaxDepth = Depth.empty() ? 0 : *std::max_element(Depth.begin(),
                                                         Depth.end());
    EXPECT_LE(T.BlocksResolved,
              (MaxDepth + 2) * static_cast<int>(F.Blocks.size()))
        << What << ": " << F.Blocks.size() << " blocks, max loop depth "
        << MaxDepth;
  };
  std::vector<driver::CompileOptions> Configs =
      fuzz::differentialCompileConfigs();
  for (uint64_t Seed = 600; Seed != 620; ++Seed) {
    lang::Program P = lang::generateProgram(Seed);
    for (size_t C = 0; C != Configs.size(); ++C) {
      driver::CompileResult FE = driver::compileFrontEnd(P, Configs[C]);
      std::string What =
          "seed " + std::to_string(Seed) + " config " + std::to_string(C);
      ASSERT_TRUE(FE.ok()) << What << ": " << FE.Error;
      Check(FE.M.Fn, What);
    }
  }
  for (const driver::Workload &W : driver::workloads()) {
    lang::Program P = driver::parseWorkload(W);
    for (int LU : {1, 4, 8}) {
      driver::CompileOptions Opts;
      Opts.UnrollFactor = LU;
      driver::CompileResult FE = driver::compileFrontEnd(P, Opts);
      std::string What = std::string(W.Name) + " LU" + std::to_string(LU);
      ASSERT_TRUE(FE.ok()) << What << ": " << FE.Error;
      Check(FE.M.Fn, What);
    }
  }
}

//===----------------------------------------------------------------------===//
// Cleanup twins
//===----------------------------------------------------------------------===//

/// The worklist cleanup and the reference twin must produce byte-identical
/// modules, identical semantic counters, and preserve the interpreter
/// checksum, over every workload at several unroll factors.
TEST(CleanupTwins, WorkloadSweep) {
  for (const driver::Workload &W : driver::workloads()) {
    lang::Program P = driver::parseWorkload(W);
    for (int Unroll : {1, 8}) {
      driver::CompileOptions Opts;
      Opts.UnrollFactor = Unroll;
      Opts.CleanupIR = false;
      driver::CompileResult FE = driver::compileFrontEnd(P, Opts);
      ASSERT_TRUE(FE.ok()) << W.Name << ": " << FE.Error;
      std::string What =
          std::string(W.Name) + " LU" + std::to_string(Unroll);

      InterpResult Before = interpret(FE.M);
      ASSERT_TRUE(Before.Finished) << What;

      Module FastM = FE.M;
      Module RefM = FE.M;
      opt::CleanupStats FS = opt::cleanupModule(FastM, false);
      opt::CleanupStats RS = opt::cleanupModule(RefM, true);

      EXPECT_EQ(printFunction(FastM.Fn), printFunction(RefM.Fn))
          << What << ": worklist cleanup diverged from the reference twin";
      EXPECT_EQ(FS.CopiesPropagated, RS.CopiesPropagated) << What;
      EXPECT_EQ(FS.ConstantsFolded, RS.ConstantsFolded) << What;
      EXPECT_EQ(FS.Hoisted, RS.Hoisted) << What;
      EXPECT_EQ(FS.DeadRemoved, RS.DeadRemoved) << What;

      InterpResult After = interpret(FastM);
      ASSERT_TRUE(After.Finished) << What;
      EXPECT_EQ(After.Checksum, Before.Checksum)
          << What << ": cleanup changed program behaviour";
    }
  }
}
