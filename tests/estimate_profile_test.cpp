//===- tests/estimate_profile_test.cpp - Static frequency estimation ------===//

#include "driver/Experiment.h"
#include "driver/Workloads.h"
#include "fuzz/Configs.h"
#include "fuzz/Oracle.h"
#include "ir/Interp.h"
#include "lang/Eval.h"
#include "lang/Parser.h"
#include "lower/Lower.h"
#include "ir/CFG.h"
#include "trace/EstimateProfile.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace bsched;
using namespace bsched::ir;
using namespace bsched::trace;

namespace {

Module lowerBranchy(const std::string &Src) {
  lang::ParseResult PR = lang::parseProgram(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  EXPECT_EQ(lang::checkProgram(PR.Prog), "");
  lower::LowerOptions LOpts;
  LOpts.IfConversion = false;
  lower::LowerResult LR = lower::lowerProgram(PR.Prog, LOpts);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return std::move(LR.M);
}

const char *NestedLoops = R"(
array A[16][16] output;
for (i = 0; i < 16; i += 1) {
  for (j = 0; j < 16; j += 1) {
    A[i][j] = i + j;
  }
  A[i][0] = A[i][0] * 2.0;
}
A[0][0] = 1.0;
)";

} // namespace

TEST(LoopDepths, ReflectsNesting) {
  Module M = lowerBranchy(NestedLoops);
  std::vector<int> Depth = loopDepths(M.Fn);
  // Entry is depth 0; some block is depth 1 (outer body) and some depth 2
  // (inner body).
  EXPECT_EQ(Depth[0], 0);
  int MaxDepth = 0;
  for (int D : Depth)
    MaxDepth = std::max(MaxDepth, D);
  EXPECT_EQ(MaxDepth, 2);
}

TEST(EstimateProfile, DeeperBlocksGetHigherCounts) {
  Module M = lowerBranchy(NestedLoops);
  InterpResult Est = estimateProfile(M.Fn);
  std::vector<int> Depth = loopDepths(M.Fn);
  for (size_t A = 0; A != Depth.size(); ++A)
    for (size_t B = 0; B != Depth.size(); ++B)
      if (Depth[A] > Depth[B]) {
        EXPECT_GT(Est.BlockCounts[A], Est.BlockCounts[B])
            << "blocks " << A << " vs " << B;
      }
}

TEST(EstimateProfile, EdgeCountsConserveFlow) {
  Module M = lowerBranchy(NestedLoops);
  InterpResult Est = estimateProfile(M.Fn);
  for (const BasicBlock &B : M.Fn.Blocks) {
    std::vector<int> Succs = B.successors();
    if (Succs.empty())
      continue;
    uint64_t Out = Est.EdgeCounts[B.Id][0] + Est.EdgeCounts[B.Id][1];
    EXPECT_EQ(Out, Est.BlockCounts[B.Id]) << "block " << B.Id;
  }
}

TEST(EstimateProfile, BackEdgesDominateLoopBranches) {
  Module M = lowerBranchy("array A[64] output;\n"
                          "for (i = 0; i < 64; i += 1) { A[i] = i; }\n");
  InterpResult Est = estimateProfile(M.Fn);
  std::vector<std::vector<bool>> Back = findBackEdges(M.Fn);
  for (const BasicBlock &B : M.Fn.Blocks) {
    std::vector<int> Succs = B.successors();
    for (size_t K = 0; K != Succs.size(); ++K)
      if (Back[B.Id][K] && Succs.size() == 2) {
        size_t Other = 1 - K;
        EXPECT_GT(Est.EdgeCounts[B.Id][K], Est.EdgeCounts[B.Id][Other]);
      }
  }
}

TEST(EstimateProfile, DrivesTraceFormationLikeAProfile) {
  // On a biased diamond, the estimator cannot know the bias (50/50 split),
  // but its traces must still be valid paths covering every block once.
  Module M = lowerBranchy(R"(
array A[128] output;
var t = 0.0;
for (i = 0; i < 128; i += 1) {
  if (i < 120) { t = t + 1.0; A[i] = t; } else { A[i] = 0.0; }
  A[i] = A[i] + 1.0;
}
)");
  InterpResult Est = estimateProfile(M.Fn);
  std::vector<Trace> Traces = formTraces(M.Fn, Est);
  std::vector<int> Seen(M.Fn.Blocks.size(), 0);
  for (const Trace &T : Traces)
    for (int B : T)
      ++Seen[B];
  for (size_t B = 0; B != Seen.size(); ++B)
    EXPECT_EQ(Seen[B], 1);
}

TEST(EstimateProfile, TraceSchedulingWithEstimatesPreservesSemantics) {
  for (const char *Name : {"DYFESM", "doduc", "hydro2d", "mdljdp2"}) {
    lang::Program P = driver::parseWorkload(*driver::findWorkload(Name));
    lang::EvalResult Ref = lang::evalProgram(P);
    driver::CompileOptions O;
    O.TraceScheduling = true;
    O.UseEstimatedProfile = true;
    O.UnrollFactor = 4;
    driver::CompileResult C = driver::compileProgram(P, O);
    ASSERT_TRUE(C.ok()) << Name << ": " << C.Error;
    EXPECT_EQ(interpret(C.M).Checksum, Ref.Checksum) << Name;
  }
}

TEST(EstimateProfile, ConservesFlowOnEveryWorkload) {
  // The flow-conservation contract on real code: every workload, lowered and
  // cleaned the way the compile pipeline sees it, must yield a Finished
  // estimate where per block (entry units included) in-sum == count ==
  // out-sum, exactly, in integers.
  for (const driver::Workload &W : driver::workloads()) {
    driver::CompileResult FE =
        driver::compileFrontEnd(driver::parseWorkload(W), {});
    ASSERT_TRUE(FE.ok()) << W.Name << ": " << FE.Error;
    InterpResult Est = estimateProfile(FE.M.Fn);
    EXPECT_TRUE(Est.Finished) << W.Name;
    EXPECT_EQ(checkProfileConservation(FE.M.Fn, Est, EstimateEntryCount), "")
        << W.Name;
  }
}

TEST(EstimateProfile, ConservesFlowUnderFuzzConfigs) {
  // Same contract through the fuzzer's estimated-profile oracle leg: every
  // differential compile config (locality, unroll, cleanup on/off, both
  // scheduler kinds) rebuilt exactly as the pipeline would, on a few
  // representative workloads. A clean leg means conserving, deterministic,
  // Finished, and digestible by formTraces; the compile oracle's twin legs
  // run too.
  fuzz::OracleOptions Opts;
  Opts.CheckEstimatedProfile = true;
  for (const char *Name : {"DYFESM", "hydro2d", "mdljdp2"}) {
    lang::Program P = driver::parseWorkload(*driver::findWorkload(Name));
    for (const driver::CompileOptions &Config :
         fuzz::differentialCompileConfigs()) {
      fuzz::Failure F = fuzz::runCompileOracle(P, Config, Opts);
      EXPECT_EQ(F.Kind, fuzz::FailureKind::None)
          << Name << " [" << Config.tag() << "]: "
          << fuzz::failureKindName(F.Kind) << " " << F.Detail;
    }
  }
}

TEST(EstimateProfile, RecoversExactTripCounts) {
  // Statically-bounded loops are annotated at lowering time, so a nest whose
  // every branch is trip-count-determined must be estimated *exactly*: the
  // estimate equals the interpreted profile scaled by EstimateEntryCount,
  // block for block and edge for edge. Covers nesting, a constant-expression
  // bound, and a non-unit stride (trip = ceil(13/3) = 5).
  Module M = lowerBranchy(R"(
array A[16][16] output;
for (i = 0; i < 16 - 4; i += 1) {
  for (j = 0; j < 13; j += 3) {
    A[i][j] = i + j;
  }
  A[i][0] = A[i][0] + 1.0;
}
A[0][0] = 1.0;
)");
  InterpResult Est = estimateProfile(M.Fn);
  InterpResult Interp = interpret(M);
  ASSERT_TRUE(Est.Finished);
  ASSERT_TRUE(Interp.Finished);
  EXPECT_EQ(checkProfileConservation(M.Fn, Est, EstimateEntryCount), "");
  for (const BasicBlock &B : M.Fn.Blocks) {
    EXPECT_EQ(Est.BlockCounts[B.Id],
              Interp.BlockCounts[B.Id] * EstimateEntryCount)
        << "block " << B.Id;
    for (size_t K = 0; K != B.successors().size(); ++K)
      EXPECT_EQ(Est.EdgeCounts[B.Id][K],
                Interp.EdgeCounts[B.Id][K] * EstimateEntryCount)
          << "block " << B.Id << " slot " << K;
  }
}

TEST(EstimateProfile, ExactOnZeroTripAndPeeledStrides) {
  // Degenerate static bounds still recover exactly: a loop that never runs
  // (trip 0) and a short stride-4 loop whose last iteration is a partial
  // step (i = 3, 7; trip 2).
  Module M = lowerBranchy(R"(
array A[16] output;
for (i = 8; i < 8; i += 1) { A[i] = i; }
for (i = 3; i < 10; i += 4) { A[i] = i * 2; }
A[0] = 1.0;
)");
  InterpResult Est = estimateProfile(M.Fn);
  InterpResult Interp = interpret(M);
  ASSERT_TRUE(Est.Finished);
  ASSERT_TRUE(Interp.Finished);
  EXPECT_EQ(checkProfileConservation(M.Fn, Est, EstimateEntryCount), "");
  for (const BasicBlock &B : M.Fn.Blocks)
    EXPECT_EQ(Est.BlockCounts[B.Id],
              Interp.BlockCounts[B.Id] * EstimateEntryCount)
        << "block " << B.Id;
}

namespace {

/// Hand-built CFG skeletons the source language cannot express. Only the
/// terminators matter to the estimator; each block carries a defining LdI so
/// the function is not degenerate.
Module buildCfg(const std::vector<std::pair<int, int>> &Edges, int NumBlocks) {
  Module M;
  Function &F = M.Fn;
  Reg C = F.makeReg(RegClass::Int);
  for (int B = 0; B != NumBlocks; ++B)
    F.makeBlock();
  for (int B = 0; B != NumBlocks; ++B) {
    Instr In;
    In.Op = Opcode::LdI;
    In.Dst = C;
    In.Imm = 1;
    In.HasImm = true;
    F.Blocks[B].Instrs.push_back(In);
    std::vector<int> Succ;
    for (const auto &E : Edges)
      if (E.first == B)
        Succ.push_back(E.second);
    Instr T;
    if (Succ.empty()) {
      T.Op = Opcode::Ret;
    } else if (Succ.size() == 1) {
      T.Op = Opcode::Jmp;
      T.Target0 = Succ[0];
    } else {
      T.Op = Opcode::Br;
      T.SrcA = C;
      T.Target0 = Succ[0];
      T.Target1 = Succ[1];
    }
    F.Blocks[B].Instrs.push_back(T);
  }
  return M;
}

} // namespace

TEST(EstimateProfile, IrreducibleCfgFallsBackAndConserves) {
  // b1 and b2 jump into each other's "loop" without a dominating header —
  // the classic irreducible diamond. The reducible solver must refuse it and
  // the iterative fallback must still terminate with an exactly conserving,
  // deterministic estimate.
  Module M = buildCfg({{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 1}, {2, 3}},
                      /*NumBlocks=*/4);
  InterpResult Est = estimateProfile(M.Fn);
  EXPECT_TRUE(Est.Finished);
  EXPECT_EQ(checkProfileConservation(M.Fn, Est, EstimateEntryCount), "");
  InterpResult Est2 = estimateProfile(M.Fn);
  EXPECT_EQ(Est.BlockCounts, Est2.BlockCounts);
  EXPECT_EQ(Est.EdgeCounts, Est2.EdgeCounts);
  // All entry flow must reach the lone Ret block.
  EXPECT_EQ(Est.BlockCounts[3], EstimateEntryCount);
}

TEST(EstimateProfile, WhileShapeLoopConserves) {
  // A rotated-the-other-way loop: the header holds the exit branch and the
  // latch is an unconditional Jmp. The latch *must* deliver all its flow on
  // the back edge, which the planned-deficit pass cannot honor — this is the
  // over-delivery bailout path into the fallback.
  Module M = buildCfg({{0, 1}, {1, 2}, {1, 3}, {2, 1}}, /*NumBlocks=*/4);
  InterpResult Est = estimateProfile(M.Fn);
  EXPECT_TRUE(Est.Finished);
  EXPECT_EQ(checkProfileConservation(M.Fn, Est, EstimateEntryCount), "");
  // The loop body still looks hot relative to straight-line code.
  EXPECT_GT(Est.BlockCounts[2], 0u);
  EXPECT_EQ(Est.BlockCounts[3], EstimateEntryCount);
}

TEST(EstimateProfile, NonTerminatingCfgIsJudgedUnfinished) {
  // No path from the entry to a Ret: the estimator must report Finished ==
  // false, mirroring the interpreter exhausting its budget, so the driver
  // refuses to schedule traces off a meaningless profile.
  Module M = buildCfg({{0, 0}}, /*NumBlocks=*/1);
  InterpResult Est = estimateProfile(M.Fn);
  EXPECT_FALSE(Est.Finished);
}

namespace {

/// Spearman rank correlation with tie-averaged ranks.
double spearman(const std::vector<uint64_t> &A, const std::vector<uint64_t> &B) {
  auto Ranks = [](const std::vector<uint64_t> &V) {
    std::vector<size_t> Idx(V.size());
    for (size_t I = 0; I != Idx.size(); ++I)
      Idx[I] = I;
    std::sort(Idx.begin(), Idx.end(),
              [&](size_t X, size_t Y) { return V[X] < V[Y]; });
    std::vector<double> R(V.size());
    for (size_t I = 0; I != Idx.size();) {
      size_t J = I;
      while (J != Idx.size() && V[Idx[J]] == V[Idx[I]])
        ++J;
      double Mean = (static_cast<double>(I) + static_cast<double>(J - 1)) / 2;
      for (size_t K = I; K != J; ++K)
        R[Idx[K]] = Mean;
      I = J;
    }
    return R;
  };
  std::vector<double> RA = Ranks(A), RB = Ranks(B);
  double MA = 0, MB = 0;
  for (size_t I = 0; I != RA.size(); ++I) {
    MA += RA[I];
    MB += RB[I];
  }
  MA /= RA.size();
  MB /= RB.size();
  double Num = 0, DA = 0, DB = 0;
  for (size_t I = 0; I != RA.size(); ++I) {
    Num += (RA[I] - MA) * (RB[I] - MB);
    DA += (RA[I] - MA) * (RA[I] - MA);
    DB += (RB[I] - MB) * (RB[I] - MB);
  }
  if (DA == 0 || DB == 0)
    return 1.0; // constant profile: ranking is vacuously right
  return Num / std::sqrt(DA * DB);
}

} // namespace

TEST(EstimateProfile, BlockRankCorrelationFloor) {
  // What trace formation actually consumes is the *ranking* of blocks and
  // edges, not absolute counts. Pin a per-workload Spearman floor between
  // the estimated and interpreted block-count rankings so estimator changes
  // cannot silently wreck the ordering on any workload. Floors sit a little
  // under the measured values (see EXPERIMENTS.md).
  struct Floor {
    const char *Name;
    double MinRho;
  };
  const Floor Floors[] = {
      {"ARC2D", 0.99},   {"BDNA", 0.99},     {"DYFESM", 0.99},
      {"MDG", 0.99},     {"QCD2", 0.99},     {"TRFD", 0.99},
      {"alvinn", 0.99},  {"dnasa7", 0.99},   {"doduc", 0.90},
      {"ear", 0.99},     {"hydro2d", 0.99},  {"mdljdp2", 0.97},
      {"ora", 0.99},     {"spice2g6", 0.99}, {"su2cor", 0.99},
      {"swm256", 0.99},  {"tomcatv", 0.99},
  };
  for (const Floor &FL : Floors) {
    const driver::Workload *W = driver::findWorkload(FL.Name);
    ASSERT_NE(W, nullptr) << FL.Name;
    driver::CompileResult FE =
        driver::compileFrontEnd(driver::parseWorkload(*W), {});
    ASSERT_TRUE(FE.ok()) << FL.Name << ": " << FE.Error;
    InterpResult Est = estimateProfile(FE.M.Fn);
    InterpResult Interp = interpret(FE.M);
    ASSERT_TRUE(Est.Finished) << FL.Name;
    ASSERT_TRUE(Interp.Finished) << FL.Name;
    double Rho = spearman(Est.BlockCounts, Interp.BlockCounts);
    EXPECT_GE(Rho, FL.MinRho) << FL.Name << ": rank agreement regressed";
  }
}

TEST(EstimateProfile, CloseToProfiledPerformance) {
  // The estimator should give up little versus real profiles on loop-biased
  // code (its weak spot is data-dependent branches like DYFESM's).
  const driver::Workload &W = *driver::findWorkload("hydro2d");
  driver::CompileOptions Prof;
  Prof.TraceScheduling = true;
  Prof.UnrollFactor = 4;
  driver::CompileOptions Est = Prof;
  Est.UseEstimatedProfile = true;
  driver::RunResult RP = driver::runWorkload(W, Prof);
  driver::RunResult RE = driver::runWorkload(W, Est);
  ASSERT_TRUE(RP.ok()) << RP.Error;
  ASSERT_TRUE(RE.ok()) << RE.Error;
  double Ratio = static_cast<double>(RE.Sim.Cycles) /
                 static_cast<double>(RP.Sim.Cycles);
  EXPECT_LT(Ratio, 1.15) << "estimated-profile traces lost too much";
}
