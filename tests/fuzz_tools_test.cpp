//===- tests/fuzz_tools_test.cpp - Fuzzing-subsystem unit tests ------------===//
//
// Unit and property tests for src/fuzz: the structured mutator's validity
// contract, the coverage map, the differential oracle on known-clean inputs,
// the delta-debugging reducer (planted failure, never-failing oracle,
// always-failing termination), the repro file format, and the fuzzer loop's
// thread-count determinism.
//
//===----------------------------------------------------------------------===//

#include "driver/JobFields.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Mutate.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reduce.h"
#include "fuzz/Repro.h"

#include "lang/Eval.h"
#include "lang/Generate.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>

using namespace bsched;
using namespace bsched::fuzz;

namespace {

lang::Program parseChecked(const std::string &Source) {
  lang::ParseResult R = lang::parseProgram(Source);
  EXPECT_EQ(R.Error, "");
  EXPECT_EQ(lang::checkProgram(R.Prog), "");
  return std::move(R.Prog);
}

} // namespace

//===----------------------------------------------------------------------===//
// Mutator
//===----------------------------------------------------------------------===//

// The satellite contract: long mutation walks never leave the valid-program
// envelope. 10 seeds x 100 steps = 1000 mutation steps, each independently
// re-validated (reparse, semantic check, in-bounds AST evaluation) rather
// than trusting the mutator's own gate.
TEST(Mutator, ThousandStepsStayValid) {
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    lang::Program P = lang::generateProgram(Seed);
    RNG Rng(Seed * 977 + 5);
    int Applied = 0;
    for (int Step = 0; Step != 100; ++Step) {
      if (mutateProgram(P, Rng))
        ++Applied;
      std::string E = validateProgram(P);
      ASSERT_EQ(E, "") << "seed " << Seed << " step " << Step << ":\n"
                       << lang::printProgram(P);
    }
    // The walk must actually move: a mutator that rejects nearly every
    // candidate would vacuously pass the validity check.
    EXPECT_GT(Applied, 50) << "seed " << Seed;
  }
}

TEST(Mutator, DeterministicForSeed) {
  for (uint64_t Seed : {1ull, 7ull, 23ull}) {
    lang::Program A = lang::generateProgram(Seed);
    lang::Program B = lang::generateProgram(Seed);
    RNG RngA(Seed + 99), RngB(Seed + 99);
    for (int Step = 0; Step != 25; ++Step) {
      mutateProgram(A, RngA);
      mutateProgram(B, RngB);
    }
    EXPECT_EQ(lang::printProgram(A), lang::printProgram(B))
        << "seed " << Seed;
  }
}

TEST(Mutator, RejectsNothingOnValidInput) {
  // validateProgram accepts what the generator produces.
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    lang::Program P = lang::generateProgram(Seed);
    EXPECT_EQ(validateProgram(P), "") << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Coverage map
//===----------------------------------------------------------------------===//

TEST(Coverage, Log2Buckets) {
  EXPECT_EQ(log2Bucket(0), 0u);
  EXPECT_EQ(log2Bucket(1), 1u);
  EXPECT_EQ(log2Bucket(2), 2u);
  EXPECT_EQ(log2Bucket(3), 2u);
  EXPECT_EQ(log2Bucket(4), 3u);
  EXPECT_EQ(log2Bucket(1023), 10u);
  EXPECT_EQ(log2Bucket(1024), 11u);
}

TEST(Coverage, AddMergeWouldGrow) {
  CoverageMap A;
  EXPECT_EQ(A.bitsSet(), 0u);
  EXPECT_TRUE(A.add(0, Feature::Cycles, 3));
  EXPECT_FALSE(A.add(0, Feature::Cycles, 3)) << "same triple, same bit";
  EXPECT_TRUE(A.add(1, Feature::Cycles, 3)) << "config is part of the key";
  EXPECT_TRUE(A.add(0, Feature::Cycles, 4)) << "bucket is part of the key";
  EXPECT_TRUE(A.add(0, Feature::SpillStores, 3))
      << "feature is part of the key";
  EXPECT_EQ(A.bitsSet(), 4u);

  CoverageMap B;
  B.add(0, Feature::Cycles, 3);
  EXPECT_FALSE(A.wouldGrow(B));
  EXPECT_EQ(A.merge(B), 0u);
  B.add(2, Feature::MshrStall, 9);
  EXPECT_TRUE(A.wouldGrow(B));
  EXPECT_EQ(A.merge(B), 1u);
  EXPECT_EQ(A.bitsSet(), 5u);
  EXPECT_FALSE(A.wouldGrow(B));
}

TEST(Coverage, CompileFeaturesLightBits) {
  lang::Program P = lang::generateProgram(3);
  driver::CompileOptions O;
  O.UnrollFactor = 4;
  driver::CompileResult C = driver::compileProgram(P, O);
  ASSERT_TRUE(C.ok()) << C.Error;
  CoverageMap M;
  addCompileFeatures(M, 0, C);
  EXPECT_GT(M.bitsSet(), 5u) << "a real compile must light many features";
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(Oracle, CleanOnGeneratedPrograms) {
  for (uint64_t Seed = 0; Seed != 3; ++Seed) {
    lang::Program P = lang::generateProgram(Seed);
    OracleRun Run = runOracle(P);
    EXPECT_TRUE(Run.clean()) << "seed " << Seed << ": "
                             << failureKindName(Run.Fail.Kind) << " "
                             << Run.Fail.Detail;
    EXPECT_GT(Run.Cov.bitsSet(), 0u);
  }
}

TEST(Oracle, DiffSimResultsNamesFirstField) {
  sim::SimResult A, B;
  EXPECT_EQ(diffSimResults(A, B), "");
  B.Cycles = 123;
  std::string D = diffSimResults(A, B);
  EXPECT_NE(D.find("Cycles"), std::string::npos) << D;
  EXPECT_NE(D.find("123"), std::string::npos) << D;
}

TEST(Oracle, MachineByTagRoundTrips) {
  EXPECT_EQ(machineByTag("starved")->NumMSHRs, 2u);
  EXPECT_EQ(machineByTag("starved")->WriteBufferEntries, 1u);
  EXPECT_EQ(machineByTag("oddgeom")->PageSize, 1000u);
  EXPECT_TRUE(machineByTag("simple80")->SimpleModel);
  EXPECT_TRUE(machineByTag("pfe")->PerfectFrontEnd);
  EXPECT_EQ(machineByTag("w4")->IssueWidth, 4u);
  EXPECT_EQ(machineByTag("21164")->PageSize, sim::MachineConfig{}.PageSize);
  // Every differential point's tag finds its machine.
  for (const MachinePoint &M : differentialMachinePoints())
    EXPECT_TRUE(machineByTag(M.Tag)) << M.Tag;
  // Unknown and empty tags find none: a misspelled tag must not replay on
  // a default machine.
  EXPECT_FALSE(machineByTag(""));
  EXPECT_FALSE(machineByTag("stravred"));
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

namespace {

const char *PlantedSrc = R"(
array a[16] output;
array b[16];
var s = 1.0;
for (i = 0; i < 16; i += 1) { b[i] = i * 0.5; }
for (i = 0; i < 16; i += 1) { a[i] = b[i] + s; }
a[0] = 0.125;
a[1] = s * 2.0;
if (s > 0.5) { a[2] = 3.0; } else { a[3] = 4.0; }
)";

/// Synthetic oracle: "fails" exactly when the planted literal survives.
bool hasPlantedLiteral(const lang::Program &P) {
  return lang::printProgram(P).find("0.125") != std::string::npos;
}

} // namespace

TEST(Reducer, ShrinksToPlantedStatement) {
  lang::Program P = parseChecked(PlantedSrc);
  ASSERT_TRUE(hasPlantedLiteral(P));
  ReduceStats Stats;
  lang::Program R = reduceProgram(P, hasPlantedLiteral, &Stats);
  EXPECT_TRUE(hasPlantedLiteral(R));
  EXPECT_EQ(R.Body.size(), 1u) << lang::printProgram(R);
  EXPECT_EQ(validateProgram(R), "");
  // The surviving statement is the planted assignment, and the unused
  // declarations went with the deleted statements.
  EXPECT_NE(lang::printProgram(R).find("0.125"), std::string::npos);
  EXPECT_EQ(lang::printProgram(R).find("for"), std::string::npos)
      << lang::printProgram(R);
  EXPECT_GT(Stats.CandidatesAccepted, 0);
}

TEST(Reducer, NeverFailingOracleLeavesInputUnchanged) {
  lang::Program P = parseChecked(PlantedSrc);
  ReduceStats Stats;
  lang::Program R = reduceProgram(
      P, [](const lang::Program &) { return false; }, &Stats);
  EXPECT_EQ(lang::printProgram(R), lang::printProgram(P));
  EXPECT_EQ(Stats.CandidatesAccepted, 0);
}

TEST(Reducer, AlwaysFailingOracleTerminates) {
  lang::Program P = parseChecked(PlantedSrc);
  ReduceStats Stats;
  lang::Program R = reduceProgram(
      P, [](const lang::Program &) { return true; }, &Stats);
  EXPECT_LE(Stats.CandidatesTried, 4000) << "the reducer's candidate budget";
  EXPECT_EQ(validateProgram(R), "");
  EXPECT_LT(lang::printProgram(R).size(), lang::printProgram(P).size());
}

TEST(Reducer, StripsUnneededOptions) {
  lang::Program P = parseChecked(PlantedSrc);
  driver::CompileOptions O;
  O.UnrollFactor = 8;
  O.TraceScheduling = true;
  O.RegAlloc.AllocatablePerClass = 4;
  O.Balance.BalanceFixedOps = true;
  // Synthetic failure that only needs the tight register file.
  driver::CompileOptions R = reduceCompileOptions(
      P, O, [](const lang::Program &, const driver::CompileOptions &C) {
        return C.RegAlloc.AllocatablePerClass == 4;
      });
  const driver::CompileOptions D;
  EXPECT_EQ(R.RegAlloc.AllocatablePerClass, 4u);
  EXPECT_EQ(R.UnrollFactor, D.UnrollFactor);
  EXPECT_EQ(R.TraceScheduling, D.TraceScheduling);
  EXPECT_EQ(R.Balance.BalanceFixedOps, D.Balance.BalanceFixedOps);
}

//===----------------------------------------------------------------------===//
// Repro files
//===----------------------------------------------------------------------===//

// Every CompileOptions field round-trips, each set off its default at once;
// the weight cap needs all 17 significant digits.
TEST(Repro, RoundTripsOptionsAndSource) {
  Repro R;
  R.Kind = "sim-twin-divergence";
  R.Detail = "MshrStallCycles fast=12 ref=13";
  R.MachineTag = "starved";
  R.Source = "array a[8] output;\na[0] = 1.0;\n";
  driver::forEachLeaf(
      [](const driver::FieldPath &, auto &V) {
        using T = std::remove_reference_t<decltype(V)>;
        if constexpr (std::is_same_v<T, bool>)
          V = !V;
        else if constexpr (std::is_enum_v<T>)
          V = static_cast<T>(static_cast<std::underlying_type_t<T>>(V) + 1);
        else
          V = V + 1;
      },
      R.Options);
  R.Options.Balance.WeightCap = 37.123456789012345;

  Repro Out;
  std::string Err;
  std::string Text = writeRepro(R);
  ASSERT_TRUE(parseRepro(Text, Out, Err)) << Err;
  EXPECT_EQ(Out.Kind, R.Kind);
  EXPECT_EQ(Out.Detail, R.Detail);
  EXPECT_EQ(Out.MachineTag, R.MachineTag);
  EXPECT_EQ(Out.Source, R.Source);
  std::set<std::string> Names;
  driver::forEachLeaf(
      [&](const driver::FieldPath &F, const auto &Got, const auto &Want) {
        EXPECT_TRUE(Names.insert(F.Name).second) << "duplicate name " << F.Name;
        EXPECT_TRUE(Got == Want) << "option " << F.Name << " in\n" << Text;
      },
      Out.Options, R.Options);
}

TEST(Repro, RejectsMalformedInput) {
  Repro Out;
  std::string Err;
  EXPECT_FALSE(parseRepro("kind: x\nno separator\n", Out, Err));
  EXPECT_NE(Err.find("unrecognized"), std::string::npos) << Err;
  EXPECT_FALSE(parseRepro("kind: x\n", Out, Err));
  EXPECT_NE(Err.find("---"), std::string::npos) << Err;
  EXPECT_FALSE(parseRepro("option bogus 1\n---\na = 1.0;\n", Out, Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos) << Err;
  EXPECT_FALSE(parseRepro("---\n", Out, Err));
  EXPECT_NE(Err.find("empty source"), std::string::npos) << Err;
  // A misspelled machine tag is rejected with its line number instead of
  // replaying on some other machine.
  EXPECT_FALSE(
      parseRepro("kind: x\nmachine: stravred\n---\na = 1.0;\n", Out, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("stravred"), std::string::npos) << Err;
}

TEST(Repro, ReplayCleanSource) {
  Repro R;
  R.Kind = "none";
  R.Source = "array a[8] output;\nfor (i = 0; i < 8; i += 1) { a[i] = i * "
             "0.5; }\n";
  std::string Err;
  Failure F = replayRepro(R, Err);
  EXPECT_EQ(Err, "");
  EXPECT_EQ(F.Kind, FailureKind::None) << F.Detail;
  // The simulator leg replays too when a machine tag is present.
  R.MachineTag = "starved";
  F = replayRepro(R, Err);
  EXPECT_EQ(Err, "");
  EXPECT_EQ(F.Kind, FailureKind::None) << F.Detail;
}

TEST(Repro, ReplayReportsParseErrors) {
  Repro R;
  R.Source = "this is not a kernel\n";
  std::string Err;
  Failure F = replayRepro(R, Err);
  EXPECT_NE(Err, "");
  EXPECT_EQ(F.Kind, FailureKind::EvalError);
}

//===----------------------------------------------------------------------===//
// Fuzzer loop
//===----------------------------------------------------------------------===//

TEST(Fuzzer, DeterministicAcrossThreadCounts) {
  FuzzOptions FO;
  FO.Seed = 7;
  FO.Rounds = 2;
  FO.Seconds = 0;
  FO.JobsPerRound = 6;
  FO.InitialSeeds = 4;

  FO.Threads = 1;
  FuzzReport R1 = runFuzzer(FO);
  FO.Threads = 4;
  FuzzReport R4 = runFuzzer(FO);

  EXPECT_TRUE(R1.clean());
  EXPECT_TRUE(R4.clean());
  EXPECT_EQ(R1.Iterations, R4.Iterations);
  EXPECT_EQ(R1.RoundsRun, R4.RoundsRun);
  EXPECT_EQ(R1.CorpusSize, R4.CorpusSize);
  EXPECT_EQ(R1.CoverageBits, R4.CoverageBits);
  for (int K = 0; K != NumMutationKinds; ++K)
    EXPECT_EQ(R1.Mutations.Applied[K], R4.Mutations.Applied[K]) << K;
  EXPECT_EQ(R1.Mutations.Rejected, R4.Mutations.Rejected);
}

TEST(Fuzzer, CoverageGrowsOverSeedRound) {
  FuzzOptions FO;
  FO.Seed = 3;
  FO.Rounds = 1;
  FO.Seconds = 0;
  FO.JobsPerRound = 4;
  FO.InitialSeeds = 6;
  FuzzReport R = runFuzzer(FO);
  EXPECT_TRUE(R.clean());
  EXPECT_GT(R.CoverageBits, 100u)
      << "the seed corpus alone must light many behaviour buckets";
  EXPECT_EQ(R.Iterations, 10u);
  EXPECT_GE(R.CorpusSize, 6u);
}
