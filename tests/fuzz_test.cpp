//===- tests/fuzz_test.cpp - Differential fuzzing of the whole pipeline ----===//
//
// Property-based testing: for randomly generated (but deterministic,
// seed-indexed) kernel programs, every compiler configuration must produce
// code whose interpreted output checksum matches the AST evaluator's. This
// sweeps code shapes the hand-written tests and the 17 workloads miss.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "fuzz/Configs.h"
#include "fuzz/Oracle.h"
#include "ir/Interp.h"
#include "lang/Eval.h"
#include "lang/Generate.h"
#include "lang/Parser.h"
#include "sim/Machine.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

using namespace bsched;

namespace {

class FuzzPipeline : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FuzzPipeline, EveryConfigMatchesOracle) {
  lang::Program P = lang::generateProgram(GetParam());

  lang::EvalResult Ref = lang::evalProgram(P);
  ASSERT_TRUE(Ref.ok()) << "seed " << GetParam() << ": oracle failed: "
                        << Ref.Error << "\n"
                        << lang::printProgram(P);

  for (const driver::CompileOptions &Opts :
       fuzz::differentialCompileConfigs()) {
    // CompileOptions::VerifyPasses defaults to on: the static verifier runs
    // after scheduling and after allocation for every config and seed.
    driver::CompileResult C = driver::compileProgram(P, Opts);
    std::string DiagText;
    for (const verify::Diagnostic &D : C.VerifyDiags)
      DiagText += verify::toString(D) + "\n";
    ASSERT_TRUE(C.VerifyDiags.empty())
        << "seed " << GetParam() << " [" << Opts.tag()
        << "]: verifier diagnostics:\n"
        << DiagText << lang::printProgram(P);
    ASSERT_TRUE(C.ok()) << "seed " << GetParam() << " [" << Opts.tag()
                        << "]: " << C.Error << "\n"
                        << lang::printProgram(P);
    ir::InterpResult I = ir::interpret(C.M);
    ASSERT_TRUE(I.Finished) << "seed " << GetParam();
    ASSERT_EQ(I.Checksum, Ref.Checksum)
        << "seed " << GetParam() << " [" << Opts.tag() << "] miscompiled:\n"
        << lang::printProgram(P);
  }
}

// 100 seeds x 14 configs; the per-config verifier passes bound the sweep's
// wall-clock, so the seed count trades off against the added config.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(0, 100));

namespace {

class FuzzSim : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// Sim-focused differential fuzzing: random programs through one compile,
// then the fast and reference simulator cores must agree on every statistic
// under machine models that stress different fast paths. Random CFGs reach
// fetch-run and branch shapes the 17 curated workloads never build.
TEST_P(FuzzSim, FastCoreMatchesReferenceCore) {
  lang::Program P = lang::generateProgram(GetParam());
  driver::CompileOptions Opts;
  Opts.UnrollFactor = 4;
  Opts.VerifyPasses = false; // legality is FuzzPipeline's job
  driver::CompileResult C = driver::compileProgram(P, Opts);
  ASSERT_TRUE(C.ok()) << "seed " << GetParam() << ": " << C.Error;

  for (fuzz::MachinePoint &M : fuzz::differentialMachinePoints()) {
    M.Config.Impl = sim::SimImpl::Fast;
    sim::SimResult F = sim::simulate(C.M, M.Config, /*MaxCycles=*/400000);
    M.Config.Impl = sim::SimImpl::Reference;
    sim::SimResult R = sim::simulate(C.M, M.Config, /*MaxCycles=*/400000);
    ASSERT_TRUE(F.ok()) << "seed " << GetParam() << ": " << F.Error;
    EXPECT_EQ(fuzz::diffSimResults(F, R), "")
        << "seed " << GetParam() << " [" << M.Tag << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(SimSeeds, FuzzSim, ::testing::Range<uint64_t>(0, 25));

TEST(Generator, DeterministicPerSeed) {
  lang::Program A = lang::generateProgram(42);
  lang::Program B = lang::generateProgram(42);
  EXPECT_EQ(lang::printProgram(A), lang::printProgram(B));
  lang::Program C = lang::generateProgram(43);
  EXPECT_NE(lang::printProgram(A), lang::printProgram(C));
}

// The generated text itself, pinned: the fixed-seed sweeps, gen_verify's
// programs and the fuzzer's seed corpus all come from the generator, so a
// change to any draw it makes shows here first.
TEST(Generator, OutputIsPinned) {
  std::string Text;
  for (uint64_t Seed = 0; Seed != 1000; ++Seed)
    Text += lang::printProgram(lang::generateProgram(Seed));
  EXPECT_EQ(fnv1a(Text), 0xdda4a5bcf7f326a0ull);
}

TEST(Generator, ProgramsAreReparseable) {
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    lang::Program P = lang::generateProgram(Seed);
    std::string Text = lang::printProgram(P);
    lang::ParseResult R = lang::parseProgram(Text);
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error << "\n" << Text;
    EXPECT_EQ(lang::checkProgram(R.Prog), "");
  }
}

TEST(Generator, ProgramsTerminateQuickly) {
  for (uint64_t Seed = 0; Seed != 40; ++Seed) {
    lang::Program P = lang::generateProgram(Seed);
    lang::EvalResult R = lang::evalProgram(P, /*MaxStmts=*/2000000);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << " ran away";
  }
}

