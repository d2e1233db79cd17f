//===- tests/robustness_test.cpp - Error paths never crash -----------------===//
//
// Feeds malformed, truncated and mutated inputs to the language parser, the
// IR parser and the driver: every path must return a diagnostic, never
// crash, and never accept garbage silently.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/JobFields.h"
#include "ir/IRParser.h"
#include "ir/Interp.h"
#include "lang/Generate.h"
#include "lang/Parser.h"
#include "regalloc/LinearScan.h"
#include "sim/Machine.h"
#include "sim/Report.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace bsched;

TEST(Robustness, LangParserSurvivesTruncations) {
  lang::Program P = lang::generateProgram(9);
  std::string Text = lang::printProgram(P);
  for (size_t Cut = 0; Cut < Text.size(); Cut += 7) {
    lang::ParseResult R = lang::parseProgram(Text.substr(0, Cut));
    if (R.ok())

      // A prefix can be a valid (possibly empty) program; it must still
      // check or produce a diagnostic, not crash.
      lang::checkProgram(R.Prog);
  }
}

TEST(Robustness, LangParserSurvivesMutations) {
  lang::Program P = lang::generateProgram(12);
  std::string Text = lang::printProgram(P);
  RNG Rng(99);
  const char Junk[] = "{}()[];=<>#.%$@\"\\\x01\x7f";
  for (int Trial = 0; Trial != 300; ++Trial) {
    std::string Mutated = Text;
    size_t Where = Rng.nextBelow(Mutated.size());
    Mutated[Where] = Junk[Rng.nextBelow(sizeof(Junk) - 1)];
    lang::ParseResult R = lang::parseProgram(Mutated);
    if (R.ok())
      lang::checkProgram(R.Prog); // must not crash either way
  }
}

TEST(Robustness, LangParserRejectsBinaryGarbage) {
  RNG Rng(5);
  for (int Trial = 0; Trial != 100; ++Trial) {
    std::string Garbage;
    for (int K = 0; K != 200; ++K)
      Garbage.push_back(static_cast<char>(Rng.nextBelow(256)));
    lang::ParseResult R = lang::parseProgram(Garbage);
    (void)R; // No crash is the property; most inputs fail to parse.
  }
}

TEST(Robustness, IRParserSurvivesTruncations) {
  const char *Text = "array A 16\nfunc f\nb0:\n  ldi v0, 64\n"
                     "  fld v1, 0(v0)\n  fadd v2, v1, v1\n  ret\n";
  std::string Full = Text;
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    ir::ParseIRResult R = ir::parseModule(Full.substr(0, Cut));
    (void)R;
  }
}

TEST(Robustness, IRParserSurvivesMutations) {
  const char *Text = "array A 16\nfunc f\nb0:\n  ldi v0, 64\n"
                     "  fld v1, 0(v0)\n  br v0, b0, b1\nb1:\n  ret\n";
  std::string Full = Text;
  RNG Rng(77);
  for (int Trial = 0; Trial != 300; ++Trial) {
    std::string Mutated = Full;
    Mutated[Rng.nextBelow(Mutated.size())] =
        static_cast<char>(32 + Rng.nextBelow(95));
    ir::ParseIRResult R = ir::parseModule(Mutated);
    (void)R;
  }
}

TEST(Robustness, DriverDiagnosesEveryStage) {
  driver::CompileOptions O;
  // Parse error.
  EXPECT_NE(driver::compileSource("for (", "p", O).Error.find("parse"),
            std::string::npos);
  // Check error.
  EXPECT_NE(driver::compileSource("x = 1.0;", "c", O).Error.find("check"),
            std::string::npos);
  // Regalloc error (impossible register budget).
  driver::CompileOptions Bad;
  Bad.RegAlloc.AllocatablePerClass = 31;
  driver::CompileResult R = driver::compileSource(
      "array A[4] output;\nA[0] = 1.0;\n", "r", Bad);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("regalloc"), std::string::npos);
}

namespace {

/// A laid-out module whose only store writes the 8 bytes at \p Addr, an
/// ldi literal.
ir::Module storeAt(const std::string &Addr) {
  ir::ParseIRResult R = ir::parseModule(
      "array A 16\narray Out 4 output\nfunc f\nb0:\n  ldi v0, " + Addr +
      "\n  ldi v1, 7\n  st v1, 0(v0)\n  ret\n");
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

} // namespace

// A store outside the memory image writes nothing and fails the run in
// every build type (the check is no assert), in both interpreters and in
// both simulator cores, which stop at the same point with the same error.
// CI's ASan leg would flag any write past the image.
TEST(Robustness, OutOfRangeStoreFailsTheRun) {
  const uint64_t Size = storeAt("0").MemorySize;
  // At the image's end, and at 2^64 - 4, where Addr + 8 wraps.
  for (const std::string &Addr : {std::to_string(Size), std::string("-4")}) {
    ir::Module M = storeAt(Addr);
    ASSERT_EQ(M.MemorySize, Size);
    const std::string Where =
        "address " + std::to_string(static_cast<uint64_t>(std::stoll(Addr)));

    ir::InterpResult I = ir::interpret(M);
    ir::InterpResult IB = ir::interpretByInstr(M);
    EXPECT_FALSE(I.Finished) << Addr;
    EXPECT_NE(I.Error.find(Where), std::string::npos) << I.Error;
    EXPECT_EQ(driver::firstDifference(I, IB, "interpret", "byInstr"), "");

    ASSERT_TRUE(regalloc::allocateRegisters(M).ok());
    sim::MachineConfig Fast, Ref;
    Ref.Impl = sim::SimImpl::Reference;
    sim::SimResult F = sim::simulate(M, Fast);
    sim::SimResult R = sim::simulate(M, Ref);
    EXPECT_FALSE(F.ok() || F.Finished) << Addr;
    EXPECT_NE(F.Error.find(Where), std::string::npos) << F.Error;
    EXPECT_EQ(driver::firstDifference(F, R, "fast", "ref"), "");
  }
}

TEST(Robustness, ReportHandlesErrorResults) {
  sim::SimResult Bad;
  Bad.Error = "synthetic failure";
  std::string Out = sim::printReport(Bad, "title");
  EXPECT_NE(Out.find("synthetic failure"), std::string::npos);

  sim::SimResult Unfinished; // Finished = false, no error
  Unfinished.Cycles = 10;
  std::string Out2 = sim::printReport(Unfinished);
  EXPECT_NE(Out2.find("budget"), std::string::npos);
}

TEST(Robustness, SummaryLineIsOneLine) {
  sim::SimResult R;
  R.Cycles = 100;
  R.Counts.Loads = 10;
  R.LoadInterlockCycles = 25;
  std::string S = sim::printSummaryLine(R);
  EXPECT_EQ(S.find('\n'), std::string::npos);
  EXPECT_NE(S.find("li=25.0%"), std::string::npos);
}
