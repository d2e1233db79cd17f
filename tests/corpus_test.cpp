//===- tests/corpus_test.cpp - Replay the checked-in repro corpus ----------===//
//
// Every file in tests/corpus/*.repro is a reduced fuzzer finding (or a seed
// entry exercising an interesting configuration). Replaying one runs its
// source back through the differential-oracle leg it came from — the
// simulator twins under the recorded machine model, or the compile oracle
// under the recorded options — and expects a clean verdict: once a bug is
// fixed, its repro stays in the corpus as a permanent regression test.
//
// Promoting a new finding is a copy:
//   cp fuzz-out/repro-0-sim-twin-divergence.repro tests/corpus/
// (after fixing the bug; see docs/fuzzing.md).
//
//===----------------------------------------------------------------------===//

#include "driver/JobFields.h"
#include "fuzz/Oracle.h"
#include "fuzz/Repro.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace bsched;
using namespace bsched::fuzz;

#ifndef BSCHED_CORPUS_DIR
#error "BSCHED_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  for (const auto &E :
       std::filesystem::directory_iterator(BSCHED_CORPUS_DIR))
    if (E.path().extension() == ".repro")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// gtest parameter names must be alphanumeric.
std::string paramName(const ::testing::TestParamInfo<std::string> &Info) {
  std::string Stem = std::filesystem::path(Info.param).stem().string();
  for (char &C : Stem)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Stem;
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST(Corpus, DirectoryHasRepros) {
  EXPECT_FALSE(corpusFiles().empty())
      << "no .repro files under " << BSCHED_CORPUS_DIR;
}

TEST_P(CorpusReplay, ReplaysClean) {
  std::ifstream In(GetParam());
  ASSERT_TRUE(In.good()) << GetParam();
  std::ostringstream Buf;
  Buf << In.rdbuf();

  Repro R;
  std::string Err;
  ASSERT_TRUE(parseRepro(Buf.str(), R, Err)) << GetParam() << ": " << Err;

  Failure F = replayRepro(R, Err);
  ASSERT_EQ(Err, "") << GetParam();
  EXPECT_EQ(F.Kind, FailureKind::None)
      << GetParam() << " (recorded kind '" << R.Kind
      << "') regressed: " << failureKindName(F.Kind) << " " << F.Detail;
}

// The options each committed file spells out, set by hand: the parser, which
// the field lists of driver/JobFields.h generate, must read exactly these.
TEST(Corpus, ParsesToPinnedOptions) {
  using Setter = void (*)(driver::CompileOptions &);
  const std::pair<const char *, Setter> Pins[] = {
      {"seed-compaction-deep-trace",
       [](driver::CompileOptions &O) {
         O.UnrollFactor = 8;
         O.TraceScheduling = true;
         O.Balance.PressureThreshold = 0;
         O.Balance.BalanceFixedOps = true;
       }},
      {"seed-est-profile-nested",
       [](driver::CompileOptions &O) {
         O.UnrollFactor = 2;
         O.TraceScheduling = true;
         O.UseEstimatedProfile = true;
       }},
      {"seed-estprofile-branches",
       [](driver::CompileOptions &O) {
         O.UnrollFactor = 4;
         O.TraceScheduling = true;
         O.UseEstimatedProfile = true;
       }},
      {"seed-gap-balanced-loads",
       [](driver::CompileOptions &O) { O.UnrollFactor = 4; }},
      {"seed-gap-trace",
       [](driver::CompileOptions &O) {
         O.UnrollFactor = 2;
         O.TraceScheduling = true;
       }},
      {"seed-gap-traditional-fp",
       [](driver::CompileOptions &O) {
         O.Scheduler = sched::SchedulerKind::Traditional;
         O.UnrollFactor = 2;
       }},
      {"seed-sim-oddgeom", [](driver::CompileOptions &) {}},
      {"seed-sim-starved", [](driver::CompileOptions &) {}},
      {"seed-spill-pressure",
       [](driver::CompileOptions &O) {
         O.UnrollFactor = 8;
         O.TraceScheduling = true;
         O.RegAlloc.AllocatablePerClass = 4;
       }},
      {"seed-trace-uncovered-compensation",
       [](driver::CompileOptions &O) {
         O.TraceScheduling = true;
         O.Lower.IfConversion = false;
       }},
      {"seed-traditional-unroll",
       [](driver::CompileOptions &O) {
         O.Scheduler = sched::SchedulerKind::Traditional;
         O.UnrollFactor = 4;
       }},
  };
  for (const auto &[Stem, Set] : Pins) {
    std::string Path = std::string(BSCHED_CORPUS_DIR) + "/" + Stem + ".repro";
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << Path;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Repro R;
    std::string Err;
    ASSERT_TRUE(parseRepro(Buf.str(), R, Err)) << Path << ": " << Err;
    driver::CompileOptions Want;
    Set(Want);
    driver::forEachLeaf(
        [&](const driver::FieldPath &F, const auto &Got, const auto &Pinned) {
          EXPECT_TRUE(Got == Pinned) << Stem << ": option " << F.Name;
        },
        R.Options, Want);
  }
}

INSTANTIATE_TEST_SUITE_P(Repros, CorpusReplay,
                         ::testing::ValuesIn(corpusFiles()), paramName);
