//===- fuzz/Fuzzer.h - Coverage-guided differential fuzzing loop -*- C++ -*-===//
///
/// \file
/// The fuzzing campaign driver behind the bsched-fuzz CLI: a corpus of
/// kernel-language programs evolves under the structured mutator, guided by
/// the behavioural CoverageMap, with every candidate judged by the
/// differential oracle and every failure shrunk by the reducer into a
/// repro file.
///
/// The loop is organized in rounds so that multi-threaded runs stay
/// deterministic: each round schedules a fixed batch of jobs whose RNG
/// streams depend only on (campaign seed, job index), runs them through
/// ThreadPool::parallelForChunked, and merges results in job order at the
/// round barrier. Corpus content after round K is therefore identical for any
/// --threads value; a wall-clock budget only decides *how many* rounds run.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_FUZZ_FUZZER_H
#define BALSCHED_FUZZ_FUZZER_H

#include "fuzz/Mutate.h"
#include "fuzz/Oracle.h"
#include "fuzz/Repro.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace bsched {
namespace fuzz {

struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned Threads = 1;
  /// Wall-clock budget in seconds, checked at round boundaries; 0 = run
  /// exactly Rounds rounds.
  double Seconds = 10.0;
  /// Explicit round count (fully deterministic campaigns); 0 = time-driven.
  int Rounds = 0;
  /// Mutated candidates per round (one oracle sweep each).
  int JobsPerRound = 24;
  /// Generator-seeded programs the corpus starts from.
  int InitialSeeds = 16;
  /// Existing directory reduced repro files are written to ("" = don't
  /// write).
  std::string CorpusDir;

  OracleOptions Oracle;
};

struct FailureRecord {
  Failure Fail;
  std::string OriginalSource; ///< program that first hit the failure.
  Repro Reduced;              ///< reduced program + stripped options.
  std::string FilePath;       ///< repro file written; "" if none was.
};

struct FuzzReport {
  uint64_t Iterations = 0; ///< oracle sweeps (initial seeds + mutants).
  int RoundsRun = 0;
  size_t CorpusSize = 0;
  size_t CoverageBits = 0;
  MutationCounts Mutations;
  std::vector<FailureRecord> Failures;

  bool clean() const { return Failures.empty(); }
};

/// Runs a fuzzing campaign. Progress and failure reports go to \p Log when
/// non-null (the CLI passes stdout; tests pass nullptr).
FuzzReport runFuzzer(const FuzzOptions &Opts, std::ostream *Log = nullptr);

} // namespace fuzz
} // namespace bsched

#endif // BALSCHED_FUZZ_FUZZER_H
