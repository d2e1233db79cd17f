//===- fuzz/Fuzzer.cpp - Coverage-guided differential fuzzing loop ---------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Reduce.h"
#include "lang/Generate.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <set>

using namespace bsched;
using namespace bsched::fuzz;

namespace {

/// Corpus-size cap; growth stops once reached (coverage still counts).
constexpr size_t MaxCorpus = 512;
/// Probability a job starts from a fresh generated program instead of
/// mutating a corpus parent.
constexpr double FreshProgramChance = 0.1;
/// Mutations applied per job: 1 + uniform[0, MutationsPerJob).
constexpr uint64_t MutationsPerJob = 3;

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Seed of the RNG stream for global job index \p Index. A pure function of
/// (campaign seed, job index), so a job's behaviour never depends on which
/// worker thread picks it up or in what order.
uint64_t jobSeed(uint64_t CampaignSeed, uint64_t Index) {
  return mix64(CampaignSeed ^ mix64(Index ^ 0x51ed2701cba93ull));
}

struct JobResult {
  lang::Program P;
  OracleRun Run;
  MutationCounts Mutations;
  bool Mutated = false; ///< at least one mutation step succeeded.
};

/// One fuzz job: pick a parent from the round-start corpus snapshot (or
/// generate fresh), mutate, run the oracle. Pure function of the job seed
/// and the snapshot.
JobResult runJob(uint64_t Seed, const std::vector<lang::Program> &Corpus,
                 const OracleOptions &Oracle) {
  RNG Rng(Seed);
  JobResult R;
  const bool Fresh = Corpus.empty() || Rng.nextBool(FreshProgramChance);
  if (Fresh) {
    R.P = lang::generateProgram(Rng.next());
    R.Mutated = true; // a fresh program is always a candidate.
  } else {
    R.P = Corpus[Rng.nextBelow(Corpus.size())];
  }
  const uint64_t Steps = 1 + Rng.nextBelow(MutationsPerJob);
  for (uint64_t I = 0; I != Steps; ++I)
    if (mutateProgram(R.P, Rng, &R.Mutations))
      R.Mutated = true;
  R.Run = runOracle(R.P, Oracle);
  return R;
}

/// Key for failure deduplication: one reduction per (kind, config, machine)
/// signature per campaign, so a systematic bug does not trigger hundreds of
/// identical reductions.
std::string failureKey(const Failure &F) {
  return std::string(failureKindName(F.Kind)) + "|" + F.ConfigTag + "|" +
         F.MachineTag;
}

bool isSimKind(FailureKind K) {
  return K == FailureKind::SimError || K == FailureKind::SimTwinDivergence ||
         K == FailureKind::SimDivergence;
}

} // namespace

FuzzReport fuzz::runFuzzer(const FuzzOptions &Opts, std::ostream *Log) {
  using Clock = std::chrono::steady_clock;
  const auto Start = Clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };

  FuzzReport Report;
  CoverageMap Global;
  std::vector<lang::Program> Corpus;
  std::set<std::string> SeenFailures;
  int ReproFileNo = 0;

  const std::vector<driver::CompileOptions> Configs =
      differentialCompileConfigs();

  // Collects a job's results into the campaign state. Called on the main
  // thread in job-index order, which is what makes parallel runs
  // deterministic.
  auto Merge = [&](JobResult &J, bool ForceKeep) {
    ++Report.Iterations;
    for (int K = 0; K != NumMutationKinds; ++K)
      Report.Mutations.Applied[K] += J.Mutations.Applied[K];
    Report.Mutations.Rejected += J.Mutations.Rejected;

    const size_t NewBits = Global.merge(J.Run.Cov);
    const bool Keep = ForceKeep || (J.Mutated && NewBits > 0);

    // One reduction per failure signature: an instance already reduced is
    // not reported again.
    const Failure &F = J.Run.Fail;
    if (!J.Run.clean() && SeenFailures.insert(failureKey(F)).second) {
      const lang::Program &Culprit = J.P;
      FailureRecord Rec;
      Rec.Fail = F;
      Rec.OriginalSource = lang::printProgram(Culprit);

      // Re-check predicate for the reducer, scoped to the failing leg so a
      // reduction step costs one compile (or one sim pair), not a full
      // oracle sweep.
      lang::Program Reduced = Culprit;
      driver::CompileOptions ReducedOpts;
      if (isSimKind(F.Kind)) {
        const sim::MachineConfig M = *machineByTag(F.MachineTag);
        const FailureKind Want = F.Kind;
        const std::string Tag = F.MachineTag;
        Reduced = reduceProgram(Culprit, [&](const lang::Program &P) {
          return runSimOracle(P, M, Tag).Kind == Want;
        });
      } else if (F.ConfigIndex >= 0) { // one compile config's failure
        const driver::CompileOptions &Cfg = Configs[F.ConfigIndex];
        const FailureKind Want = F.Kind;
        const OracleOptions &OO = Opts.Oracle;
        Reduced = reduceProgram(Culprit, [&](const lang::Program &P) {
          return runCompileOracle(P, Cfg, OO).Kind == Want;
        });
        ReducedOpts = reduceCompileOptions(
            Reduced, Cfg,
            [&](const lang::Program &P, const driver::CompileOptions &O) {
              return runCompileOracle(P, O, OO).Kind == Want;
            });
      }

      Rec.Reduced.Kind = failureKindName(F.Kind);
      Rec.Reduced.Detail = F.Detail;
      Rec.Reduced.MachineTag = F.MachineTag;
      Rec.Reduced.Options = ReducedOpts;
      Rec.Reduced.Source = lang::printProgram(Reduced);

      std::filesystem::path Path;
      if (!Opts.CorpusDir.empty()) {
        std::string Name = std::string("repro-") +
                           std::to_string(ReproFileNo++) + "-" +
                           failureKindName(F.Kind) + ".repro";
        Path = std::filesystem::path(Opts.CorpusDir) / Name;
        std::ofstream Out(Path);
        Out << writeRepro(Rec.Reduced);
        Out.close();
        if (Out)
          Rec.FilePath = Path.string();
      }
      if (Log) {
        *Log << "FAILURE " << failureKindName(F.Kind) << " config='"
             << F.ConfigTag << "'";
        if (!F.MachineTag.empty())
          *Log << " machine=" << F.MachineTag;
        *Log << "\n  " << F.Detail << "\n";
        if (!Rec.FilePath.empty())
          *Log << "  repro: " << Rec.FilePath << "\n";
        else if (!Path.empty())
          *Log << "  repro: cannot write " << Path.string() << "\n";
      }
      Report.Failures.push_back(std::move(Rec));
    }

    if (Keep && Corpus.size() < MaxCorpus)
      Corpus.push_back(std::move(J.P));
  };

  // Round 0: oracle the generator-seeded corpus. Every seed is kept (they
  // are the diversity baseline the mutator walks outward from).
  {
    const size_t N = static_cast<size_t>(std::max(1, Opts.InitialSeeds));
    std::vector<JobResult> Results(N);
    ThreadPool::parallelForChunked(Opts.Threads, N, [&](size_t I) {
      RNG Rng(jobSeed(Opts.Seed, I));
      JobResult R;
      R.P = lang::generateProgram(Rng.next());
      R.Mutated = true;
      R.Run = runOracle(R.P, Opts.Oracle);
      Results[I] = std::move(R);
    });
    for (JobResult &R : Results)
      Merge(R, /*ForceKeep=*/true);
    if (Log)
      *Log << "seed    " << std::setw(6) << Report.Iterations << " iters  "
           << "corpus " << std::setw(4) << Corpus.size() << "  coverage "
           << Global.bitsSet() << "  " << std::fixed << std::setprecision(1)
           << Elapsed() << "s\n";
  }

  // Mutation rounds. Job inputs are fixed at the round boundary (corpus
  // snapshot + per-index seeds), so execution order within a round cannot
  // affect the outcome; the time budget only decides how many rounds run.
  uint64_t NextJobIndex = static_cast<uint64_t>(std::max(1, Opts.InitialSeeds));
  for (int Round = 0;; ++Round) {
    if (Opts.Rounds > 0 && Round >= Opts.Rounds)
      break;
    if (Opts.Rounds <= 0 && Opts.Seconds > 0 && Elapsed() >= Opts.Seconds)
      break;
    if (Opts.Rounds <= 0 && Opts.Seconds <= 0)
      break; // no budget at all: run only the seed round.

    const size_t N = static_cast<size_t>(std::max(1, Opts.JobsPerRound));
    const size_t PrevBits = Global.bitsSet();
    std::vector<JobResult> Results(N);
    ThreadPool::parallelForChunked(Opts.Threads, N, [&](size_t I) {
      Results[I] =
          runJob(jobSeed(Opts.Seed, NextJobIndex + I), Corpus, Opts.Oracle);
    });
    NextJobIndex += N;
    for (JobResult &R : Results)
      Merge(R, /*ForceKeep=*/false);

    Report.RoundsRun = Round + 1;
    if (Log)
      *Log << "round " << std::setw(3) << Round << " " << std::setw(6)
           << Report.Iterations << " iters  corpus " << std::setw(4)
           << Corpus.size() << "  coverage " << Global.bitsSet() << " (+"
           << (Global.bitsSet() - PrevBits) << ")  failures "
           << Report.Failures.size() << "  " << std::fixed
           << std::setprecision(1) << Elapsed() << "s\n";
  }

  Report.CorpusSize = Corpus.size();
  Report.CoverageBits = Global.bitsSet();
  return Report;
}
