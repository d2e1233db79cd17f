//===- fuzz/FuzzMain.cpp - bsched-fuzz command-line driver ------------------===//
///
/// \file
/// Standalone coverage-guided differential fuzzer. Typical runs:
///
///   bsched-fuzz --seconds 60 --threads 4 --seed 1 --corpus out/
///   bsched-fuzz --rounds 8 --seed 7            # fully deterministic
///   bsched-fuzz --replay tests/corpus/repro-0-sim-twin-divergence.repro
///
/// Exit status: 0 = clean campaign (or a --replay that no longer fails),
/// 1 = at least one differential failure, 2 = usage error, among them a
/// numeric flag whose value does not parse in full or lies outside its
/// range, and a --corpus directory that cannot be created.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace bsched;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: bsched-fuzz [options]\n"
        "\n"
        "Coverage-guided differential fuzzer for the balanced-scheduling\n"
        "pipeline: mutates generated kernel programs, cross-checks the AST\n"
        "evaluator, both scheduler implementations, the IR interpreter and\n"
        "both simulator cores, and reduces any mismatch to a minimal repro.\n"
        "\n"
        "options:\n"
        "  --seconds <f>    wall-clock budget, checked at round boundaries\n"
        "                   (default 10; ignored when --rounds is given)\n"
        "  --rounds <n>     run exactly n mutation rounds (deterministic\n"
        "                   regardless of wall clock)\n"
        "  --threads <n>    worker threads, 1 to 1024 (default 1; a round\n"
        "                   starts no more workers than it has jobs;\n"
        "                   results are identical for any value)\n"
        "  --seed <n>       campaign seed (default 1)\n"
        "  --jobs <n>       mutated candidates per round (default 24)\n"
        "  --initial <n>    generator-seeded corpus size (default 16)\n"
        "  --corpus <dir>   write reduced repro files here (created if\n"
        "                   missing)\n"
        "  --no-sim         skip the simulator differential sweep\n"
        "  --gap            also run the optimality-gap oracle leg: the\n"
        "                   exact branch-and-bound scheduler judges every\n"
        "                   solver-closed block (legality, solver sanity,\n"
        "                   fast within twice the optimum)\n"
        "  --est            also run the estimated-profile oracle leg: the\n"
        "                   static profile estimate of every config's module\n"
        "                   must be flow-conserving, deterministic, and\n"
        "                   safely drive trace formation\n"
        "  --replay <file>  replay one repro file through the oracle and\n"
        "                   report whether it still fails\n"
        "  --help           this text\n";
}

int replayFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "bsched-fuzz: cannot open '" << Path << "'\n";
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  fuzz::Repro R;
  std::string Err;
  if (!fuzz::parseRepro(Buf.str(), R, Err)) {
    std::cerr << "bsched-fuzz: " << Path << ": " << Err << "\n";
    return 2;
  }
  fuzz::Failure F = fuzz::replayRepro(R, Err);
  if (!Err.empty()) {
    std::cerr << "bsched-fuzz: " << Path << ": " << Err << "\n";
    return 2;
  }
  if (F.Kind == fuzz::FailureKind::None) {
    std::cout << Path << ": clean (recorded kind was '" << R.Kind << "')\n";
    return 0;
  }
  std::cout << Path << ": still fails: " << fuzz::failureKindName(F.Kind)
            << " " << F.Detail << "\n";
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::FuzzOptions Opts;
  std::string ReplayPath;

  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    auto NextArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::cerr << "bsched-fuzz: " << Flag << " needs a value\n";
        return nullptr;
      }
      return argv[++I];
    };
    auto BadValue = [&] {
      std::cerr << "bsched-fuzz: bad value for " << A << ": '" << argv[I]
                << "'\n";
      return 2;
    };
    if (A == "--help" || A == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (A == "--seconds") {
      const char *V = NextArg("--seconds");
      if (!V) return 2;
      if (!parseNonNegative(V, Opts.Seconds)) return BadValue();
    } else if (A == "--rounds") {
      const char *V = NextArg("--rounds");
      if (!V) return 2;
      if (!parseNonNegative(V, Opts.Rounds)) return BadValue();
    } else if (A == "--threads") {
      const char *V = NextArg("--threads");
      if (!V) return 2;
      if (!parsePositive(V, Opts.Threads) ||
          Opts.Threads > ThreadPool::MaxThreads)
        return BadValue();
    } else if (A == "--seed") {
      const char *V = NextArg("--seed");
      if (!V) return 2;
      if (!parseNonNegative(V, Opts.Seed)) return BadValue();
    } else if (A == "--jobs") {
      const char *V = NextArg("--jobs");
      if (!V) return 2;
      if (!parsePositive(V, Opts.JobsPerRound)) return BadValue();
    } else if (A == "--initial") {
      const char *V = NextArg("--initial");
      if (!V) return 2;
      if (!parsePositive(V, Opts.InitialSeeds)) return BadValue();
    } else if (A == "--corpus") {
      const char *V = NextArg("--corpus");
      if (!V) return 2;
      Opts.CorpusDir = V;
    } else if (A == "--replay") {
      const char *V = NextArg("--replay");
      if (!V) return 2;
      ReplayPath = V;
    } else if (A == "--no-sim") {
      Opts.Oracle.RunSim = false;
    } else if (A == "--gap") {
      Opts.Oracle.CheckOptimalityGap = true;
    } else if (A == "--est") {
      Opts.Oracle.CheckEstimatedProfile = true;
    } else {
      std::cerr << "bsched-fuzz: unknown option '" << A << "'\n";
      printUsage(std::cerr);
      return 2;
    }
  }

  if (!ReplayPath.empty())
    return replayFile(ReplayPath);

  if (!Opts.CorpusDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Opts.CorpusDir, EC);
    if (EC) {
      std::cerr << "bsched-fuzz: cannot create corpus directory '"
                << Opts.CorpusDir << "': " << EC.message() << "\n";
      return 2;
    }
  }

  fuzz::FuzzReport Report = fuzz::runFuzzer(Opts, &std::cout);

  std::cout << "done: " << Report.Iterations << " programs, "
            << Report.RoundsRun << " rounds, corpus " << Report.CorpusSize
            << ", coverage " << Report.CoverageBits << " bits, "
            << Report.Failures.size() << " failure(s)\n";
  if (!Report.clean()) {
    for (const fuzz::FailureRecord &R : Report.Failures) {
      std::cout << "  " << fuzz::failureKindName(R.Fail.Kind);
      if (!R.Fail.ConfigTag.empty())
        std::cout << " config='" << R.Fail.ConfigTag << "'";
      if (!R.Fail.MachineTag.empty())
        std::cout << " machine=" << R.Fail.MachineTag;
      if (!R.FilePath.empty())
        std::cout << " repro=" << R.FilePath;
      std::cout << "\n";
    }
    return 1;
  }
  return 0;
}
