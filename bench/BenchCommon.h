//===- bench/BenchCommon.h - Shared helpers for the table benches -*- C++ -*-===//
///
/// \file
/// Helpers shared by the table sources and the tracker benches:
/// configuration constructors (the latency probes' among them), the
/// per-benchmark run loop with failure reporting, printf-free table
/// emission, wall-clock timing, the trackers' thread sweep, and the
/// BENCH_*.json helpers. The strict numeric flag parsers are support/Str.h's.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_BENCH_BENCHCOMMON_H
#define BALSCHED_BENCH_BENCHCOMMON_H

#include "driver/Experiment.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace bsched {
namespace bench {

inline driver::CompileOptions
makeOptions(sched::SchedulerKind Kind, int Unroll = 1, bool TrS = false,
            bool LA = false) {
  driver::CompileOptions O;
  O.Scheduler = Kind;
  O.UnrollFactor = Unroll;
  O.TraceScheduling = TrS;
  O.LocalityAnalysis = LA;
  // Benches time the pipeline; the static verifier runs in tests/fuzzing.
  O.VerifyPasses = false;
  return O;
}

inline driver::CompileOptions balanced(int Unroll = 1, bool TrS = false,
                                       bool LA = false) {
  return makeOptions(sched::SchedulerKind::Balanced, Unroll, TrS, LA);
}

inline driver::CompileOptions traditional(int Unroll = 1, bool TrS = false,
                                          bool LA = false) {
  return makeOptions(sched::SchedulerKind::Traditional, Unroll, TrS, LA);
}

/// Runs (cached) and aborts the bench with a diagnostic on any failure —
/// a table must never be printed from a failed or miscompiled run.
inline const driver::RunResult &
mustRun(const driver::Workload &W, const driver::CompileOptions &Opts,
        const sim::MachineConfig &Machine = {}) {
  const driver::RunResult &R = driver::runCached(W, Opts, Machine);
  if (!R.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", R.Error.c_str());
    std::exit(1);
  }
  return R;
}

/// The options every latency probe of Tables 2 and 3 compiles under:
/// traditional list scheduling with the IR cleanup off, which would rewrite
/// the serial chains the probes time.
inline driver::CompileOptions probeOptions() {
  driver::CompileOptions O = traditional();
  O.CleanupIR = false;
  return O;
}

/// The full (workload x options x machine) grid as an ExperimentJob list —
/// the shape every table's jobs() registration is built from.
inline std::vector<driver::ExperimentJob>
gridJobs(const std::vector<driver::CompileOptions> &Configs,
         const std::vector<sim::MachineConfig> &Machines = {
             sim::MachineConfig{}}) {
  std::vector<driver::ExperimentJob> Jobs;
  Jobs.reserve(driver::workloads().size() * Configs.size() * Machines.size());
  for (const driver::Workload &W : driver::workloads())
    for (const driver::CompileOptions &O : Configs)
      for (const sim::MachineConfig &M : Machines)
        Jobs.push_back({&W, O, M});
  return Jobs;
}

inline void emit(const Table &T) {
  std::fputs(T.render().c_str(), stdout);
  std::fputs("\n", stdout);
}

inline void heading(const char *Text) {
  std::printf("%s\n", Text);
  for (const char *C = Text; *C; ++C)
    std::fputc('=', stdout);
  std::fputs("\n\n", stdout);
}

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-of-\p Reps wall time of \p Fn, in nanoseconds (the minimum absorbs
/// scheduler noise).
template <typename FnT> uint64_t bestOf(int Reps, FnT Fn) {
  uint64_t Best = ~0ull;
  for (int R = 0; R != Reps; ++R) {
    uint64_t T0 = nowNs();
    Fn();
    Best = std::min(Best, nowNs() - T0);
  }
  return Best;
}

/// The worker counts of a tracker's thread-scaling sweep over \p Jobs jobs:
/// 1, 2, 4, ... up to ThreadPool::workersFor(0, Jobs) (one per hardware
/// thread, at most one per job), that bound included when it is not a power
/// of two. The last entry is the count benchJsonHead records.
inline std::vector<unsigned> threadSweep(size_t Jobs) {
  const unsigned Max = ThreadPool::workersFor(0, Jobs);
  std::vector<unsigned> Ts;
  for (unsigned T = 1; T < Max; T *= 2)
    Ts.push_back(T);
  Ts.push_back(Max);
  return Ts;
}

// The BENCH_*.json helpers of the trackers and bsched-suite (defined in
// Suite.cpp).

/// The opening of every BENCH_*.json object: the brace, its schema, and the
/// metadata that makes two points comparable — the host's hardware threads,
/// the most worker threads the bench ran, the build type and the code
/// version. The caller appends its own fields and the closing brace.
std::string benchJsonHead(const char *Schema, unsigned Threads);

/// Writes \p Json to \p Path and says so; false, with a message, when the
/// file cannot be written.
bool writeBenchJson(const std::string &Path, const std::string &Json);

/// \p S escaped for a JSON string literal.
std::string jsonEscape(const std::string &S);

/// The `"TAG": NUMBER` entries of a CI baseline file with a positive
/// number, in file order; exits the bench when the file cannot be read.
std::vector<std::pair<std::string, double>>
readBaseline(const std::string &Path);

} // namespace bench
} // namespace bsched

#endif // BALSCHED_BENCH_BENCHCOMMON_H
