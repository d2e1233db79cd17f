//===- driver/Experiment.h - Experiment harness -----------------*- C++ -*-===//
///
/// \file
/// Shared harness for the table-regenerating benchmark binaries: compiles a
/// workload under one configuration, simulates it, cross-checks the result
/// against the functional oracle, and memoizes (workload, configuration)
/// pairs so one binary can assemble several table columns cheaply.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_EXPERIMENT_H
#define BALSCHED_DRIVER_EXPERIMENT_H

#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "sim/Machine.h"
#include "support/CodeVersion.h"
#include "support/ShardedMemo.h"
#include "support/ThreadPool.h" // runAll's loop; perfbench reaches it here.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bsched {
namespace driver {

struct RunResult {
  std::string Error; ///< empty on success.
  sim::SimResult Sim;

  // Compilation statistics for the tables' footnote-level discussion.
  xform::UnrollStats Unroll;
  locality::LocalityStats Locality;
  trace::TraceStats Trace;
  regalloc::RegAllocStats RegAlloc;

  bool ok() const { return Error.empty(); }
};

/// Compiles and simulates \p W under \p Opts on \p Machine. The simulated
/// checksum is verified against the AST evaluator; a mismatch is an error
/// (an experiment must never report numbers from a miscompiled program).
///
/// The evaluator's result depends on the source text alone, so it is
/// memoized under the text's digest and length: each source text is
/// evaluated once per result-cache lifetime (until clearResultCache), by
/// the first job that needs it, whatever the workload's name. Every job
/// still parses and compiles its own program, compares its own simulated
/// checksum with the oracle's, and names itself in an oracle error.
RunResult runWorkload(const Workload &W, const CompileOptions &Opts,
                      const sim::MachineConfig &Machine = {});

/// The content key runCached memoizes under and the persistent store files
/// results by: \p Salt, a digest of the workload's source text, every
/// CompileOptions and MachineConfig field as fixed-width bytes (the field
/// lists of driver/JobFields.h), and the workload's name. Two jobs share a
/// key only if nothing that can change their result differs; the suite
/// runner deduplicates cross-table jobs by comparing keys. \p Salt is the
/// code version (support/CodeVersion.h), so results of other code never
/// match.
std::string resultKey(const Workload &W, const CompileOptions &Opts,
                      const sim::MachineConfig &Machine = {},
                      std::string_view Salt = codeVersion());

/// Memoized variant keyed on resultKey(); the benchmark binaries use this
/// so overlapping tables share runs.
///
/// Thread-safe and deduplicating (support/ShardedMemo.h): concurrent
/// callers with distinct keys neither recompute nor contend on a shared
/// lock; concurrent callers with the same key block until the first one
/// finishes and then share its result. Returned references stay valid until
/// clearResultCache.
///
/// When the persistent ArtifactStore is enabled, a memory miss first tries
/// the disk tier: a verified on-disk artifact is decoded instead of
/// recomputed, and a computed OK result is written back. Disk entries that
/// fail any check degrade to recompute — identical results, just slower.
///
/// A PhaseRecorder (support/PhaseRecord.h) around one call shows which tier
/// served it: a computed result records lang.eval, the compile phases and
/// sim; a disk hit records driver.store_load and driver.decode but no
/// lang.eval; a memory hit, or a wait on another thread computing the same
/// key, records nothing. A computed result's lang.eval may be only a lookup
/// of the oracle memo, or a wait on another job evaluating the same text.
const RunResult &runCached(const Workload &W, const CompileOptions &Opts,
                           const sim::MachineConfig &Machine = {});

/// Empties the in-memory result cache and runWorkload's oracle memo, so the
/// next job of any source evaluates it again. All references previously
/// returned by runCached/runAll become dangling — callers are the suite
/// runner (between its cold and warm measurement passes) and tests, which
/// drop their results first. Must not race with runCached. The counters
/// keep counting.
void clearResultCache();

/// runCached observability, aggregated over shards. Hits found a completed
/// entry, Misses paid the compile+simulate (or the disk load), InFlightWaits
/// arrived while another thread was computing the same key and blocked on
/// it.
using ResultCacheStats = MemoStats;
ResultCacheStats resultCacheStats();

/// runWorkload's oracle memo, aggregated over shards: Misses counts the
/// evaluations run, Hits and InFlightWaits the jobs that shared one.
MemoStats oracleCacheStats();

/// One (workload, configuration, machine) cell of an experiment.
struct ExperimentJob {
  const Workload *W = nullptr;
  CompileOptions Opts;
  sim::MachineConfig Machine;
};

/// Runs every job through runCached on \p NumThreads workers (0 = one per
/// hardware thread), the calling thread among them, and returns the results
/// in job order. Each worker drains guided chunks of the job list
/// (ThreadPool::parallelForChunked), so dispatch is one relaxed fetch_add
/// per chunk, not a queue hand-off per job. Each compile is a pure
/// function of its job — per-compile RNG streams, no shared mutable state —
/// and results are written by job index, so the returned vector is
/// byte-identical for any thread count; the golden-schedule and
/// compile-service tests assert this.
std::vector<const RunResult *> runAll(const std::vector<ExperimentJob> &Jobs,
                                      unsigned NumThreads = 0);

/// Arithmetic mean (the paper reports arithmetic average speedups).
double mean(const std::vector<double> &Xs);

/// speedup = Base / New in total cycles.
double speedup(const RunResult &Base, const RunResult &New);

/// Percentage decrease from Base to New (0.23 = 23% fewer).
double pctDecrease(uint64_t Base, uint64_t New);

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_EXPERIMENT_H
