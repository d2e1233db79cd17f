//===- bench/Suite.h - Unified suite-runner table registry ------*- C++ -*-===//
///
/// \file
/// The contract between the table sources and the bsched-suite orchestrator,
/// the one way to run a paper table (`bsched-suite --tables <name>`). Each
/// table source bench/bench_<name>.cpp is a pair of functions:
///
///   - jobs(): the (workload, options, machine) grid of every runCached cell
///     the table reads — the part worth deduplicating and parallelizing;
///   - run():  emits the table to stdout, assuming nothing (every cell it
///     touches still goes through runCached, so it is correct — just slower
///     — without a warm cache). It computes nothing itself: anything that
///     compiles or simulates, such as Tables 2 and 3's latency probes, is a
///     cell of jobs(). Once the grid is warm, the suite fails a run() that
///     records any phase (support/PhaseRecord.h) on its thread.
///
/// BSCHED_SUITE_TABLE(name, title) exports the pair as a table descriptor
/// under a well-known symbol, which the suite collects through
/// BSCHED_SUITE_ALL_TABLES. run() is the single emitter and runCached
/// results are deterministic for any thread count and either cache tier, so
/// a table's bytes never depend on which tables ran beside it (suite_test
/// asserts this and pins tables 1-4 to their recorded FNV-1a).
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_BENCH_SUITE_H
#define BALSCHED_BENCH_SUITE_H

#include "driver/Experiment.h"

#include <string>
#include <vector>

namespace bsched {
namespace bench {

/// One registered table bench.
struct SuiteTable {
  std::string Name;  ///< matches the source file: bench/bench_<Name>.cpp.
  std::string Title; ///< one-line description for --list and the JSON.
  std::vector<driver::ExperimentJob> (*Jobs)();
  int (*Run)();
};

/// Runs \p Fn with stdout redirected into \p Captured (fd-level, so C stdio
/// from the table code is included). Returns Fn's return value; on capture
/// plumbing failure returns nonzero with \p Captured empty. stdout is
/// restored before returning.
int captureStdout(int (*Fn)(), std::string &Captured);

/// Every suite table, in canonical (paper) order. Each X(name) names a
/// translation unit that invokes BSCHED_SUITE_TABLE(name, ...); the suite
/// binary expands this list to declare and collect the descriptors, so a
/// new table registers by adding one line here, one macro call there, and
/// its source to the table library in bench/CMakeLists.txt.
#define BSCHED_SUITE_ALL_TABLES(X)                                            \
  X(table1_workload)                                                          \
  X(table2_memory)                                                            \
  X(table3_latency)                                                           \
  X(table4_unroll_bs)                                                         \
  X(table5_bs_vs_ts)                                                          \
  X(table6_combos)                                                            \
  X(table7_trace_bs_vs_ts)                                                    \
  X(table8_summary)                                                           \
  X(table9_locality)                                                          \
  X(sec55_model_compare)                                                      \
  X(ablation_weight_cap)                                                      \
  X(ablation_trace_profile)                                                   \
  X(extra_hitrate_sweep)                                                      \
  X(extra_breakdown)                                                          \
  X(ext_future_work)

} // namespace bench
} // namespace bsched

/// Defined by each table translation unit (via BSCHED_SUITE_TABLE); the
/// suite binary declares them through BSCHED_SUITE_ALL_TABLES.
#define BSCHED_SUITE_DECLARE(NAME)                                            \
  ::bsched::bench::SuiteTable bsched_suite_table_##NAME();

/// Registers the enclosing file's jobs()/run() pair (any file-scope callables
/// with those signatures) as suite table \p NAME.
#define BSCHED_SUITE_TABLE(NAME, TITLE)                                       \
  ::bsched::bench::SuiteTable bsched_suite_table_##NAME() {                   \
    return {#NAME, TITLE, &jobs, &run};                                       \
  }

#endif // BALSCHED_BENCH_SUITE_H
