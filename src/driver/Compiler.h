//===- driver/Compiler.h - Whole-pipeline facade ----------------*- C++ -*-===//
///
/// \file
/// The public entry point tying the pipeline together the way the modified
/// Multiflow compiler of section 4 does:
///
///   parse/check -> [locality analysis (Phase 2)] -> [loop unrolling]
///     -> lower -> [profile + trace scheduling | list scheduling (Phase 3)]
///     -> register allocation -> verified machine code for the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_COMPILER_H
#define BALSCHED_DRIVER_COMPILER_H

#include "ir/IR.h"
#include "locality/Locality.h"
#include "lower/Lower.h"
#include "opt/Cleanup.h"
#include "regalloc/LinearScan.h"
#include "sched/Schedule.h"
#include "trace/Trace.h"
#include "verify/Verify.h"
#include "xform/Unroll.h"

#include <string>

namespace bsched {
namespace driver {

/// One experimental configuration (a row/column of the paper's tables).
struct CompileOptions {
  sched::SchedulerKind Scheduler = sched::SchedulerKind::Balanced;
  /// 1 = no unrolling; the paper evaluates 4 and 8.
  int UnrollFactor = 1;
  bool TraceScheduling = false;
  /// Use static frequency estimation instead of a profiling run to guide
  /// trace selection (section 3.2 allows either; the paper profiles).
  bool UseEstimatedProfile = false;
  bool LocalityAnalysis = false;
  /// Run the IR cleanup (copy propagation, constant folding, DCE) after
  /// lowering; on by default, off for ablation.
  bool CleanupIR = true;
  /// Skip register allocation (for passes that inspect virtual-register
  /// code); such modules cannot be simulated.
  bool StopBeforeRegAlloc = false;
  /// Run the static legality verifier (verify::) after scheduling and after
  /// register allocation. Default on — tests and fuzzing want every config
  /// independently checked; benchmarks turn it off (bench/BenchCommon.h).
  bool VerifyPasses = true;

  sched::BalanceOptions Balance;
  lower::LowerOptions Lower;
  regalloc::RegAllocOptions RegAlloc;

  /// Trace-scheduling core (fast by default; the seed twin for timing
  /// baselines and differential checks). Balance.Impl == Reference selects
  /// the reference twin regardless, so the reference pipeline stays the
  /// whole seed pipeline.
  trace::TraceImpl TraceImpl = trace::TraceImpl::Fast;

  /// Short textual tag, e.g. "BS+LU4+TrS".
  std::string tag() const;
};

struct CompileResult {
  ir::Module M;
  std::string Error; ///< empty on success.

  xform::UnrollStats Unroll;
  opt::CleanupStats Cleanup;
  locality::LocalityStats Locality;
  trace::TraceStats Trace;
  regalloc::RegAllocStats RegAlloc;
  /// Optimality-oracle outcomes (populated only when Balance.Impl ==
  /// sched::SchedImpl::Exact): per-block closure counts and the summed
  /// fast-vs-optimal cycles over closed blocks.
  sched::exact::ExactStats Exact;
  /// Diagnostics from the static verifier (empty unless VerifyPasses found a
  /// miscompile; Error is set alongside).
  std::vector<verify::Diagnostic> VerifyDiags;

  bool ok() const { return Error.empty(); }
};

/// The pipeline up to the scheduler: check, locality analysis, unrolling,
/// recheck, lowering and cleanup (with its ir::verify). The result holds
/// the module profiling would see, with the front-end statistics. The input
/// program is copied; transformations never mutate the caller's AST.
CompileResult compileFrontEnd(const lang::Program &Source,
                              const CompileOptions &Opts);

/// Compiles \p Source (already checked) under \p Opts: compileFrontEnd,
/// then profiling, scheduling, verification and register allocation.
CompileResult compileProgram(const lang::Program &Source,
                             const CompileOptions &Opts);

/// Parses, checks and compiles kernel-language text.
CompileResult compileSource(const std::string &Text, const std::string &Name,
                            const CompileOptions &Opts);

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_COMPILER_H
