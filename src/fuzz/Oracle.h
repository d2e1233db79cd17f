//===- fuzz/Oracle.h - Differential oracle for one candidate ----*- C++ -*-===//
///
/// \file
/// Runs one candidate program through every cross-check the repo has and
/// classifies any disagreement:
///
///   AST eval  ==  ir::interpret(compiled)     per compile configuration
///   verify::  finds no diagnostic             per compile configuration
///   SchedImpl::Fast == SchedImpl::Reference   byte-identical compiled code
///   TraceImpl::Fast == TraceImpl::Reference   byte-identical compiled code,
///                                             per trace-scheduling config
///   SimImpl::Fast == SimImpl::Reference       every SimResult field, per
///                                             machine model
///   sim checksum == AST eval checksum         when the run finishes
///
/// The compile sweep uses the canonical fuzz::differentialCompileConfigs()
/// list; the simulator sweep compiles once (unroll 4, the FuzzSim setup) and
/// runs each machine point of fuzz::differentialMachinePoints() under both
/// cores. Along the way the oracle fills a CoverageMap, so one call yields
/// both the verdict and the feedback signal.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_FUZZ_ORACLE_H
#define BALSCHED_FUZZ_ORACLE_H

#include "fuzz/Configs.h"
#include "fuzz/Coverage.h"
#include "fuzz/Repro.h"
#include "lang/AST.h"

#include <cstdint>
#include <string>

namespace bsched {
namespace fuzz {

enum class FailureKind : uint8_t {
  None,
  EvalError,          ///< the AST oracle itself rejected the program.
  CompileError,       ///< a configuration failed to compile.
  VerifierDiag,       ///< verify:: produced diagnostics.
  SchedTwinDivergence,///< fast vs reference compile output differs.
  TraceTwinDivergence,///< fast vs reference trace-scheduling output differs.
  InterpDivergence,   ///< interpreter checksum != AST eval checksum.
  SimError,           ///< a simulator run errored out.
  SimTwinDivergence,  ///< fast vs reference SimResult field mismatch.
  SimDivergence,      ///< finished sim checksum != AST eval checksum.
  OptimalityGap,      ///< fast schedule illegal, beaten beyond MaxGapPct by
                      ///< the exact solver on a closed block, or (solver
                      ///< bug) worse-than-warm-start exact output.
  EstProfileInvalid,  ///< the static profile estimate was not
                      ///< flow-conserving, not deterministic, judged a
                      ///< terminating program unfinished, or broke trace
                      ///< formation.
};

const char *failureKindName(FailureKind K);

/// One classified mismatch, localized to the configuration (and machine
/// model, for simulator failures) that exposed it.
struct Failure {
  FailureKind Kind = FailureKind::None;
  std::string ConfigTag;  ///< CompileOptions::tag() of the exposing config.
  int ConfigIndex = -1;   ///< index into the oracle's compile-config list.
  std::string MachineTag; ///< machine point, for Sim* kinds.
  std::string Detail;     ///< first differing field / diagnostic / error.
};

/// The oracle legs a campaign can switch. The rest is fixed: the compile
/// sweep runs every config of differentialCompileConfigs() with both twin
/// legs, the simulator sweep every point of differentialMachinePoints() for
/// at most 400,000 cycles a run, the AST oracle at most 200,000,000
/// statements, and a sweep stops at its first failure.
struct OracleOptions {
  /// Run the simulator differential sweep.
  bool RunSim = true;
  /// Run the optimality-gap leg: recompile each config stopping before
  /// register allocation, then on every block of at most 32 instructions
  /// the branch-and-bound solver closes within 50,000 expansions
  /// (sched/Exact.h) require the fast schedule to be a legal topological
  /// order no worse than twice the proven optimum (room for balanced
  /// scheduling's deliberate hit-model pessimism: load weights up to 50
  /// under a 2-cycle hit model) — and the solver's own order to be legal
  /// and no worse than its warm start (fast-beats-exact is a solver bug,
  /// not a scheduler finding). Off by default: it is a quality oracle, not
  /// a correctness oracle.
  bool CheckOptimalityGap = false;
  /// Run the estimated-profile leg: rebuild the module the estimator sees
  /// (same transforms + lowering + cleanup as the compile pipeline) and
  /// require trace::estimateProfile to be flow-conserving (entry = one
  /// normalized unit of EstimateEntryCount flow; per block, in-edge sum ==
  /// count == out-edge sum), deterministic across runs, Finished for these
  /// always-terminating programs, and digestible by formTraces (every block
  /// covered exactly once). Off by default for the same reason as the gap
  /// leg: it judges the estimator, not program semantics.
  bool CheckEstimatedProfile = false;
};

struct OracleRun {
  Failure Fail;    ///< the first failure; Kind == None on a clean candidate.
  CoverageMap Cov; ///< behavioural coverage of this candidate.

  bool clean() const { return Fail.Kind == FailureKind::None; }
};

/// Runs the full differential oracle on \p P.
OracleRun runOracle(const lang::Program &P, const OracleOptions &Opts = {});

/// Runs only the compile-side oracle for one configuration (used by the
/// reducer's predicate, where re-sweeping every config per candidate would
/// dominate reduction time). Returns the first failure, Kind==None if clean.
Failure runCompileOracle(const lang::Program &P,
                         const driver::CompileOptions &Config,
                         const OracleOptions &Opts = {});

/// Runs only the simulator twin/checksum oracle under \p Machine (compile
/// config fixed to the FuzzSim setup). Kind==None if clean.
Failure runSimOracle(const lang::Program &P, const sim::MachineConfig &Machine,
                     const std::string &MachineTag);

/// Replays a repro file's payload: parses and checks the source, then
/// re-runs the oracle leg the repro came from (the simulator oracle under
/// machineByTag(R.MachineTag) when the tag is set, the compile oracle under
/// R.Options otherwise). Kind==None means the bug no longer reproduces —
/// the steady state tests/corpus/ asserts. Unparseable sources are reported
/// through \p Err with Kind==EvalError.
Failure replayRepro(const Repro &R, std::string &Err);

/// driver::firstDifference between the fast (\p F) and reference (\p R)
/// simulator cores: the first differing SimResult field as "Path fast=X
/// ref=Y" (e.g. "L2.Misses fast=3 ref=4"), or "" when every field matches.
/// Shared by the oracle and the simulator twin tests.
std::string diffSimResults(const sim::SimResult &F, const sim::SimResult &R);

} // namespace fuzz
} // namespace bsched

#endif // BALSCHED_FUZZ_ORACLE_H
