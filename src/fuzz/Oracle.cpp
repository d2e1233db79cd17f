//===- fuzz/Oracle.cpp - Differential oracle for one candidate --------------===//

#include "fuzz/Oracle.h"

#include "driver/JobFields.h"
#include "ir/Interp.h"
#include "lang/Eval.h"
#include "lang/Parser.h"
#include "sched/Exact.h"
#include "trace/EstimateProfile.h"

#include <utility>

using namespace bsched;
using namespace bsched::fuzz;

const char *fuzz::failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None: return "none";
  case FailureKind::EvalError: return "eval-error";
  case FailureKind::CompileError: return "compile-error";
  case FailureKind::VerifierDiag: return "verifier-diag";
  case FailureKind::SchedTwinDivergence: return "sched-twin-divergence";
  case FailureKind::TraceTwinDivergence: return "trace-twin-divergence";
  case FailureKind::InterpDivergence: return "interp-divergence";
  case FailureKind::SimError: return "sim-error";
  case FailureKind::SimTwinDivergence: return "sim-twin-divergence";
  case FailureKind::SimDivergence: return "sim-divergence";
  case FailureKind::OptimalityGap: return "optimality-gap";
  case FailureKind::EstProfileInvalid: return "est-profile-invalid";
  }
  return "?";
}

std::string fuzz::diffSimResults(const sim::SimResult &F,
                                 const sim::SimResult &R) {
  return driver::firstDifference(F, R, "fast", "ref");
}

namespace {

/// Allowed fast-over-optimal excess (percent) on solver-closed blocks.
constexpr double MaxGapPct = 100.0;
/// Solver budgets for the gap leg; modest, since fuzzing sweeps many
/// candidates times many configs.
constexpr sched::exact::ExactOptions GapSolver{/*MaxNodes=*/32,
                                               /*MaxExpansions=*/50000};
/// Cycle cap per simulator run; the twins must agree at the cut as well.
constexpr uint64_t SimMaxCycles = 400000;
/// AST-eval statement budget.
constexpr uint64_t EvalBudget = 200000000;

/// The compile configuration the simulator sweep runs under (the FuzzSim
/// setup: moderate unrolling builds interesting blocks; the verifier is the
/// compile sweep's job).
driver::CompileOptions simCompileConfig() {
  driver::CompileOptions O;
  O.UnrollFactor = 4;
  O.VerifyPasses = false;
  return O;
}

Failure fail(FailureKind K, std::string ConfigTag, int ConfigIndex,
             std::string MachineTag, std::string Detail) {
  Failure F;
  F.Kind = K;
  F.ConfigTag = std::move(ConfigTag);
  F.ConfigIndex = ConfigIndex;
  F.MachineTag = std::move(MachineTag);
  F.Detail = std::move(Detail);
  return F;
}

/// Optimality-gap leg for one configuration: recompile stopping before
/// register allocation (the scheduler's own output, before spills reshape
/// it), then on every block within the solver's node budget ask the
/// branch-and-bound oracle (sched/Exact.h) for the proven optimum. On
/// closed blocks three things must hold: the solver's order is a legal
/// topological order, the solver never lost to its own warm start
/// (fast-beats-exact == solver bug), and the fast schedule is within
/// MaxGapPct of optimal (exact-beats-fast beyond that == finding).
Failure gapOracle(const lang::Program &P, const driver::CompileOptions &Config,
                  const std::string &Tag, int Index) {
  namespace exact = sched::exact;
  driver::CompileOptions GapCfg = Config;
  GapCfg.StopBeforeRegAlloc = true;
  GapCfg.Balance.Impl = sched::SchedImpl::Fast;
  // Trace compaction schedules whole traces — downward motion and
  // compensation deliberately leave individual blocks locally suboptimal —
  // so single-block optimality is the list scheduler's contract, not the
  // trace scheduler's. Judge the same config with traces off.
  GapCfg.TraceScheduling = false;
  driver::CompileResult C = driver::compileProgram(P, GapCfg);
  if (!C.ok())
    return fail(FailureKind::CompileError, Tag, Index, "",
                "gap-leg compile: " + C.Error);
  for (const ir::BasicBlock &B : C.M.Fn.Blocks) {
    if (B.Instrs.size() <= 2 || B.Instrs.size() > GapSolver.MaxNodes)
      continue;
    std::vector<const ir::Instr *> Ptrs;
    Ptrs.reserve(B.Instrs.size());
    for (const ir::Instr &I : B.Instrs)
      Ptrs.push_back(&I);
    sched::DepDAG G = sched::buildDepDAG(Ptrs);
    sched::addBlockControlEdges(G, Ptrs);
    // The block is already in its scheduled order, so the identity order IS
    // the fast schedule (and, the DAG being built from that order, a legal
    // topological order by construction).
    std::vector<unsigned> Fast(Ptrs.size());
    for (unsigned K = 0; K != Ptrs.size(); ++K)
      Fast[K] = K;
    unsigned FastCycles = exact::evaluateOrder(G, Ptrs, Fast, GapSolver);
    exact::ExactResult R = exact::scheduleExact(G, Ptrs, GapSolver, &Fast);
    if (!R.closed())
      continue;
    auto Where = [&](const std::string &What) {
      return "block b" + std::to_string(B.Id) + " (" +
             std::to_string(Ptrs.size()) + " instrs): " + What +
             " fast=" + std::to_string(FastCycles) +
             " exact=" + std::to_string(R.Cycles);
    };
    // Solver self-checks first: a broken solver must never masquerade as a
    // scheduler finding.
    std::vector<bool> Seen(Ptrs.size(), false);
    std::vector<unsigned> Pos(Ptrs.size(), 0);
    bool Legal = R.Order.size() == Ptrs.size();
    for (unsigned K = 0; Legal && K != R.Order.size(); ++K) {
      if (R.Order[K] >= Ptrs.size() || Seen[R.Order[K]])
        Legal = false;
      else {
        Seen[R.Order[K]] = true;
        Pos[R.Order[K]] = K;
      }
    }
    for (unsigned I = 0; Legal && I != G.size(); ++I)
      for (unsigned S : G.succs(I))
        if (Pos[I] >= Pos[S])
          Legal = false;
    if (!Legal)
      return fail(FailureKind::OptimalityGap, Tag, Index, "",
                  Where("solver bug: exact order is not a legal "
                        "topological order"));
    if (R.Cycles > FastCycles ||
        exact::evaluateOrder(G, Ptrs, R.Order, GapSolver) != R.Cycles)
      return fail(FailureKind::OptimalityGap, Tag, Index, "",
                  Where("solver bug: exact schedule worse than its warm "
                        "start or inconsistent with its claimed cycles"));
    // The scheduler finding: fast exceeds the allowed gap over the optimum.
    if (static_cast<double>(FastCycles) * 100.0 >
        static_cast<double>(R.Cycles) * (100.0 + MaxGapPct))
      return fail(FailureKind::OptimalityGap, Tag, Index, "",
                  Where("fast schedule exceeds the " +
                        std::to_string(static_cast<int>(MaxGapPct)) +
                        "% optimality-gap bound"));
  }
  return {};
}

/// Estimated-profile leg for one configuration: take the module
/// compileProgram hands to the profiler (driver::compileFrontEnd), then
/// hold the static estimate to its contract — flow-conserving in exact
/// integer arithmetic, deterministic across runs, Finished (the fuzzer only
/// generates terminating programs), and digestible by trace formation with
/// every block covered exactly once.
Failure estProfileOracle(const lang::Program &P,
                         const driver::CompileOptions &Config,
                         const std::string &Tag, int Index) {
  driver::CompileResult FE = driver::compileFrontEnd(P, Config);
  if (!FE.ok())
    return fail(FailureKind::CompileError, Tag, Index, "",
                "est-leg " + FE.Error);
  const ir::Function &Fn = FE.M.Fn;

  ir::InterpResult Est = trace::estimateProfile(Fn);
  if (!Est.Finished)
    return fail(FailureKind::EstProfileInvalid, Tag, Index, "",
                "a terminating program was judged to never return");
  if (std::string E =
          ir::checkProfileConservation(Fn, Est, trace::EstimateEntryCount);
      !E.empty())
    return fail(FailureKind::EstProfileInvalid, Tag, Index, "",
                "not flow-conserving: " + E);
  ir::InterpResult Est2 = trace::estimateProfile(Fn);
  if (Est2.Finished != Est.Finished ||
      Est2.BlockCounts != Est.BlockCounts ||
      Est2.EdgeCounts != Est.EdgeCounts)
    return fail(FailureKind::EstProfileInvalid, Tag, Index, "",
                "estimate differs across two runs on the same module");
  std::vector<trace::Trace> Traces = trace::formTraces(Fn, Est);
  std::vector<int> Covered(Fn.Blocks.size(), 0);
  for (const trace::Trace &T : Traces)
    for (int B : T) {
      if (B < 0 || static_cast<size_t>(B) >= Covered.size() ||
          ++Covered[static_cast<size_t>(B)] > 1)
        return fail(FailureKind::EstProfileInvalid, Tag, Index, "",
                    "trace formation covered block b" + std::to_string(B) +
                        " twice (or out of range) under the estimate");
    }
  for (size_t B = 0; B != Covered.size(); ++B)
    if (!Covered[B])
      return fail(FailureKind::EstProfileInvalid, Tag, Index, "",
                  "trace formation left block b" + std::to_string(B) +
                      " uncovered under the estimate");
  return {};
}

/// Compile-side differential for one configuration; fills \p Cov when given.
Failure compileOracle(const lang::Program &P, uint64_t RefChecksum,
                      const driver::CompileOptions &Config, int Index,
                      const OracleOptions &Opts, CoverageMap *Cov) {
  const std::string Tag = Config.tag();
  driver::CompileResult C = driver::compileProgram(P, Config);
  if (Cov)
    addCompileFeatures(*Cov, static_cast<unsigned>(Index), C);
  if (!C.VerifyDiags.empty()) {
    std::string Text;
    for (const verify::Diagnostic &D : C.VerifyDiags)
      Text += verify::toString(D) + "\n";
    return fail(FailureKind::VerifierDiag, Tag, Index, "", Text);
  }
  if (!C.ok())
    return fail(FailureKind::CompileError, Tag, Index, "", C.Error);

  ir::InterpResult I = ir::interpret(C.M);
  if (!I.Finished)
    return fail(FailureKind::InterpDivergence, Tag, Index, "",
                I.Error.empty() ? "interpreter exceeded its instruction budget"
                                : "interpreter: " + I.Error);
  if (I.Checksum != RefChecksum)
    return fail(FailureKind::InterpDivergence, Tag, Index, "",
                "checksum interp=" + std::to_string(I.Checksum) +
                    " eval=" + std::to_string(RefChecksum));

  // Sched twin: the whole pipeline again under the reference scheduler.
  driver::CompileOptions SchedRef = Config;
  SchedRef.Balance.Impl = sched::SchedImpl::Reference;
  driver::CompileResult SC = driver::compileProgram(P, SchedRef);
  if (!SC.ok())
    return fail(FailureKind::SchedTwinDivergence, Tag, Index, "",
                "reference pipeline failed: " + SC.Error);
  if (ir::printFunction(C.M.Fn) != ir::printFunction(SC.M.Fn))
    return fail(FailureKind::SchedTwinDivergence, Tag, Index, "",
                "fast and reference compiled code differ");

  // Trace twin: only the trace-scheduling core differs (the fast scheduler
  // core runs in both pipelines), isolating any divergence to trace
  // formation, compaction, or compensation bookkeeping.
  if (Config.TraceScheduling) {
    driver::CompileOptions RefOpts = Config;
    RefOpts.TraceImpl = trace::TraceImpl::Reference;
    driver::CompileResult RC = driver::compileProgram(P, RefOpts);
    if (!RC.ok())
      return fail(FailureKind::TraceTwinDivergence, Tag, Index, "",
                  "reference trace pipeline failed: " + RC.Error);
    if (ir::printFunction(C.M.Fn) != ir::printFunction(RC.M.Fn))
      return fail(FailureKind::TraceTwinDivergence, Tag, Index, "",
                  "fast and reference trace-scheduled code differ");
  }

  if (Opts.CheckEstimatedProfile)
    if (Failure EF = estProfileOracle(P, Config, Tag, Index);
        EF.Kind != FailureKind::None)
      return EF;

  if (Opts.CheckOptimalityGap)
    return gapOracle(P, Config, Tag, Index);
  return {};
}

/// Simulator differential under one machine model; fills \p Cov when given.
Failure simOracle(const ir::Module &M, uint64_t RefChecksum,
                  const MachinePoint &Point, unsigned CovCfg,
                  CoverageMap *Cov) {
  sim::MachineConfig C = Point.Config;
  C.Impl = sim::SimImpl::Fast;
  sim::SimResult F = sim::simulate(M, C, SimMaxCycles);
  C.Impl = sim::SimImpl::Reference;
  sim::SimResult R = sim::simulate(M, C, SimMaxCycles);
  if (Cov)
    addSimFeatures(*Cov, CovCfg, F);
  if (!F.ok())
    return fail(FailureKind::SimError, "", -1, Point.Tag, F.Error);
  if (std::string D = diffSimResults(F, R); !D.empty())
    return fail(FailureKind::SimTwinDivergence, "", -1, Point.Tag, D);
  if (F.Finished && F.Checksum != RefChecksum)
    return fail(FailureKind::SimDivergence, "", -1, Point.Tag,
                "checksum sim=" + std::to_string(F.Checksum) +
                    " eval=" + std::to_string(RefChecksum));
  return {};
}

} // namespace

OracleRun fuzz::runOracle(const lang::Program &Input,
                          const OracleOptions &Opts) {
  OracleRun Run;
  // Normalize before judging: evalProgram honors whatever type/conversion
  // annotations the AST carries, while compileProgram re-checks its own
  // copy — an unchecked input would make the oracle disagree with itself.
  lang::Program P = Input;
  if (std::string E = lang::checkProgram(P); !E.empty()) {
    Run.Fail = fail(FailureKind::EvalError, "", -1, "", "check: " + E);
    return Run;
  }

  lang::EvalResult Ref = lang::evalProgram(P, EvalBudget);
  if (!Ref.ok()) {
    Run.Fail = fail(FailureKind::EvalError, "", -1, "", Ref.Error);
    return Run;
  }

  const std::vector<driver::CompileOptions> Configs =
      differentialCompileConfigs();
  for (size_t I = 0; I != Configs.size() && Run.clean(); ++I)
    Run.Fail = compileOracle(P, Ref.Checksum, Configs[I],
                             static_cast<int>(I), Opts, &Run.Cov);
  if (!Run.clean() || !Opts.RunSim)
    return Run;

  driver::CompileResult C = driver::compileProgram(P, simCompileConfig());
  if (!C.ok()) {
    Run.Fail = fail(FailureKind::CompileError, simCompileConfig().tag(), -1,
                    "", C.Error);
    return Run;
  }
  const std::vector<MachinePoint> Machines = differentialMachinePoints();
  // Offset the coverage config index past the compile sweep so "MSHR
  // stalls under starved" and "... under 21164" are distinct bits.
  for (size_t I = 0; I != Machines.size() && Run.clean(); ++I)
    Run.Fail = simOracle(C.M, Ref.Checksum, Machines[I],
                         static_cast<unsigned>(1000 + I), &Run.Cov);
  return Run;
}

Failure fuzz::runCompileOracle(const lang::Program &Input,
                               const driver::CompileOptions &Config,
                               const OracleOptions &Opts) {
  lang::Program P = Input;
  if (std::string E = lang::checkProgram(P); !E.empty())
    return fail(FailureKind::EvalError, "", -1, "", "check: " + E);
  lang::EvalResult Ref = lang::evalProgram(P, EvalBudget);
  if (!Ref.ok())
    return fail(FailureKind::EvalError, "", -1, "", Ref.Error);
  return compileOracle(P, Ref.Checksum, Config, -1, Opts, nullptr);
}

Failure fuzz::runSimOracle(const lang::Program &Input,
                           const sim::MachineConfig &Machine,
                           const std::string &MachineTag) {
  lang::Program P = Input;
  if (std::string E = lang::checkProgram(P); !E.empty())
    return fail(FailureKind::EvalError, "", -1, "", "check: " + E);
  lang::EvalResult Ref = lang::evalProgram(P, EvalBudget);
  if (!Ref.ok())
    return fail(FailureKind::EvalError, "", -1, "", Ref.Error);
  driver::CompileResult C = driver::compileProgram(P, simCompileConfig());
  if (!C.ok())
    return fail(FailureKind::CompileError, simCompileConfig().tag(), -1, "",
                C.Error);
  MachinePoint Point{MachineTag.c_str(), Machine};
  return simOracle(C.M, Ref.Checksum, Point, 0, nullptr);
}

Failure fuzz::replayRepro(const Repro &R, std::string &Err) {
  Err.clear();
  lang::ParseResult P = lang::parseProgram(R.Source, "repro");
  if (!P.ok()) {
    Err = "parse: " + P.Error;
    return fail(FailureKind::EvalError, "", -1, "", Err);
  }
  if (std::string E = lang::checkProgram(P.Prog); !E.empty()) {
    Err = "check: " + E;
    return fail(FailureKind::EvalError, "", -1, "", Err);
  }
  if (!R.MachineTag.empty()) {
    std::optional<sim::MachineConfig> M = machineByTag(R.MachineTag);
    if (!M) {
      Err = "unknown machine tag '" + R.MachineTag + "'";
      return fail(FailureKind::EvalError, "", -1, "", Err);
    }
    return runSimOracle(P.Prog, *M, R.MachineTag);
  }
  // A gap or estimated-profile repro re-arms the leg that found it.
  OracleOptions Opts;
  Opts.CheckOptimalityGap =
      R.Kind == failureKindName(FailureKind::OptimalityGap);
  Opts.CheckEstimatedProfile =
      R.Kind == failureKindName(FailureKind::EstProfileInvalid);
  return runCompileOracle(P.Prog, R.Options, Opts);
}
