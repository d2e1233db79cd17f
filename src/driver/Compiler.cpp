//===- driver/Compiler.cpp - Whole-pipeline facade --------------------------===//

#include "driver/Compiler.h"

#include "driver/ProfileCache.h"
#include "ir/Interp.h"
#include "trace/EstimateProfile.h"
#include "lang/Parser.h"
#include "support/PhaseRecord.h"

#include <optional>

using namespace bsched;
using namespace bsched::driver;

std::string CompileOptions::tag() const {
  std::string S = Scheduler == sched::SchedulerKind::Balanced ? "BS"
                  : Scheduler == sched::SchedulerKind::Hybrid ? "HY"
                                                              : "TS";
  if (LocalityAnalysis)
    S += "+LA";
  if (UnrollFactor > 1)
    S += "+LU" + std::to_string(UnrollFactor);
  if (TraceScheduling)
    S += "+TrS";
  if (UseEstimatedProfile)
    S += "+Est";
  return S;
}

CompileResult driver::compileFrontEnd(const lang::Program &Source,
                                      const CompileOptions &Opts) {
  CompileResult R;
  lang::Program P;
  {
    PhaseScope S(Phase::Parse);
    P = Source; // Deep copy; transforms run on our own AST.
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      R.Error = "check: " + E;
      return R;
    }
  }

  // Phase 2: locality analysis first — it claims (and tags) the loops whose
  // reuse it exploits; plain unrolling then covers the rest.
  if (Opts.LocalityAnalysis) {
    PhaseScope S(Phase::Locality);
    locality::LocalityOptions LOpts;
    LOpts.UnrollFactor = Opts.UnrollFactor > 1 ? Opts.UnrollFactor : 0;
    R.Locality = locality::applyLocality(P, LOpts);
  }
  if (Opts.UnrollFactor > 1)
    R.Unroll = inPhase(Phase::Unroll, [&] {
      return xform::unrollLoops(P, Opts.UnrollFactor);
    });
  if (Opts.LocalityAnalysis || Opts.UnrollFactor > 1) {
    PhaseScope S(Phase::Parse);
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      R.Error = "recheck after transforms: " + E;
      return R;
    }
  }

  lower::LowerResult LR =
      inPhase(Phase::Lower, [&] { return lower::lowerProgram(P, Opts.Lower); });
  if (!LR.ok()) {
    R.Error = "lower: " + LR.Error;
    return R;
  }
  R.M = std::move(LR.M);

  if (Opts.CleanupIR) {
    R.Cleanup = inPhase(Phase::Cleanup, [&] {
      return opt::cleanupModule(R.M, Opts.Balance.Impl ==
                                         sched::SchedImpl::Reference);
    });
    PhaseScope S(Phase::Verify);
    if (std::string E = ir::verify(R.M); !E.empty())
      R.Error = "cleanup broke the IR: " + E;
  }
  // Freeing the AST copy is front-end work too.
  inPhase(Phase::Parse, [&] { P = lang::Program(); });
  return R;
}

CompileResult driver::compileProgram(const lang::Program &Source,
                                     const CompileOptions &Opts) {
  CompileResult R = compileFrontEnd(Source, Opts);
  if (!R.ok())
    return R;

  // Impl==Reference selects the pre-overhaul (seed) implementation of every
  // phase that has one — cleanup (in compileFrontEnd) and the profiling
  // interpreter here, DAG build and scheduling below — so end-to-end timings
  // of Reference vs Fast compare the whole old pipeline against the whole
  // new one. Output is byte-identical either way (pinned by the
  // golden-schedule tests).
  bool Ref = Opts.Balance.Impl == sched::SchedImpl::Reference;

  // Runs a verifier pass when VerifyPasses is on and hands its findings back
  // through the result; the first diagnostic doubles as the hard error so no
  // caller can ignore it.
  auto Flag = [&](const char *Pass, auto Verify) {
    if (!Opts.VerifyPasses)
      return false;
    verify::VerifyResult V = inPhase(Phase::Verify, Verify);
    if (V.ok())
      return false;
    R.Error = std::string(Pass) + " verifier: " + toString(V.Diags.front()) +
              (V.Diags.size() > 1
                   ? " (+" + std::to_string(V.Diags.size() - 1) + " more)"
                   : "");
    R.VerifyDiags = std::move(V.Diags);
    return true;
  };

  // Phase 3: scheduling. Trace scheduling needs the profile the paper also
  // gathers first ("we first profiled the programs to determine basic block
  // execution frequencies").
  //
  // Under SchedImpl::Exact, collect the optimality oracle's per-region
  // outcomes for the whole phase (the fast trace core schedules traces
  // directly and bypasses the oracle; only block scheduling engages it).
  std::optional<sched::exact::ExactStatsScope> ExactScope;
  if (Opts.Balance.Impl == sched::SchedImpl::Exact)
    ExactScope.emplace();
  ir::Module PreSched;
  if (Opts.VerifyPasses)
    PreSched = inPhase(Phase::Verify, [&] { return R.M; });
  if (Opts.TraceScheduling) {
    // The fast pipeline memoizes the profiling run on the module's content
    // (driver/ProfileCache.h): sweeps recompile the same module under many
    // scheduler configurations, and the profile depends on none of them.
    // Estimated and interpreted profiles share the cache but are keyed under
    // distinct kinds (an estimate must never be served where an interpreted
    // profile was expected); the Reference pipeline bypasses the cache for
    // both and recomputes from scratch.
    ir::InterpResult Profile = inPhase(Phase::Profile, [&] {
      return Opts.UseEstimatedProfile
                 ? (Ref ? trace::estimateProfile(R.M.Fn)
                        : estimatedProfileModule(R.M))
                 : (Ref ? ir::interpretByInstr(R.M) : profileModule(R.M));
    });
    if (!Profile.Finished) {
      if (Opts.UseEstimatedProfile)
        R.Error = "profile estimate: some path never returns";
      else if (!Profile.Error.empty())
        R.Error = "profiling run: " + Profile.Error;
      else
        R.Error = "profiling run exceeded the instruction budget";
      return R;
    }
    R.Trace = inPhase(Phase::TraceSched, [&] {
      return trace::traceScheduleFunction(
          R.M, Profile, Opts.Scheduler, Opts.Balance,
          Ref ? trace::TraceImpl::Reference : Opts.TraceImpl);
    });
    if (Flag("trace-schedule", [&] {
          return verify::verifyTraceSchedule(PreSched, R.M, R.Trace.Formed);
        }))
      return R;
  } else {
    inPhase(Phase::Sched, [&] {
      sched::scheduleFunction(R.M, Opts.Scheduler, Opts.Balance);
    });
    if (Flag("schedule", [&] { return verify::verifySchedule(PreSched, R.M); }))
      return R;
  }
  if (ExactScope) {
    R.Exact = ExactScope->stats();
    ExactScope.reset();
  }
  if (Flag("module", [&] { return verify::verifyModule(R.M); }))
    return R;

  if (!Opts.StopBeforeRegAlloc) {
    ir::Module PreAlloc;
    if (Opts.VerifyPasses)
      PreAlloc = inPhase(Phase::Verify, [&] { return R.M; });
    R.RegAlloc = inPhase(Phase::RegAlloc, [&] {
      return regalloc::allocateRegisters(R.M, Opts.RegAlloc, Ref);
    });
    if (!R.RegAlloc.ok()) {
      R.Error = "regalloc: " + R.RegAlloc.Error;
      return R;
    }
    if (Flag("regalloc", [&] {
          return verify::verifyRegAlloc(PreAlloc, R.M,
                                        Opts.RegAlloc.AllocatablePerClass);
        }))
      return R;
  }

  if (std::string E = inPhase(Phase::Verify, [&] { return ir::verify(R.M); });
      !E.empty())
    R.Error = "verify: " + E;
  return R;
}

CompileResult driver::compileSource(const std::string &Text,
                                    const std::string &Name,
                                    const CompileOptions &Opts) {
  lang::ParseResult PR =
      inPhase(Phase::Parse, [&] { return lang::parseProgram(Text, Name); });
  if (!PR.ok()) {
    CompileResult R;
    R.Error = "parse: " + PR.Error;
    return R;
  }
  CompileResult R = compileProgram(PR.Prog, Opts);
  // Freeing the parsed AST is front-end work too.
  inPhase(Phase::Parse, [&] { PR.Prog = lang::Program(); });
  return R;
}
