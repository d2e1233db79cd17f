//===- perfbench/Compose.cpp - A job composed layer by layer --------------===//
//
// Mirrors driver::runWorkload and driver::compileProgram call for call,
// including their error strings, so the drift guard can demand identical
// bytes. Keep it in step with src/driver/Experiment.cpp and Compiler.cpp.
// The byte guard catches a composition whose output differs; a driver that
// reaches the same bytes another way (a memo, a shortcut) is caught only by
// main.cpp's timing guard, and only on job phases long enough to compare.
//
//===----------------------------------------------------------------------===//

#include "Compose.h"

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "driver/ProfileCache.h"
#include "ir/Interp.h"
#include "lang/Eval.h"
#include "lang/Parser.h"
#include "sched/Exact.h"
#include "trace/EstimateProfile.h"

#include <optional>

using namespace bsched;
using namespace bsched::driver;
using namespace perfbench;

namespace {

uint64_t irInstrs(const ir::Module &M) {
  uint64_t N = 0;
  for (const ir::BasicBlock &B : M.Fn.Blocks)
    N += B.Instrs.size();
  return N;
}

CompileResult composeCompile(const lang::Program &Source,
                             const CompileOptions &Opts, JobTrace &T,
                             int Parent) {
  CompileResult R;
  lang::Program P;
  {
    SpanScope S(T, Layer::Parse, Parent);
    P = Source;
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      R.Error = "check: " + E;
      return R;
    }
  }

  if (Opts.LocalityAnalysis) {
    SpanScope S(T, Layer::Locality, Parent);
    locality::LocalityOptions LOpts;
    LOpts.UnrollFactor = Opts.UnrollFactor > 1 ? Opts.UnrollFactor : 0;
    R.Locality = locality::applyLocality(P, LOpts);
  }
  if (Opts.UnrollFactor > 1) {
    SpanScope S(T, Layer::Unroll, Parent);
    R.Unroll = xform::unrollLoops(P, Opts.UnrollFactor);
  }
  if (Opts.LocalityAnalysis || Opts.UnrollFactor > 1) {
    SpanScope S(T, Layer::Parse, Parent);
    if (std::string E = lang::checkProgram(P); !E.empty()) {
      R.Error = "recheck after transforms: " + E;
      return R;
    }
  }

  {
    SpanScope S(T, Layer::Lower, Parent);
    lower::LowerResult LR = lower::lowerProgram(P, Opts.Lower);
    if (!LR.ok()) {
      R.Error = "lower: " + LR.Error;
      return R;
    }
    R.M = std::move(LR.M);
  }
  T.LowerInstrs += irInstrs(R.M);

  bool Ref = Opts.Balance.Impl == sched::SchedImpl::Reference;

  if (Opts.CleanupIR) {
    {
      SpanScope S(T, Layer::Cleanup, Parent);
      R.Cleanup = opt::cleanupModule(R.M, Ref);
    }
    SpanScope S(T, Layer::Verify, Parent);
    if (std::string E = ir::verify(R.M); !E.empty()) {
      R.Error = "cleanup broke the IR: " + E;
      return R;
    }
  }
  T.OptInstrs += irInstrs(R.M);

  auto Flag = [&R](verify::VerifyResult V, const char *Pass) {
    if (V.ok())
      return false;
    R.Error = std::string(Pass) + " verifier: " + toString(V.Diags.front()) +
              (V.Diags.size() > 1
                   ? " (+" + std::to_string(V.Diags.size() - 1) + " more)"
                   : "");
    R.VerifyDiags = std::move(V.Diags);
    return true;
  };

  std::optional<sched::exact::ExactStatsScope> ExactScope;
  if (Opts.Balance.Impl == sched::SchedImpl::Exact)
    ExactScope.emplace();
  ir::Module PreSched;
  if (Opts.VerifyPasses) {
    SpanScope S(T, Layer::Verify, Parent);
    PreSched = R.M;
  }
  if (Opts.TraceScheduling) {
    ir::InterpResult Profile;
    {
      SpanScope S(T, Layer::Profile, Parent);
      Profile = Opts.UseEstimatedProfile
                    ? (Ref ? trace::estimateProfile(R.M.Fn)
                           : estimatedProfileModule(R.M))
                    : (Ref ? ir::interpretByInstr(R.M) : profileModule(R.M));
    }
    if (!Profile.Finished) {
      R.Error = Opts.UseEstimatedProfile
                    ? "profile estimate: some path never returns"
                    : "profiling run exceeded the instruction budget";
      return R;
    }
    {
      SpanScope S(T, Layer::TraceSched, Parent);
      R.Trace = trace::traceScheduleFunction(
          R.M, Profile, Opts.Scheduler, Opts.Balance,
          Ref ? trace::TraceImpl::Reference : Opts.TraceImpl);
    }
    if (Opts.VerifyPasses) {
      SpanScope S(T, Layer::Verify, Parent);
      if (Flag(verify::verifyTraceSchedule(PreSched, R.M, R.Trace.Formed),
               "trace-schedule"))
        return R;
    }
  } else {
    {
      SpanScope S(T, Layer::Sched, Parent);
      sched::scheduleFunction(R.M, Opts.Scheduler, Opts.Balance);
    }
    if (Opts.VerifyPasses) {
      SpanScope S(T, Layer::Verify, Parent);
      if (Flag(verify::verifySchedule(PreSched, R.M), "schedule"))
        return R;
    }
  }
  if (ExactScope) {
    R.Exact = ExactScope->stats();
    ExactScope.reset();
  }
  if (Opts.VerifyPasses) {
    SpanScope S(T, Layer::Verify, Parent);
    if (Flag(verify::verifyModule(R.M), "module"))
      return R;
  }

  if (!Opts.StopBeforeRegAlloc) {
    ir::Module PreAlloc;
    if (Opts.VerifyPasses) {
      SpanScope S(T, Layer::Verify, Parent);
      PreAlloc = R.M;
    }
    {
      SpanScope S(T, Layer::RegAlloc, Parent);
      R.RegAlloc = regalloc::allocateRegisters(R.M, Opts.RegAlloc, Ref);
    }
    if (!R.RegAlloc.ok()) {
      R.Error = "regalloc: " + R.RegAlloc.Error;
      return R;
    }
    T.Spills += static_cast<uint64_t>(R.RegAlloc.SpillStores);
    if (Opts.VerifyPasses) {
      SpanScope S(T, Layer::Verify, Parent);
      if (Flag(verify::verifyRegAlloc(PreAlloc, R.M,
                                      Opts.RegAlloc.AllocatablePerClass),
               "regalloc"))
        return R;
    }
  }

  SpanScope S(T, Layer::Verify, Parent);
  if (std::string E = ir::verify(R.M); !E.empty())
    R.Error = "verify: " + E;
  return R;
}

} // namespace

RunResult perfbench::composeJob(const Workload &W, const CompileOptions &Opts,
                                const sim::MachineConfig &Machine,
                                JobTrace &T) {
  SpanScope Job(T, Layer::Job, -1);
  RunResult R;

  lang::Program P;
  {
    SpanScope S(T, Layer::Parse, Job.index());
    P = parseWorkload(W);
  }
  lang::EvalResult Ref;
  {
    SpanScope S(T, Layer::Eval, Job.index());
    Ref = lang::evalProgram(P);
    ++T.EvalCalls;
  }
  if (!Ref.ok()) {
    R.Error = std::string(W.Name) + ": oracle: " + Ref.Error;
    return R;
  }

  CompileResult C;
  {
    SpanScope S(T, Layer::Compile, Job.index());
    C = composeCompile(P, Opts, T, S.index());
  }
  if (!C.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + C.Error;
    return R;
  }
  R.Unroll = C.Unroll;
  R.Locality = C.Locality;
  R.Trace = C.Trace;
  R.RegAlloc = C.RegAlloc;

  {
    SpanScope S(T, Layer::Sim, Job.index());
    R.Sim = sim::simulate(C.M, Machine);
  }
  T.SimInstrs += R.Sim.Counts.total();
  if (!R.Sim.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + R.Sim.Error;
    return R;
  }
  if (!R.Sim.Finished) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: simulation exceeded the cycle budget";
    return R;
  }
  if (R.Sim.Checksum != Ref.Checksum) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: MISCOMPILE - simulated checksum differs from the oracle";
    return R;
  }
  return R;
}

bool perfbench::composeStoredJob(const std::string &Key, RunResult &Out,
                                 JobTrace &T) {
  SpanScope Job(T, Layer::Job, -1);
  std::string Blob;
  {
    SpanScope S(T, Layer::StoreLoad, Job.index());
    if (!loadArtifact(Key, Blob))
      return false;
  }
  SpanScope S(T, Layer::Decode, Job.index());
  ByteReader Rd(Blob);
  return decode(Rd, Out) && Rd.atEnd();
}

std::string perfbench::normalizedBytes(const RunResult &R) {
  RunResult N = R;
  N.Trace.FormNs = N.Trace.CompactNs = N.Trace.WeightsNs =
      N.Trace.CompensationNs = 0;
  ByteWriter W;
  encode(W, N);
  return W.take();
}
