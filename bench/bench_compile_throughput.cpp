//===- bench/bench_compile_throughput.cpp - Compile-throughput tracker ------===//
//
// Times the compile pipeline for every workload at unroll {1,4,8} with and
// without trace scheduling, in IR instructions compiled per second:
//
//  - warm: driver::compileProgram on a parsed program with the profile
//    cache filled, best of N (the headline, which the CI floors gate);
//  - cold from text: one driver::compileSource right after
//    clearProfileCache(), so it also pays parsing and profiling. It runs
//    under a PhaseRecorder (support/PhaseRecord.h): the per-phase breakdown
//    is the pipeline's own record, printed with the share of wall time it
//    covers, and its result gives the trace core's split
//    (CompileResult::Trace) and the cleanup counters (CompileResult::Cleanup);
//  - verified cold: the same cold compile with VerifyPasses on, whose
//    record gives the pass verifier's share of a verified compile
//    (verify_share: the verify phase over the compile's wall time).
//
// A thread-scaling sweep then compiles every (workload, config) job on 1, 2,
// 4, ... workers up to one per hardware thread (bench::threadSweep) and
// checks, by per-job module digests, that every thread count compiled
// byte-identical code.
//
// Emits BENCH_compile.json so the trajectory is tracked across PRs, and
// optionally gates against a checked-in baseline (exit 1 on a >25% drop).
//
// Usage:
//   bench_compile_throughput [--quick] [--json PATH] [--baseline PATH]
//
//   --quick       1 repetition per measurement (the CI mode).
//   --json PATH   where to write BENCH_compile.json (default: cwd).
//   --baseline    baseline JSON with "min_instrs_per_sec" per config tag
//                 and "max_verify_share"; exit 1 if any warm throughput
//                 falls below 75% of its entry or the verifier's share of
//                 the verified cold compiles exceeds the maximum.
//   Any other argument exits 2.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "driver/Artifacts.h"
#include "driver/Compiler.h"
#include "driver/ProfileCache.h"
#include "driver/Workloads.h"
#include "support/PhaseRecord.h"
#include "support/Serialize.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

namespace {

struct BenchConfig {
  int Unroll;
  bool Traces;
  std::string Tag; ///< CompileOptions::tag() of the configuration.
};

CompileOptions optionsFor(const BenchConfig &C) {
  CompileOptions O;
  O.Scheduler = sched::SchedulerKind::Balanced;
  O.UnrollFactor = C.Unroll;
  O.TraceScheduling = C.Traces;
  O.VerifyPasses = false; // the pipeline alone; verified() adds the verifier.
  return O;
}

/// \p O with the pass verifier on, for the verify_share measurement.
CompileOptions verified(CompileOptions O) {
  O.VerifyPasses = true;
  return O;
}

unsigned countInstrs(const ir::Module &M) {
  unsigned N = 0;
  for (const ir::BasicBlock &B : M.Fn.Blocks)
    N += static_cast<unsigned>(B.Instrs.size());
  return N;
}

/// Digest of the compiled module's encoding (driver::encode), which holds
/// every field its consumers can observe, so "byte-identical across thread
/// counts" is checked on substance, not on a summary statistic.
uint64_t moduleDigest(const ir::Module &M) {
  ByteWriter W;
  encode(W, M);
  return fnv1a(W.buffer());
}

/// Combines per-job digests in job order: equal result vectors give equal
/// combined digests regardless of which worker produced each entry.
uint64_t combineDigests(const std::vector<uint64_t> &Ds) {
  Fnv1a H;
  for (uint64_t D : Ds)
    H.word(D);
  return H.get();
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

/// One recorded compile from text, profile cache emptied first.
struct ColdCompile {
  uint64_t WallNs = 0;
  std::array<uint64_t, NumPhases> PhaseNs{};
  unsigned Instrs = 0;
  trace::TraceStats Trace;
  opt::CleanupStats Cleanup;

  uint64_t verifyNs() const {
    return PhaseNs[static_cast<unsigned>(Phase::Verify)];
  }
  /// The verify phase's share of the wall time (verify_share).
  double verifyShare() const {
    return ratio(static_cast<double>(verifyNs()), static_cast<double>(WallNs));
  }
};

ColdCompile coldCompile(const Workload &W, const CompileOptions &Opts) {
  clearProfileCache();
  PhaseRecorder Rec;
  uint64_t T0 = nowNs();
  CompileResult R = compileSource(W.Source, W.Name, Opts);
  ColdCompile C{nowNs() - T0, {}, countInstrs(R.M), R.Trace, R.Cleanup};
  if (!R.ok()) {
    std::fprintf(stderr, "FATAL: %s [%s]: %s\n", W.Name, Opts.tag().c_str(),
                 R.Error.c_str());
    std::exit(1);
  }
  for (unsigned I = 0; I != NumPhases; ++I)
    C.PhaseNs[I] = Rec.ns(static_cast<Phase>(I));
  return C;
}

/// `{"lang.parse": NS, ...}` over every phase.
std::string phasesJson(const ColdCompile &C) {
  std::string S = "{";
  for (unsigned I = 0; I != NumPhases; ++I)
    S += std::string(I ? ", \"" : "\"") + phaseName(static_cast<Phase>(I)) +
         "\": " + std::to_string(C.PhaseNs[I]);
  return S + "}";
}

struct WorkloadRow {
  std::string Name;
  uint64_t WarmNs = 0;
  ColdCompile Cold;
  ColdCompile Verified; ///< Cold with VerifyPasses on.
};

struct ConfigRow {
  BenchConfig Config;
  std::vector<WorkloadRow> Rows;

  /// \p Field summed over the workloads.
  template <typename FieldT> double total(FieldT Field) const {
    double S = 0;
    for (const WorkloadRow &R : Rows)
      S += static_cast<double>(Field(R));
    return S;
  }
  double instrsPerSec(bool Cold = false) const {
    return ratio(total([](auto &R) { return R.Cold.Instrs; }) * 1e9,
                 total([&](auto &R) {
                   return Cold ? R.Cold.WallNs : R.WarmNs;
                 }));
  }
  /// Summed time of \p P in the cold compiles.
  double phaseNs(Phase P) const {
    return total([&](auto &R) {
      return R.Cold.PhaseNs[static_cast<unsigned>(P)];
    });
  }
  /// The verify phase's share of the verified cold compiles' wall time.
  double verifyShare() const {
    return ratio(total([](auto &R) { return R.Verified.verifyNs(); }),
                 total([](auto &R) { return R.Verified.WallNs; }));
  }
  /// The share of the cold compiles' wall time that their phases cover.
  double coverage() const {
    double Phases = 0;
    for (unsigned I = 0; I != NumPhases; ++I)
      Phases += phaseNs(static_cast<Phase>(I));
    return ratio(Phases, total([](auto &R) { return R.Cold.WallNs; }));
  }
};

struct ScalePoint {
  unsigned Threads;
  uint64_t WallNs;
};

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_compile.json";
  std::string BaselinePath;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--baseline") && I + 1 != argc)
      BaselinePath = argv[++I];
    else {
      std::fprintf(stderr, "unknown argument or bad value: %s\n", argv[I]);
      return 2;
    }
  }

  const int Reps = Quick ? 1 : 3;
  const std::vector<BenchConfig> Configs = {
      {1, false, "BS"},          {1, true, "BS+TrS"},
      {4, false, "BS+LU4"},      {4, true, "BS+LU4+TrS"},
      {8, false, "BS+LU8"},      {8, true, "BS+LU8+TrS"},
  };

  std::printf("compile-throughput benchmark (%s mode, best of %d)\n",
              Quick ? "quick" : "full", Reps);

  // Untimed warmup sweep over every (config, workload) cell that the loop
  // below measures. One-time lazy costs — allocator arena growth, page
  // faults on first touch of the big scheduler tables — otherwise land in
  // whichever cell happens to run first; quick mode is best-of-1, so a
  // single cold compile there skews its row by an order of magnitude.
  for (const BenchConfig &C : Configs)
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      (void)compileProgram(P, optionsFor(C));
      (void)compileProgram(P, verified(optionsFor(C)));
    }

  std::vector<ConfigRow> Results;
  for (const BenchConfig &C : Configs) {
    ConfigRow Row{C, {}};
    const CompileOptions Opts = optionsFor(C);
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      WorkloadRow R;
      R.Name = W.Name;
      // The cold compile leaves the profile cache filled for the warm ones.
      R.Cold = coldCompile(W, Opts);
      R.Verified = coldCompile(W, verified(Opts));
      R.WarmNs = bestOf(Reps, [&] { (void)compileProgram(P, Opts); });
      Row.Rows.push_back(std::move(R));
    }
    std::string Phases;
    for (unsigned I = 0; I != NumPhases; ++I)
      if (double Ns = Row.phaseNs(static_cast<Phase>(I)))
        Phases += std::string("  ") + phaseName(static_cast<Phase>(I)) + " " +
                  fmtDouble(Ns / 1e6, 2);
    std::printf("  %-12s  %8.0f kinstr/s warm  %8.0f cold from text\n"
                "                cold phases (ms):%s\n"
                "                phases cover %.1f%% of cold wall time\n"
                "                verifier on: verify %.1f%% of cold wall "
                "time\n",
                C.Tag.c_str(), Row.instrsPerSec() / 1e3,
                Row.instrsPerSec(/*Cold=*/true) / 1e3, Phases.c_str(),
                100.0 * Row.coverage(), 100.0 * Row.verifyShare());
    if (C.Traces) {
      auto Ms = [&](uint64_t trace::TraceStats::*Field) {
        return Row.total([&](auto &R) { return R.Cold.Trace.*Field; }) / 1e6;
      };
      std::printf("                trace form %.2f ms  compact %.2f ms  "
                  "compensation %.2f ms\n",
                  Ms(&trace::TraceStats::FormNs),
                  Ms(&trace::TraceStats::CompactNs),
                  Ms(&trace::TraceStats::CompensationNs));
    }
    Results.push_back(std::move(Row));
  }

  // --- Thread-scaling sweep -------------------------------------------------
  // Wall time to compile every (workload, config) job on a pool of T workers
  // draining guided chunks. Each job's compiled module is digested by index,
  // so "the results are identical for any thread count" is asserted on the
  // full instruction streams, not assumed.
  std::vector<ScalePoint> Scaling;
  bool ScalingDeterministic = true;
  {
    struct Job {
      lang::Program P;
      CompileOptions Opts;
    };
    std::vector<Job> Jobs;
    for (const BenchConfig &C : Configs)
      for (const Workload &W : workloads())
        Jobs.push_back({parseWorkload(W), optionsFor(C)});
    // The cold compiles above emptied the profile cache; refill it untimed
    // so every point of this sweep sees the same, warm work.
    for (const Job &J : Jobs)
      (void)compileProgram(J.P, J.Opts);
    std::vector<uint64_t> Digests(Jobs.size());
    uint64_t BaseDigest = 0;
    for (unsigned T : threadSweep(Jobs.size())) {
      uint64_t T0 = nowNs();
      ThreadPool::parallelForChunked(T, Jobs.size(), [&](size_t I) {
        CompileResult CR = compileProgram(Jobs[I].P, Jobs[I].Opts);
        Digests[I] = moduleDigest(CR.M);
      });
      Scaling.push_back({T, nowNs() - T0});
      uint64_t D = combineDigests(Digests);
      if (T == 1)
        BaseDigest = D;
      else if (D != BaseDigest)
        ScalingDeterministic = false;
      std::printf("  threads=%u  wall %.1f ms (%zu compiles)%s\n", T,
                  static_cast<double>(Scaling.back().WallNs) / 1e6,
                  Jobs.size(),
                  T == 1 || D == BaseDigest ? "" : "  OUTPUT DIVERGED");
    }
  }

  // --- Summary --------------------------------------------------------------
  double VerifyNs = 0, VerifiedNs = 0;
  for (const ConfigRow &R : Results) {
    VerifyNs += R.total([](auto &W) { return W.Verified.verifyNs(); });
    VerifiedNs += R.total([](auto &W) { return W.Verified.WallNs; });
  }
  const double VerifyShare = ratio(VerifyNs, VerifiedNs);
  std::printf("summary: the verifier takes %.1f%% of verified cold compile "
              "time\n",
              100.0 * VerifyShare);
  const ConfigRow *Headline = nullptr;
  for (const ConfigRow &R : Results)
    if (R.Config.Tag == "BS+LU8+TrS")
      Headline = &R;
  if (Headline)
    std::printf("summary: BS+LU8+TrS %.0f kinstr/s warm, %.0f cold from "
                "text\n",
                Headline->instrsPerSec() / 1e3,
                Headline->instrsPerSec(/*Cold=*/true) / 1e3);

  // --- JSON -----------------------------------------------------------------
  {
    std::ostringstream J;
    J << benchJsonHead("bsched-compile-throughput-v6", Scaling.back().Threads);
    J << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
    J << "  \"configs\": [\n";
    for (size_t CI = 0; CI != Results.size(); ++CI) {
      const ConfigRow &R = Results[CI];
      J << "    {\"tag\": \"" << jsonEscape(R.Config.Tag) << "\", "
        << "\"unroll\": " << R.Config.Unroll << ", "
        << "\"traces\": " << (R.Config.Traces ? "true" : "false") << ",\n"
        << "     \"total_instrs\": "
        << fmtDouble(R.total([](auto &W) { return W.Cold.Instrs; }), 0)
        << ", \"total_compile_ns\": "
        << fmtDouble(R.total([](auto &W) { return W.WarmNs; }), 0) << ", "
        << "\"instrs_per_sec\": " << fmtDouble(R.instrsPerSec(), 1)
        << ",\n     \"cold_instrs_per_sec\": "
        << fmtDouble(R.instrsPerSec(/*Cold=*/true), 1)
        << ", \"phase_coverage\": " << fmtDouble(R.coverage(), 3)
        << ", \"verify_share\": " << fmtDouble(R.verifyShare(), 3)
        << ",\n     \"workloads\": [\n";
      for (size_t WI = 0; WI != R.Rows.size(); ++WI) {
        const WorkloadRow &W = R.Rows[WI];
        const trace::TraceStats &T = W.Cold.Trace;
        const opt::CleanupStats &CS = W.Cold.Cleanup;
        J << "      {\"name\": \"" << W.Name << "\", \"instrs\": "
          << W.Cold.Instrs
          << ", \"compile_ns\": " << W.WarmNs
          << ", \"cold_compile_ns\": " << W.Cold.WallNs
          << ", \"verified_cold_compile_ns\": " << W.Verified.WallNs
          << ", \"verify_share\": " << fmtDouble(W.Verified.verifyShare(), 3)
          << ",\n       \"phases\": " << phasesJson(W.Cold)
          << ",\n       \"trace\": {\"form_ns\": " << T.FormNs
          << ", \"compact_ns\": " << T.CompactNs
          << ", \"compensation_ns\": " << T.CompensationNs
          << ", \"weights_incremental_ns\": " << T.WeightsNs
          << "}, \"cleanup\": {\"rounds\": " << CS.Iterations
          << ", \"liveness_full_computes\": " << CS.LivenessFullComputes
          << ", \"liveness_incremental_updates\": "
          << CS.LivenessIncrementalUpdates
          << ", \"blocks_skipped\": " << CS.BlocksSkipped << "}}"
          << (WI + 1 == R.Rows.size() ? "\n" : ",\n");
      }
      J << "     ]}" << (CI + 1 == Results.size() ? "\n" : ",\n");
    }
    J << "  ],\n  \"thread_scaling\": [";
    for (size_t I = 0; I != Scaling.size(); ++I)
      J << (I ? ", " : "") << "{\"threads\": " << Scaling[I].Threads
        << ", \"wall_ns\": " << Scaling[I].WallNs << "}";
    J << "],\n";
    J << "  \"thread_scaling_deterministic\": "
      << (ScalingDeterministic ? "true" : "false") << ",\n";
    J << "  \"summary\": {\"headline\": \"BS+LU8+TrS\", "
      << "\"instrs_per_sec\": "
      << fmtDouble(Headline ? Headline->instrsPerSec() : 0.0, 1) << ", "
      << "\"cold_instrs_per_sec\": "
      << fmtDouble(Headline ? Headline->instrsPerSec(true) : 0.0, 1)
      << ", \"verify_share\": " << fmtDouble(VerifyShare, 3) << "}\n}\n";
    if (!writeBenchJson(JsonPath, J.str()))
      return 1;
  }

  // --- Baseline gate --------------------------------------------------------
  // Warm throughput per config tag, and the verifier's share of the verified
  // cold compiles against "max_verify_share".
  if (!BaselinePath.empty()) {
    bool Failed = false, ShareFailed = false;
    for (const auto &[Tag, Value] : readBaseline(BaselinePath)) {
      if (Tag == "max_verify_share") {
        ShareFailed = VerifyShare > Value;
        std::printf("gate: verify share %.3f (max %.3f) %s\n", VerifyShare,
                    Value, ShareFailed ? "REGRESSION" : "ok");
        continue;
      }
      const ConfigRow *Found = nullptr;
      for (const ConfigRow &R : Results)
        if (R.Config.Tag == Tag)
          Found = &R;
      if (!Found) {
        std::fprintf(stderr, "baseline tag %s not measured\n", Tag.c_str());
        Failed = true;
        continue;
      }
      double Ips = Found->instrsPerSec();
      double Floor = 0.75 * Value;
      std::printf("gate: %-12s %10.0f instr/s (baseline %.0f, floor %.0f) %s\n",
                  Tag.c_str(), Ips, Value, Floor,
                  Ips >= Floor ? "ok" : "REGRESSION");
      if (Ips < Floor)
        Failed = true;
    }
    if (Failed)
      std::fprintf(stderr,
                   "FAIL: compile throughput regressed >25%% vs baseline\n");
    if (ShareFailed)
      std::fprintf(stderr, "FAIL: the verifier's share of a verified compile "
                           "exceeds max_verify_share\n");
    if (Failed || ShareFailed)
      return 1;
  }

  // --- Determinism gate -----------------------------------------------------
  // Divergent output across thread counts is a correctness bug, not a
  // performance number; always fatal.
  if (!ScalingDeterministic) {
    std::fprintf(stderr, "FAIL: compiled modules differ across thread "
                         "counts\n");
    return 1;
  }
  return 0;
}
