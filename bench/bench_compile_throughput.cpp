//===- bench/bench_compile_throughput.cpp - Compile-throughput tracker ------===//
//
// Times the compile pipeline for every workload at unroll {1,4,8} with and
// without trace scheduling, against both the optimized passes and the
// preserved reference implementation (sched::SchedImpl::Reference), in IR
// instructions compiled per second:
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
// Emits BENCH_compile.json so the trajectory is tracked across PRs, and
// optionally gates against a checked-in baseline (exit 1 on a >25% drop).
//
// Also measures the batched compile service under sustained multi-tenant
// load: a deterministic request mix of cache-hit traffic (served from the
// sharded runCached result cache), cache-miss traffic (full cold compiles),
// and profile-cold traffic (trace-scheduled compiles whose profiling run
// misses the sharded profile cache), replayed at 1/2/4/8 pool workers with
// guided chunk dispatch. Reports compiles/s, thread-scaling efficiency, and
// the shard-cache hit/miss/in-flight-wait counters, and cross-checks that
// every request's result is byte-identical across thread counts.
//
// Usage:
//   bench_compile_throughput [--quick] [--json PATH] [--baseline PATH]
//                            [--max-threads N] [--min-scale F]
//
//   --quick       1 repetition per measurement, reference timings only
//                 for the unroll-8 configurations, and a smaller sustained
//                 request mix (the CI mode).
//   --json PATH   where to write BENCH_compile.json (default: cwd).
//   --baseline    baseline JSON with "min_instrs_per_sec" per config tag
//                 and "max_verify_share"; exit 1 if any warm throughput
//                 falls below 75% of its entry or the verifier's share of
//                 the verified cold compiles exceeds the maximum.
//   --max-threads cap for the thread-scaling sweeps (default 8).
//   --min-scale F thread-scaling regression gate: exit 1 unless sustained
//                 throughput at --max-threads workers is at least F x the
//                 1-worker throughput (or if only one thread count ran).
//                 F is the committed floor for an 8-hardware-thread
//                 machine and is derated automatically when fewer hardware
//                 threads are available (a 1-core runner cannot scale,
//                 only avoid regressing).
//   Both numbers must be positive; any other value exits 2.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "driver/Artifacts.h"
#include "driver/Compiler.h"
#include "driver/Experiment.h"
#include "driver/ProfileCache.h"
#include "driver/Workloads.h"
#include "support/PhaseRecord.h"
#include "support/RNG.h"
#include "support/Serialize.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

namespace {

struct BenchConfig {
  int Unroll;
  bool Traces;
  std::string Tag; ///< CompileOptions::tag() of the fast variant.
};

CompileOptions optionsFor(const BenchConfig &C, sched::SchedImpl Impl) {
  CompileOptions O;
  O.Scheduler = sched::SchedulerKind::Balanced;
  O.UnrollFactor = C.Unroll;
  O.TraceScheduling = C.Traces;
  O.VerifyPasses = false; // the pipeline alone; verified() adds the verifier.
  O.Balance.Impl = Impl;
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

/// Combines per-request digests in request order: equal result vectors give
/// equal combined digests regardless of which worker produced each entry.
uint64_t combineDigests(const std::vector<uint64_t> &Ds) {
  Fnv1a H;
  for (uint64_t D : Ds)
    H.word(D);
  return H.get();
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

/// \p R with \p Digits decimals and \p Unit, or \p Absent when it is 0: a
/// ratio of 0 means the reference was not timed in this mode, and a fake
/// 0.000 would read as a 1000x regression.
std::string ratioOr(double R, int Digits, const char *Absent,
                    const char *Unit = "") {
  return R == 0.0 ? Absent : fmtDouble(R, Digits) + Unit;
}

/// One recorded compile from text, profile cache emptied first.
struct ColdCompile {
  uint64_t WallNs = 0; ///< 0 when not measured.
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
  uint64_t FastNs = 0, RefNs = 0; ///< warm; RefNs 0 when not measured.
  ColdCompile Cold[2];            ///< [0] fast, [1] reference (if RefNs).
  ColdCompile Verified;           ///< Cold[0] with VerifyPasses on.
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
    return ratio(total([](auto &R) { return R.Cold[0].Instrs; }) * 1e9,
                 total([&](auto &R) {
                   return Cold ? R.Cold[0].WallNs : R.FastNs;
                 }));
  }
  double speedup() const {
    return ratio(total([](auto &R) { return R.RefNs; }),
                 total([](auto &R) { return R.FastNs; }));
  }
  /// Summed time of \p P in the fast (or reference) cold compiles.
  double phaseNs(Phase P, bool Ref) const {
    return total([&](auto &R) {
      return R.Cold[Ref].PhaseNs[static_cast<unsigned>(P)];
    });
  }
  /// The verify phase's share of the verified cold compiles' wall time.
  double verifyShare() const {
    return ratio(total([](auto &R) { return R.Verified.verifyNs(); }),
                 total([](auto &R) { return R.Verified.WallNs; }));
  }
  /// The share of the cold compiles' wall time that their phases cover.
  double coverage(bool Ref) const {
    double Phases = 0;
    for (unsigned I = 0; I != NumPhases; ++I)
      Phases += phaseNs(static_cast<Phase>(I), Ref);
    return ratio(Phases, total([&](auto &R) { return R.Cold[Ref].WallNs; }));
  }
};

struct ScalePoint {
  unsigned Threads;
  uint64_t WallNs;
};

//===----------------------------------------------------------------------===//
// Sustained compile-service throughput
//===----------------------------------------------------------------------===//

/// One request of the synthetic multi-tenant mix.
struct Request {
  enum Class { Hit, Miss, ProfileCold } Kind;
  size_t WIdx;                  ///< index into workloads().
  driver::CompileOptions Opts;
};

struct SustainedPoint {
  unsigned Threads = 0;
  uint64_t WallNs = 0;
  double CompilesPerSec = 0.0;
  double ScaleVs1T = 0.0;
};

struct SustainedResult {
  size_t Requests = 0, HitReqs = 0, MissReqs = 0, ColdReqs = 0;
  std::vector<SustainedPoint> Points;
  bool Deterministic = true;     ///< per-request digests equal at every T.
  bool RunAllIdentical = true;   ///< runAll(1) and runAll(max) return the
                                 ///< same (pointer-identical) results.
  uint64_t Digest = 0;           ///< combined digest of the 1-thread replay.
  driver::ResultCacheStats ResultCache;   ///< counters after the replays.
  driver::ProfileCacheStats ProfileCache; ///< counters of the last replay.
};

/// Replays a deterministic request mix against the compile service at each
/// thread count and cross-checks that every request's observable result is
/// identical whatever the worker count. Traffic classes:
///
///  - Hit: repeated (workload, config) keys served from the sharded
///    runCached result cache (pre-warmed through runAll before timing, so
///    the timed path is pure lookup — the steady-state shape of repeat
///    tenant traffic).
///  - Miss: full cold compiles (per-request pressure-threshold tenants;
///    nothing at the service layer can memoize them).
///  - ProfileCold: trace-scheduled compiles whose profiling interpretation
///    goes through the sharded, in-flight-deduplicated profile cache; the
///    cache is cleared before every replay so each thread count sees the
///    identical cold/warm pattern.
SustainedResult runSustained(bool Quick, unsigned MaxThreads) {
  const auto &Ws = driver::workloads();
  std::vector<lang::Program> Programs;
  Programs.reserve(Ws.size());
  for (const Workload &W : Ws)
    Programs.push_back(parseWorkload(W));

  // The request mix: 60% hit / 25% miss / 15% profile-cold, drawn from a
  // fixed-seed stream so every run (and every thread count) replays the
  // same trace.
  const size_t NumRequests = Quick ? 800 : 4000;
  const int Unrolls[4] = {1, 2, 4, 8};
  std::vector<Request> Reqs;
  Reqs.reserve(NumRequests);
  SustainedResult Out;
  RNG Rng(0xc041711eull);
  for (size_t I = 0; I != NumRequests; ++I) {
    Request Q;
    Q.WIdx = Rng.nextBelow(Ws.size());
    double Roll = Rng.nextDouble();
    if (Roll < 0.60) {
      Q.Kind = Request::Hit;
      Q.Opts = bench::balanced(Rng.nextBool(0.5) ? 4 : 1);
      ++Out.HitReqs;
    } else if (Roll < 0.85) {
      Q.Kind = Request::Miss;
      Q.Opts = bench::balanced(1);
      // Distinct per-tenant scheduling parameter: every miss request is a
      // genuinely different compile, so no layer can serve it from cache.
      Q.Opts.Balance.PressureThreshold =
          20 + static_cast<int>(Rng.nextBelow(29));
      ++Out.MissReqs;
    } else {
      Q.Kind = Request::ProfileCold;
      Q.Opts = bench::balanced(Unrolls[Rng.nextBelow(4)], /*TrS=*/true);
      ++Out.ColdReqs;
    }
    Reqs.push_back(std::move(Q));
  }
  Out.Requests = NumRequests;

  // Pre-warm the hit working set (and keep the job list: the same grid
  // re-runs through runAll at MaxThreads for the pointer-identity check).
  std::vector<driver::ExperimentJob> HitJobs;
  for (const Workload &W : Ws)
    for (int U : {1, 4})
      HitJobs.push_back({&W, bench::balanced(U), {}});
  std::vector<const driver::RunResult *> Warm = driver::runAll(HitJobs, 1);
  for (const driver::RunResult *R : Warm)
    if (!R->ok()) {
      std::fprintf(stderr, "FATAL: sustained pre-warm: %s\n",
                   R->Error.c_str());
      std::exit(1);
    }

  auto Exec = [&](const Request &Q) -> uint64_t {
    if (Q.Kind == Request::Hit) {
      const driver::RunResult &R = driver::runCached(Ws[Q.WIdx], Q.Opts);
      Fnv1a H;
      H.word(R.Sim.Cycles);
      H.word(R.Sim.Checksum);
      return H.get();
    }
    driver::CompileResult CR = driver::compileProgram(Programs[Q.WIdx], Q.Opts);
    if (!CR.ok()) {
      std::fprintf(stderr, "FATAL: sustained %s: %s\n", Ws[Q.WIdx].Name,
                   CR.Error.c_str());
      std::exit(1);
    }
    return moduleDigest(CR.M);
  };

  std::vector<uint64_t> Digests(NumRequests);
  uint64_t BaseDigest = 0;
  for (unsigned T = 1; T <= MaxThreads; T *= 2) {
    // Identical cold/warm profile pattern for every replay.
    driver::clearProfileCache();
    uint64_t T0 = nowNs();
    ThreadPool::parallelForChunked(
        T, NumRequests, [&](size_t I) { Digests[I] = Exec(Reqs[I]); });
    uint64_t Wall = nowNs() - T0;
    uint64_t D = combineDigests(Digests);
    if (T == 1) {
      BaseDigest = D;
      Out.Digest = D;
    } else if (D != BaseDigest) {
      Out.Deterministic = false;
    }
    SustainedPoint P;
    P.Threads = T;
    P.WallNs = Wall;
    P.CompilesPerSec = static_cast<double>(NumRequests) * 1e9 /
                       static_cast<double>(Wall);
    P.ScaleVs1T = Out.Points.empty()
                      ? 1.0
                      : static_cast<double>(Out.Points.front().WallNs) /
                            static_cast<double>(Wall);
    Out.Points.push_back(P);
    std::printf("  sustained threads=%u  wall %7.1f ms  %8.0f compiles/s"
                "  scale %.2fx\n",
                T, static_cast<double>(Wall) / 1e6, P.CompilesPerSec,
                P.ScaleVs1T);
  }

  // runAll determinism: the MaxThreads pass must hand back the very same
  // memoized results (stable pointers) the 1-thread pre-warm produced.
  std::vector<const driver::RunResult *> Again =
      driver::runAll(HitJobs, MaxThreads);
  for (size_t I = 0; I != Warm.size(); ++I)
    if (Warm[I] != Again[I])
      Out.RunAllIdentical = false;

  Out.ResultCache = driver::resultCacheStats();
  Out.ProfileCache = driver::profileCacheStats();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Quick = false;
  std::string JsonPath = "BENCH_compile.json";
  std::string BaselinePath;
  unsigned MaxThreads = 8;
  double MinScale = 0.0; // 0 = gate off.
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--quick"))
      Quick = true;
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--baseline") && I + 1 != argc)
      BaselinePath = argv[++I];
    else if (!std::strcmp(argv[I], "--max-threads") && I + 1 != argc &&
             parsePositive(argv[I + 1], MaxThreads))
      ++I;
    else if (!std::strcmp(argv[I], "--min-scale") && I + 1 != argc &&
             parsePositive(argv[I + 1], MinScale))
      ++I;
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

  // Untimed warmup sweep over every (config, workload, impl) cell that the
  // loop below measures. One-time lazy costs — allocator arena growth, page
  // faults on first touch of the big scheduler tables — otherwise land in
  // whichever cell happens to run first; quick mode is best-of-1, so a
  // single cold compile there skews its row by an order of magnitude.
  for (const BenchConfig &C : Configs) {
    bool TimeRef = !Quick || C.Unroll == 8;
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      (void)compileProgram(P, optionsFor(C, sched::SchedImpl::Fast));
      (void)compileProgram(P, verified(optionsFor(C, sched::SchedImpl::Fast)));
      if (TimeRef)
        (void)compileProgram(P, optionsFor(C, sched::SchedImpl::Reference));
    }
  }

  std::vector<ConfigRow> Results;
  for (const BenchConfig &C : Configs) {
    ConfigRow Row{C, {}};
    // Reference timings are the expensive part; in quick mode measure them
    // only where the headline speedup is reported (unroll 8).
    bool TimeRef = !Quick || C.Unroll == 8;
    for (const Workload &W : workloads()) {
      lang::Program P = parseWorkload(W);
      WorkloadRow R;
      R.Name = W.Name;
      // The cold compile leaves the profile cache filled for the warm ones.
      CompileOptions Fast = optionsFor(C, sched::SchedImpl::Fast);
      R.Cold[0] = coldCompile(W, Fast);
      R.Verified = coldCompile(W, verified(Fast));
      R.FastNs = bestOf(Reps, [&] { (void)compileProgram(P, Fast); });
      if (TimeRef) {
        CompileOptions Ref = optionsFor(C, sched::SchedImpl::Reference);
        R.RefNs = bestOf(std::max(1, Reps - 1),
                         [&] { (void)compileProgram(P, Ref); });
        R.Cold[1] = coldCompile(W, Ref);
      }
      Row.Rows.push_back(std::move(R));
    }
    std::string Phases;
    for (unsigned I = 0; I != NumPhases; ++I)
      if (double Ns = Row.phaseNs(static_cast<Phase>(I), false))
        Phases += std::string("  ") + phaseName(static_cast<Phase>(I)) + " " +
                  fmtDouble(Ns / 1e6, 2);
    std::printf("  %-12s  %8.0f kinstr/s warm  %8.0f cold from text  "
                "end-to-end speedup %s\n"
                "                cold phases (ms):%s\n"
                "                phases cover %.1f%% of cold wall time "
                "(reference %s)\n"
                "                verifier on: verify %.1f%% of cold wall "
                "time\n",
                C.Tag.c_str(), Row.instrsPerSec() / 1e3,
                Row.instrsPerSec(/*Cold=*/true) / 1e3,
                ratioOr(Row.speedup(), 2, "n/a", "x").c_str(), Phases.c_str(),
                100.0 * Row.coverage(false),
                ratioOr(100.0 * Row.coverage(true), 1, "n/a", "%").c_str(),
                100.0 * Row.verifyShare());
    if (C.Traces) {
      auto Ms = [&](uint64_t trace::TraceStats::*Field) {
        return Row.total([&](auto &R) { return R.Cold[0].Trace.*Field; }) / 1e6;
      };
      std::printf("                trace form %.2f ms  compact %.2f ms  "
                  "compensation %.2f ms  (trace core %s)\n",
                  Ms(&trace::TraceStats::FormNs),
                  Ms(&trace::TraceStats::CompactNs),
                  Ms(&trace::TraceStats::CompensationNs),
                  ratioOr(ratio(Row.phaseNs(Phase::TraceSched, true),
                                Row.phaseNs(Phase::TraceSched, false)),
                          2, "n/a", "x")
                      .c_str());
    }
    Results.push_back(std::move(Row));
  }

  // --- Thread-scaling sweep -------------------------------------------------
  // Wall time to compile every (workload, config) job, fast implementation,
  // on a pool of T workers draining guided chunks (one pool task per
  // worker, not per compile). Each job's compiled module is digested by
  // index, so "the results are identical for any thread count" is asserted
  // on the full instruction streams, not assumed.
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
        Jobs.push_back({parseWorkload(W), optionsFor(C, sched::SchedImpl::Fast)});
    // The cold compiles above emptied the profile cache; refill it untimed
    // so every point of this sweep sees the same, warm work. Cold-profile
    // traffic is measured separately by the sustained mode.
    for (const Job &J : Jobs)
      (void)compileProgram(J.P, J.Opts);
    std::vector<uint64_t> Digests(Jobs.size());
    uint64_t BaseDigest = 0;
    for (unsigned T = 1; T <= MaxThreads; T *= 2) {
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

  // --- Sustained compile-service throughput ---------------------------------
  std::printf("sustained compile service (%s mix)\n",
              Quick ? "quick" : "full");
  SustainedResult Sustained = runSustained(Quick, MaxThreads);
  std::printf("  requests %zu (hit %zu, miss %zu, profile-cold %zu)  "
              "deterministic %s  runAll identical %s\n",
              Sustained.Requests, Sustained.HitReqs, Sustained.MissReqs,
              Sustained.ColdReqs, Sustained.Deterministic ? "yes" : "NO",
              Sustained.RunAllIdentical ? "yes" : "NO");
  std::printf("  result cache: %llu hits, %llu misses, %llu in-flight waits\n",
              static_cast<unsigned long long>(Sustained.ResultCache.Hits),
              static_cast<unsigned long long>(Sustained.ResultCache.Misses),
              static_cast<unsigned long long>(
                  Sustained.ResultCache.InFlightWaits));
  std::printf("  profile cache: %llu hits, %llu misses, %llu in-flight waits\n",
              static_cast<unsigned long long>(Sustained.ProfileCache.Hits),
              static_cast<unsigned long long>(Sustained.ProfileCache.Misses),
              static_cast<unsigned long long>(
                  Sustained.ProfileCache.InFlightWaits));

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
  // The scheduler-phase speedup compares the reference and fast records'
  // scheduling phases (trace.schedule and sched.schedule) at the headline.
  const ConfigRow *Headline = nullptr;
  for (const ConfigRow &R : Results)
    if (R.Config.Tag == "BS+LU8+TrS")
      Headline = &R;
  double SchedSpeedup = 0.0;
  if (Headline) {
    auto SchedNs = [&](bool Ref) {
      return Headline->phaseNs(Phase::TraceSched, Ref) +
             Headline->phaseNs(Phase::Sched, Ref);
    };
    SchedSpeedup = ratio(SchedNs(true), SchedNs(false));
    std::printf("summary: BS+LU8+TrS %.0f kinstr/s warm, %.0f cold from "
                "text, end-to-end %s, scheduler phases %s\n",
                Headline->instrsPerSec() / 1e3,
                Headline->instrsPerSec(/*Cold=*/true) / 1e3,
                ratioOr(Headline->speedup(), 2, "n/a", "x").c_str(),
                ratioOr(SchedSpeedup, 2, "n/a", "x").c_str());
  }

  // --- JSON -----------------------------------------------------------------
  {
    std::ostringstream J;
    J << benchJsonHead("bsched-compile-throughput-v5", MaxThreads);
    J << "  \"quick\": " << (Quick ? "true" : "false") << ",\n";
    J << "  \"configs\": [\n";
    for (size_t CI = 0; CI != Results.size(); ++CI) {
      const ConfigRow &R = Results[CI];
      J << "    {\"tag\": \"" << jsonEscape(R.Config.Tag) << "\", "
        << "\"unroll\": " << R.Config.Unroll << ", "
        << "\"traces\": " << (R.Config.Traces ? "true" : "false") << ",\n"
        << "     \"total_instrs\": "
        << fmtDouble(R.total([](auto &W) { return W.Cold[0].Instrs; }), 0)
        << ", \"total_compile_ns\": "
        << fmtDouble(R.total([](auto &W) { return W.FastNs; }), 0) << ", "
        << "\"instrs_per_sec\": " << fmtDouble(R.instrsPerSec(), 1) << ", "
        << "\"end_to_end_speedup\": " << ratioOr(R.speedup(), 3, "null")
        << ",\n     \"cold_instrs_per_sec\": "
        << fmtDouble(R.instrsPerSec(/*Cold=*/true), 1)
        << ", \"phase_coverage\": " << ratioOr(R.coverage(false), 3, "null")
        << ", \"ref_phase_coverage\": "
        << ratioOr(R.coverage(true), 3, "null")
        << ", \"verify_share\": " << fmtDouble(R.verifyShare(), 3)
        << ",\n     \"workloads\": [\n";
      for (size_t WI = 0; WI != R.Rows.size(); ++WI) {
        const WorkloadRow &W = R.Rows[WI];
        const trace::TraceStats &T = W.Cold[0].Trace;
        const opt::CleanupStats &CS = W.Cold[0].Cleanup;
        J << "      {\"name\": \"" << W.Name << "\", \"instrs\": "
          << W.Cold[0].Instrs
          << ", \"compile_ns\": " << W.FastNs
          << ", \"ref_compile_ns\": " << W.RefNs
          << ", \"cold_compile_ns\": " << W.Cold[0].WallNs
          << ", \"ref_cold_compile_ns\": " << W.Cold[1].WallNs
          << ", \"verified_cold_compile_ns\": " << W.Verified.WallNs
          << ", \"verify_share\": " << fmtDouble(W.Verified.verifyShare(), 3)
          << ",\n       \"phases\": " << phasesJson(W.Cold[0])
          << ",\n       \"ref_phases\": " << phasesJson(W.Cold[1])
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
    J << "  \"sustained\": {\"requests\": " << Sustained.Requests
      << ", \"mix\": {\"hit\": " << Sustained.HitReqs
      << ", \"miss\": " << Sustained.MissReqs
      << ", \"profile_cold\": " << Sustained.ColdReqs << "},\n"
      << "    \"deterministic\": "
      << (Sustained.Deterministic ? "true" : "false")
      << ", \"runall_identical_1_vs_max\": "
      << (Sustained.RunAllIdentical ? "true" : "false") << ",\n"
      << "    \"points\": [";
    for (size_t I = 0; I != Sustained.Points.size(); ++I) {
      const SustainedPoint &P = Sustained.Points[I];
      J << (I ? ", " : "") << "{\"threads\": " << P.Threads
        << ", \"wall_ns\": " << P.WallNs << ", \"compiles_per_sec\": "
        << fmtDouble(P.CompilesPerSec, 1) << ", \"scale_vs_1t\": "
        << fmtDouble(P.ScaleVs1T, 3) << "}";
    }
    J << "]},\n";
    J << "  \"result_cache\": {\"hits\": " << Sustained.ResultCache.Hits
      << ", \"misses\": " << Sustained.ResultCache.Misses
      << ", \"inflight_waits\": " << Sustained.ResultCache.InFlightWaits
      << "},\n";
    J << "  \"profile_cache\": {\"hits\": " << Sustained.ProfileCache.Hits
      << ", \"misses\": " << Sustained.ProfileCache.Misses
      << ", \"inflight_waits\": " << Sustained.ProfileCache.InFlightWaits
      << "},\n";
    J << "  \"summary\": {\"headline\": \"BS+LU8+TrS\", "
      << "\"instrs_per_sec\": "
      << fmtDouble(Headline ? Headline->instrsPerSec() : 0.0, 1) << ", "
      << "\"cold_instrs_per_sec\": "
      << fmtDouble(Headline ? Headline->instrsPerSec(true) : 0.0, 1) << ", "
      << "\"end_to_end_speedup\": "
      << ratioOr(Headline ? Headline->speedup() : 0.0, 3, "null") << ", "
      << "\"scheduler_phase_speedup\": " << ratioOr(SchedSpeedup, 3, "null")
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
  if (!ScalingDeterministic || !Sustained.Deterministic ||
      !Sustained.RunAllIdentical) {
    std::fprintf(stderr, "FAIL: results differ across thread counts "
                         "(scaling %d, sustained %d, runAll %d)\n",
                 ScalingDeterministic, Sustained.Deterministic,
                 Sustained.RunAllIdentical);
    return 1;
  }

  // --- Thread-scaling gate --------------------------------------------------
  // The committed floor (--min-scale, set in CI) is calibrated for an
  // 8-hardware-thread machine; with fewer cores perfect scaling is capped
  // at the core count, so derate the floor to 0.6x the available cores —
  // and on a single-core machine just require that extra workers do not
  // regress the 1-worker wall time by more than ~30%. A sweep of one
  // thread count has nothing to compare, so the gate fails rather than
  // pass unchecked.
  if (MinScale > 0.0) {
    if (Sustained.Points.size() < 2) {
      std::fprintf(stderr, "FAIL: --min-scale needs at least two thread "
                           "counts (--max-threads 2 or more)\n");
      return 1;
    }
    unsigned HW = std::max(1u, std::thread::hardware_concurrency());
    double Floor = MinScale;
    if (HW < 8)
      Floor = std::min(MinScale, HW > 1 ? 0.6 * static_cast<double>(HW) : 0.7);
    double Scale = Sustained.Points.back().ScaleVs1T;
    std::printf("gate: sustained scale %ut/%ut = %.2fx (floor %.2fx, "
                "%u hardware threads) %s\n",
                Sustained.Points.back().Threads, 1u, Scale, Floor, HW,
                Scale >= Floor ? "ok" : "REGRESSION");
    if (Scale < Floor) {
      std::fprintf(stderr, "FAIL: sustained thread scaling below floor\n");
      return 1;
    }
  }
  return 0;
}
