//===- perfbench/main.cpp - The job benchmark -----------------------------===//
//
// perfbench_job runs one workload for a fixed time and prints its metrics as
// the last line of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads (each pass starts from empty memory caches):
//   paper_cold  the 15 suite tables: runAll over the deduplicated grid, then
//               every table's run(); the disk store is off.
//   paper_warm  the same, every job served from a store that set-up fills.
//   gen_verify  seeded generated programs x 14 compile configs, verifier on,
//               simulated on the 21164 and checked against the AST oracle.
//
// --trace 0 measures untraced passes and reports the end-to-end metrics.
// --trace 1 alternates an untraced pass with a traced one, in which every
// job is composed from the layer functions with a span per call (Compose.h)
// and must encode to the driver's bytes for that job; it reports the
// per-layer metrics. Run through perfbench/run.py, which builds this binary;
// see perfbench/README.md for the flags.
//
//===----------------------------------------------------------------------===//

#include "Compose.h"
#include "Spans.h"
#include "Workloads.h"

#include "driver/ArtifactStore.h"
#include "driver/ProfileCache.h"
#include "support/Serialize.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace bsched;
using namespace bsched::driver;
using namespace perfbench;

namespace {

/// Pool threads of every pass, clamped to the hardware threads.
constexpr unsigned PoolThreads = 4;

/// Generator seeds gen_verify skips (see the file).
constexpr const char *GenSkipFile = "perfbench/gen_skip.txt";

/// The traced job phase may take at most this many times the untraced
/// runAll of the same jobs, or as little as its inverse, before the traced
/// run fails: outside that band the spans no longer time the driver's
/// pipeline, even if the composition still yields the driver's bytes.
constexpr double MaxPhaseRatio = 1.5;

/// Job phases shorter than this (median untraced runAll) are not compared:
/// at that scale the ratio is mostly scheduling noise.
constexpr double MinPhaseCompareS = 1.0;

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Threads = 1; ///< PoolThreads, clamped to the hardware threads.
  unsigned GenCount = 600;
  std::string OutDir = "perfbench/out";
  std::string Pins = "perfbench/pinned_fnv.txt";
  std::vector<std::string> Tables; ///< empty = all fifteen.
  std::string Inject; ///< test hook: "checksum", "drift" or "slow".
  std::string GitCommit = "unknown";
  std::string SrcDigest = "unknown";
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Attempted and failed checks; the first few failures are printed.
struct Tally {
  uint64_t Attempted = 0, Failed = 0;
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    if (++Failed <= 10)
      std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
  }
};

double toS(uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }
double toMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

/// Nearest-rank percentile of \p Xs (0 < P <= 1).
double percentile(std::vector<double> Xs, double P) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(P * static_cast<double>(Xs.size())));
  return Xs[std::max<size_t>(Rank, 1) - 1];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void clearMemoryCaches() {
  clearResultCache();
  clearProfileCache();
}

/// Geometric mean of the jobs' simulated cycles, each divided by its
/// \p PerJob divisor when one is given.
double geomeanCycles(const std::vector<const RunResult *> &Rs,
                     const std::vector<uint64_t> &PerJob) {
  auto Log = [](uint64_t N) {
    return std::log(static_cast<double>(std::max<uint64_t>(N, 1)));
  };
  double LogSum = 0;
  for (size_t I = 0; I != Rs.size(); ++I)
    LogSum += Log(Rs[I]->Sim.Cycles) - (PerJob.empty() ? 0.0 : Log(PerJob[I]));
  return Rs.empty() ? 0.0 : std::exp(LogSum / static_cast<double>(Rs.size()));
}

//===-- The workload's jobs and checks ------------------------------------===//

struct TableOut {
  std::string Bytes;
  int ExitCode = 0;
  bool Captured = false;
  uint64_t EmitNs = 0;
};

/// Everything one workload needs for a pass, built by set-up.
struct Load {
  std::vector<bench::SuiteTable> Tables;
  std::map<std::string, uint64_t> Pins;
  std::vector<ExperimentJob> Jobs;
  size_t GridJobs = 0;
  /// gen_verify: the oracle checksum each job must reproduce.
  std::vector<uint64_t> Expected;
  std::vector<uint64_t> Stmts; ///< and its oracle statement count.
  std::vector<GenProgram> Programs;
  std::vector<std::string> GenNames;  ///< one per (program, config).
  std::vector<Workload> GenWorkloads; ///< views GenNames and Programs.
  uint64_t GenerateNs = 0;
  /// paper_warm: the store set-up filled, and the driver's fresh result for
  /// every job (the drift guard's reference).
  std::string StoreDir;
  std::vector<std::string> FillBytes;
};

std::vector<TableOut> emitTables(const std::vector<bench::SuiteTable> &Tables) {
  std::vector<TableOut> Outs(Tables.size());
  for (size_t I = 0; I != Tables.size(); ++I) {
    static const bench::SuiteTable *Current; // captureStdout takes a fn ptr.
    Current = &Tables[I];
    uint64_t T0 = nowNs();
    Outs[I].Captured = captureStdout([] { return Current->Run(); },
                                     Outs[I].Bytes, Outs[I].ExitCode);
    Outs[I].EmitNs = nowNs() - T0;
  }
  return Outs;
}

void checkTables(const Load &L, const std::vector<TableOut> &Outs, Tally &C) {
  for (size_t I = 0; I != Outs.size(); ++I) {
    const std::string &Name = L.Tables[I].Name;
    auto Pin = L.Pins.find(Name);
    uint64_t Fnv = fnv1a(Outs[I].Bytes);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "table %s: output fnv %016llx, pinned %s",
                  Name.c_str(), static_cast<unsigned long long>(Fnv),
                  Pin == L.Pins.end() ? "none" : "another value");
    C.check(Outs[I].Captured && Outs[I].ExitCode == 0 &&
                Pin != L.Pins.end() && Pin->second == Fnv,
            Buf);
  }
}

void checkJobs(const Load &L, const std::vector<const RunResult *> &Rs,
               Tally &C) {
  for (size_t I = 0; I != Rs.size(); ++I) {
    const RunResult &R = *Rs[I];
    if (!R.ok()) {
      C.check(false, R.Error);
      continue;
    }
    C.check(L.Expected.empty() || R.Sim.Checksum == L.Expected[I],
            std::string(L.Jobs[I].W->Name) + " [" + L.Jobs[I].Opts.tag() +
                "]: simulated checksum differs from the set-up oracle");
  }
}

/// Builds the workload's inputs. For paper_warm this fills a fresh store.
bool setUp(const Config &Cfg, Load &L, std::string &Error) {
  L = Load();
  setArtifactStoreDir(""); // never inherit BSCHED_ARTIFACT_DIR.
  setArtifactStoreReads(true);
  clearMemoryCaches();
  if (Cfg.Workload != "gen_verify") {
    if (!suiteTables(Cfg.Tables, L.Tables, Error) ||
        !readPins(Cfg.Pins, L.Pins, Error))
      return false;
    L.Jobs = uniqueSuiteJobs(L.Tables, L.GridJobs);
  } else {
    std::set<uint64_t> Skip;
    if (!readSkips(GenSkipFile, Skip, Error) ||
        !makeGenPrograms(Cfg.Seed, Cfg.GenCount, Skip, Cfg.Threads,
                         L.Programs, L.GenerateNs, Error))
      return false;
    // One Workload per (program, config): the name makes every job's
    // runCached key distinct, so the result cache only pays misses. Both
    // vectors are reserved up front, so the views stay valid.
    std::vector<CompileOptions> Configs = genCompileConfigs();
    L.GenNames.reserve(L.Programs.size() * Configs.size());
    L.GenWorkloads.reserve(L.Programs.size() * Configs.size());
    for (const GenProgram &G : L.Programs)
      for (size_t K = 0; K != Configs.size(); ++K) {
        L.GenNames.push_back(G.Name + ".c" + std::to_string(K));
        L.GenWorkloads.push_back({L.GenNames.back().c_str(), "generated",
                                  "lang::generateProgram", "",
                                  G.Source.c_str()});
        L.Jobs.push_back({&L.GenWorkloads.back(), Configs[K], {}});
        L.Expected.push_back(G.Checksum);
        L.Stmts.push_back(G.Stmts);
      }
    L.GridJobs = L.Jobs.size();
    if (Cfg.Inject == "checksum")
      L.Expected[0] ^= 1;
  }
  if (Cfg.Workload == "paper_warm") {
    std::error_code EC;
    L.StoreDir = Cfg.OutDir + "/store-" + std::to_string(::getpid());
    std::filesystem::remove_all(L.StoreDir, EC);
    setArtifactStoreDir(L.StoreDir);
    if (!artifactStoreEnabled()) {
      Error = "cannot create the store " + L.StoreDir;
      return false;
    }
    resetArtifactStoreStats();
    std::vector<const RunResult *> Rs = runAll(L.Jobs, Cfg.Threads);
    ArtifactStoreStats S = artifactStoreStats();
    for (const RunResult *R : Rs)
      if (!R->ok()) {
        Error = "store fill: " + R->Error;
        return false;
      }
    if (S.Writes != L.Jobs.size() || S.WriteFailures != 0) {
      Error = "store fill wrote " + std::to_string(S.Writes) + " of " +
              std::to_string(L.Jobs.size()) + " artifacts";
      return false;
    }
    for (const RunResult *R : Rs)
      L.FillBytes.push_back(normalizedBytes(*R));
  }
  return true;
}

void tearDown(Load &L) {
  setArtifactStoreDir("");
  if (!L.StoreDir.empty()) {
    std::error_code EC;
    std::filesystem::remove_all(L.StoreDir, EC);
    L.StoreDir.clear();
  }
}

//===-- Passes ------------------------------------------------------------===//

struct CacheDeltas {
  ResultCacheStats Result;
  ProfileCacheStats Profile;
  ArtifactStoreStats Store;
};

/// One untraced pass: exactly what bsched-suite (or, for gen_verify, a
/// runAll caller) does, from empty memory caches.
struct Pass {
  uint64_t WallNs = 0, JobsNs = 0;
  std::vector<const RunResult *> Results;
  std::vector<TableOut> Tables;
  CacheDeltas Caches;
};

Pass runPass(const Config &Cfg, const Load &L, Tally &C) {
  clearMemoryCaches();
  resetArtifactStoreStats();
  ResultCacheStats R0 = resultCacheStats();
  ProfileCacheStats P0 = profileCacheStats();

  Pass P;
  uint64_t T0 = nowNs();
  P.Results = runAll(L.Jobs, Cfg.Threads);
  P.JobsNs = nowNs() - T0;
  bool JobsOk = std::all_of(P.Results.begin(), P.Results.end(),
                            [](const RunResult *R) { return R->ok(); });
  // A table emitter exits the process on a failed cell; check first.
  if (JobsOk)
    P.Tables = emitTables(L.Tables);
  P.WallNs = nowNs() - T0;

  ResultCacheStats R1 = resultCacheStats();
  ProfileCacheStats P1 = profileCacheStats();
  P.Caches.Result = {R1.Hits - R0.Hits, R1.Misses - R0.Misses,
                     R1.InFlightWaits - R0.InFlightWaits};
  P.Caches.Profile = {P1.Hits - P0.Hits, P1.Misses - P0.Misses,
                      P1.InFlightWaits - P0.InFlightWaits};
  P.Caches.Store = artifactStoreStats();

  checkJobs(L, P.Results, C);
  if (JobsOk)
    checkTables(L, P.Tables, C);
  else
    C.check(false, "table emitters skipped: a job failed");
  if (Cfg.Workload == "paper_warm") {
    const ArtifactStoreStats &S = P.Caches.Store;
    uint64_t Rejected =
        S.CorruptRejected + S.VersionRejected + S.KeyRejected;
    C.check(S.DiskHits == L.Jobs.size() && S.DiskMisses == 0 && Rejected == 0,
            "warm pass: " + std::to_string(S.DiskHits) + " disk hits, " +
                std::to_string(S.DiskMisses) + " misses, " +
                std::to_string(Rejected) + " rejected for " +
                std::to_string(L.Jobs.size()) + " jobs");
  }
  return P;
}

/// One traced pass: every job composed layer by layer on the same pool
/// shape runAll uses, then (paper) the table emitters, each timed. Runs
/// right after an untraced pass, whose memory result cache the emitters
/// read; the profile cache is cleared so profiling is paid as in that pass.
struct TracedPass {
  uint64_t WallNs = 0, JobsNs = 0;
  std::vector<JobTrace> Traces;
  std::vector<TableOut> Tables;
};

TracedPass runTracedPass(const Config &Cfg, const Load &L,
                         const std::vector<std::string> &Reference,
                         Tally &C) {
  clearProfileCache();
  bool Stored = Cfg.Workload == "paper_warm";
  TracedPass TP;
  size_t N = L.Jobs.size();
  TP.Traces.resize(N);
  std::vector<RunResult> Results(N);
  std::vector<char> Loaded(N, 1);

  uint64_t T0 = nowNs();
  ThreadPool::parallelForChunked(Cfg.Threads, N, [&](size_t I) {
    const ExperimentJob &J = L.Jobs[I];
    if (Stored)
      Loaded[I] = composeStoredJob(resultKey(*J.W, J.Opts, J.Machine),
                                   Results[I], TP.Traces[I]);
    else
      Results[I] = composeJob(*J.W, J.Opts, J.Machine, TP.Traces[I]);
    if (Cfg.Inject == "slow") {
      const Span &Job = TP.Traces[I].Spans[0];
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Job.End - Job.Start));
    }
  });
  TP.JobsNs = nowNs() - T0;
  TP.Tables = emitTables(L.Tables);
  TP.WallNs = nowNs() - T0;

  for (size_t I = 0; I != N; ++I) {
    std::string Bytes = Loaded[I] ? normalizedBytes(Results[I]) : "";
    if (Cfg.Inject == "drift" && I == 0)
      Bytes += '!';
    C.check(Loaded[I] && Bytes == Reference[I],
            "drift: " + std::string(L.Jobs[I].W->Name) + " [" +
                L.Jobs[I].Opts.tag() +
                "]: the layer composition does not encode to the driver's "
                "bytes");
  }
  checkTables(L, TP.Tables, C);
  return TP;
}

//===-- Reporting ---------------------------------------------------------===//

std::string layerMetric(Layer Lyr) {
  std::string Stem = layerName(Lyr);
  return Stem + (Stem.find('.') == std::string::npos ? ".ms" : "_ms");
}

double hitRate(uint64_t Hits, uint64_t Misses, uint64_t Waits) {
  // A wait shares another caller's computation: it did not compute either.
  return ratio(static_cast<double>(Hits + Waits),
               static_cast<double>(Hits + Misses + Waits));
}

/// The per-layer metrics of one (untraced, traced) pair.
std::vector<Metric> layerMetrics(const Config &Cfg, const Load &L,
                                 const Pass &P, const TracedPass &TP) {
  uint64_t LayerNs[NumLayers] = {};
  uint64_t EvalCalls = 0, LowerInstrs = 0, OptInstrs = 0, SimInstrs = 0,
           Spills = 0, BusyNs = 0;
  std::vector<double> JobMs;
  for (const JobTrace &T : TP.Traces) {
    for (const Span &S : T.Spans)
      LayerNs[static_cast<unsigned>(S.L)] += S.End - S.Start;
    uint64_t JobNs = T.Spans.empty() ? 0 : T.Spans[0].End - T.Spans[0].Start;
    BusyNs += JobNs;
    JobMs.push_back(toMs(JobNs));
    EvalCalls += T.EvalCalls;
    LowerInstrs += T.LowerInstrs;
    OptInstrs += T.OptInstrs;
    SimInstrs += T.SimInstrs;
    Spills += T.Spills;
  }
  uint64_t LeafNs = 0;
  for (unsigned I = 0; I != NumLayers; ++I)
    if (I != static_cast<unsigned>(Layer::Job) &&
        I != static_cast<unsigned>(Layer::Compile))
      LeafNs += LayerNs[I];
  uint64_t EmitNs = 0;
  for (const TableOut &T : TP.Tables)
    EmitNs += T.EmitNs;

  std::vector<Metric> Ms;
  auto LayerMs = [&](Layer Lyr) {
    Ms.push_back({layerMetric(Lyr), toMs(LayerNs[static_cast<unsigned>(Lyr)]),
                  "ms"});
  };
  LayerMs(Layer::Parse);
  LayerMs(Layer::Eval);
  Ms.push_back({"lang.eval_calls", static_cast<double>(EvalCalls), "count"});
  Ms.push_back({"lang.generate_ms", toMs(L.GenerateNs), "ms"});
  LayerMs(Layer::Locality);
  LayerMs(Layer::Unroll);
  LayerMs(Layer::Lower);
  Ms.push_back({"lower.ir_instrs", static_cast<double>(LowerInstrs), "count"});
  LayerMs(Layer::Cleanup);
  Ms.push_back({"opt.ir_instrs", static_cast<double>(OptInstrs), "count"});
  LayerMs(Layer::Profile);
  Ms.push_back({"profile.cache_hit_rate",
                hitRate(P.Caches.Profile.Hits, P.Caches.Profile.Misses,
                        P.Caches.Profile.InFlightWaits),
                "ratio"});
  LayerMs(Layer::TraceSched);
  LayerMs(Layer::Sched);
  LayerMs(Layer::Verify);
  LayerMs(Layer::RegAlloc);
  Ms.push_back({"regalloc.spills", static_cast<double>(Spills), "count"});
  LayerMs(Layer::Sim);
  Ms.push_back(
      {"sim.minstr_per_s",
       ratio(static_cast<double>(SimInstrs) / 1e6,
             toS(LayerNs[static_cast<unsigned>(Layer::Sim)])),
       "Minstr/s"});
  Ms.push_back({"driver.result_cache_hit_rate",
                hitRate(P.Caches.Result.Hits, P.Caches.Result.Misses,
                        P.Caches.Result.InFlightWaits),
                "ratio"});
  LayerMs(Layer::StoreLoad);
  LayerMs(Layer::Decode);
  const ArtifactStoreStats &S = P.Caches.Store;
  Ms.push_back({"driver.store_hit_rate",
                ratio(static_cast<double>(S.DiskHits),
                      static_cast<double>(S.DiskHits + S.DiskMisses +
                                          S.CorruptRejected +
                                          S.VersionRejected + S.KeyRejected)),
                "ratio"});
  Ms.push_back({"bench.emit_ms", toMs(EmitNs), "ms"});
  std::vector<bench::SuiteTable> All;
  std::string Ignored;
  suiteTables({}, All, Ignored);
  for (const bench::SuiteTable &T : All) {
    double Ms_ = 0;
    for (size_t I = 0; I != L.Tables.size(); ++I)
      if (L.Tables[I].Name == T.Name)
        Ms_ = toMs(TP.Tables[I].EmitNs);
    Ms.push_back({"bench.emit_ms." + T.Name, Ms_, "ms"});
  }
  Ms.push_back({"job.ms_p50", percentile(JobMs, 0.50), "ms"});
  Ms.push_back({"job.ms_p98", percentile(JobMs, 0.98), "ms"});
  double WorkerNs = static_cast<double>(Cfg.Threads) *
                    static_cast<double>(TP.JobsNs);
  Ms.push_back({"pool.idle_share",
                1.0 - ratio(static_cast<double>(BusyNs), WorkerNs), "ratio"});
  Ms.push_back({"span.coverage",
                ratio(static_cast<double>(LeafNs + EmitNs),
                      WorkerNs + static_cast<double>(TP.WallNs - TP.JobsNs)),
                "ratio"});
  Ms.push_back({"bench.untraced_wall_s", toS(P.WallNs), "s"});
  Ms.push_back({"bench.traced_wall_s", toS(TP.WallNs), "s"});
  Ms.push_back({"bench.tracing_overhead_ms",
                toMs(TP.WallNs) - toMs(P.WallNs), "ms"});
  Ms.push_back({"bench.job_phase_ratio",
                ratio(static_cast<double>(TP.JobsNs),
                      static_cast<double>(P.JobsNs)),
                "ratio"});
  // The guard compares every job of the traced pass.
  Ms.push_back({"bench.drift_checked", static_cast<double>(TP.Traces.size()),
                "count"});
  return Ms;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    Out += Ch;
  }
  return Out;
}

std::string fmtNum(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.15g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I != Ms.size(); ++I)
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         fmtNum(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  return S + "}";
}

void writeSpans(const std::string &Path, const TracedPass &TP) {
  std::ofstream Out(Path);
  if (!Out)
    return;
  uint64_t Base = ~0ull;
  for (const JobTrace &T : TP.Traces)
    for (const Span &S : T.Spans)
      Base = std::min(Base, S.Start);
  for (size_t I = 0; I != TP.Traces.size(); ++I) {
    Out << "{\"job\": " << I << ", \"spans\": [";
    const std::vector<Span> &Ss = TP.Traces[I].Spans;
    for (size_t K = 0; K != Ss.size(); ++K)
      Out << (K ? ", " : "") << "[\"" << layerName(Ss[K].L) << "\", "
          << Ss[K].Parent << ", " << Ss[K].Start - Base << ", "
          << Ss[K].End - Base << "]";
    Out << "]}\n";
  }
}

bool parseArgs(int Argc, char **Argv, Config &Cfg) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 == Argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
      return false;
    }
    std::string V = Argv[++I];
    if (A == "--workload")
      Cfg.Workload = V;
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      Cfg.Trace = V == "1";
    else if (A == "--gen-count")
      Cfg.GenCount = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (A == "--out")
      Cfg.OutDir = V;
    else if (A == "--pins")
      Cfg.Pins = V;
    else if (A == "--tables") {
      Cfg.Tables.clear();
      for (size_t P = 0; P <= V.size();) {
        size_t Comma = std::min(V.find(',', P), V.size());
        if (Comma != P)
          Cfg.Tables.push_back(V.substr(P, Comma - P));
        P = Comma + 1;
      }
    } else if (A == "--inject")
      Cfg.Inject = V;
    else if (A == "--git-commit")
      Cfg.GitCommit = V;
    else if (A == "--src-digest")
      Cfg.SrcDigest = V;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", A.c_str());
      return false;
    }
  }
  if (Cfg.Workload != "paper_cold" && Cfg.Workload != "paper_warm" &&
      Cfg.Workload != "gen_verify") {
    std::fprintf(stderr, "perfbench: --workload must be paper_cold, "
                         "paper_warm or gen_verify\n");
    return false;
  }
  if (Cfg.GenCount == 0 ||
      (!Cfg.Inject.empty() && Cfg.Inject != "checksum" &&
       Cfg.Inject != "drift" && Cfg.Inject != "slow")) {
    std::fprintf(stderr, "perfbench: bad --gen-count or --inject\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Config Cfg;
  if (!parseArgs(Argc, Argv, Cfg))
    return 2;
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  Cfg.Threads = std::min(PoolThreads, Hw);
  std::error_code EC;
  std::filesystem::create_directories(Cfg.OutDir, EC);

  // Set-up is repeated, at least MinReps times and for at least 0.3 s,
  // before the first pass and (unless it fills the store) again before each
  // later one, so its samples span the same stretch of time as the passes.
  // The reported set-up time is their median; the last set-up's state is
  // the one the pass uses. Each set-up is followed by a short nap, so that
  // the samples come from many scheduling windows: on a shared machine a
  // millisecond set-up run back to back takes the speed of whichever core
  // it sits on for the whole batch, and the median then moves by up to a
  // third from one run to the next.
  unsigned MinReps = Cfg.Workload == "paper_warm" ? 2 : 3;
  Load L;
  std::vector<double> SetupS;
  auto SetUpRepeatedly = [&](unsigned Reps) {
    uint64_t Start = nowNs();
    for (unsigned N = 0; N < Reps || toS(nowNs() - Start) < 0.3; ++N) {
      tearDown(L);
      std::string Error;
      uint64_t T0 = nowNs();
      if (!setUp(Cfg, L, Error)) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", Error.c_str());
        tearDown(L);
        return false;
      }
      SetupS.push_back(toS(nowNs() - T0));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  };
  if (!SetUpRepeatedly(MinReps))
    return 1;

  Tally C;
  // Peak memory through set-up and the first pass: a run fits a varying
  // number of passes into --seconds, and later passes reuse a fragmented
  // heap, so the whole-run peak would depend on the pass count.
  double PeakRssMb = 0;
  std::vector<double> WallS;
  double Cycles = 0;
  std::vector<std::vector<Metric>> LayerRuns;
  std::vector<double> UntracedJobsS;
  uint64_t T0 = nowNs();
  do {
    if (!WallS.empty() && Cfg.Workload != "paper_warm" && !SetUpRepeatedly(1))
      return 1;
    Pass P = runPass(Cfg, L, C);
    WallS.push_back(toS(P.WallNs));
    if (WallS.size() == 1) {
      struct rusage Usage;
      ::getrusage(RUSAGE_SELF, &Usage);
      PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
    }
    Cycles = geomeanCycles(P.Results, L.Stmts);
    if (Cfg.Trace && C.Failed == 0) {
      UntracedJobsS.push_back(toS(P.JobsNs));
      std::vector<std::string> Reference = L.FillBytes;
      if (Reference.empty())
        for (const RunResult *R : P.Results)
          Reference.push_back(normalizedBytes(*R));
      TracedPass TP = runTracedPass(Cfg, L, Reference, C);
      LayerRuns.push_back(layerMetrics(Cfg, L, P, TP));
      writeSpans(Cfg.OutDir + "/spans-" + Cfg.Workload + ".jsonl", TP);
    }
  } while (C.Failed == 0 && toS(nowNs() - T0) < Cfg.Seconds);
  tearDown(L);

  double Wall = median(WallS);
  double FailRate = ratio(static_cast<double>(C.Failed),
                          static_cast<double>(C.Attempted));

  std::vector<Metric> Ms;
  if (!Cfg.Trace) {
    Ms = {{"wall_s", Wall, "s"},
          {"jobs_per_s", ratio(static_cast<double>(L.Jobs.size()), Wall),
           "1/s"},
          {"setup_s", median(SetupS), "s"},
          {"peak_rss_mb", PeakRssMb, "MB"},
          {"pass_rate", 1.0 - FailRate, "ratio"},
          {"sim_cycles_geomean", Cycles, "cycles"}};
  } else if (!LayerRuns.empty()) {
    // Median of each per-layer metric over the traced pairs.
    Ms = LayerRuns[0];
    for (size_t K = 0; K != Ms.size(); ++K) {
      std::vector<double> Vs;
      for (const std::vector<Metric> &Run : LayerRuns)
        Vs.push_back(Run[K].Value);
      Ms[K].Value = median(Vs);
      if (Ms[K].Name != "bench.job_phase_ratio" ||
          median(UntracedJobsS) < MinPhaseCompareS)
        continue;
      char Buf[200];
      std::snprintf(Buf, sizeof(Buf),
                    "timing drift: the traced job phase took %.3g times the "
                    "untraced runAll (allowed %.3g to %.3g)",
                    Ms[K].Value, 1 / MaxPhaseRatio, MaxPhaseRatio);
      C.check(Ms[K].Value <= MaxPhaseRatio &&
                  Ms[K].Value >= 1 / MaxPhaseRatio,
              Buf);
    }
  }

  // Metadata and the human-readable summary; the result line comes last.
  std::string PassWalls;
  for (double W : WallS)
    PassWalls += (PassWalls.empty() ? "" : ", ") + fmtNum(W);
  char Meta[4096];
  std::snprintf(
      Meta, sizeof(Meta),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"passes\": %zu, \"hardware_threads\": %u, \"threads\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"git_commit\": \"%s\", "
      "\"src_digest\": \"%s\", \"jobs_per_pass\": %zu, \"grid_jobs\": %zu, "
      "\"fail_rate\": %s, \"setup_reps\": %zu, \"setup_first_s\": %s, "
      "\"pass_wall_s\": [%s]}",
      Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
      Cfg.Seconds, Cfg.Trace ? 1 : 0, WallS.size(), Hw, Cfg.Threads,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      jsonEscape(Cfg.GitCommit).c_str(), jsonEscape(Cfg.SrcDigest).c_str(),
      L.Jobs.size(), L.GridJobs, fmtNum(FailRate).c_str(), SetupS.size(),
      fmtNum(SetupS.empty() ? 0 : SetupS[0]).c_str(), PassWalls.c_str());
  std::printf("meta %s\n", Meta);
  for (const Metric &M : Ms)
    std::printf("  %-36s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (!Cfg.Trace)
    std::printf("  %-36s %14.6g ratio (%llu of %llu checks)\n", "fail_rate",
                FailRate, static_cast<unsigned long long>(C.Failed),
                static_cast<unsigned long long>(C.Attempted));

  bool Correct = C.Failed == 0 && C.Attempted > 0;
  std::string Result = std::string("{\"correct\": ") +
                       (Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(C.Attempted) +
                       ", \"failed\": " + std::to_string(C.Failed) +
                       ", \"metrics\": " + metricsJson(Ms) + "}";
  std::ofstream(Cfg.OutDir + "/result-" + Cfg.Workload + "-trace" +
                (Cfg.Trace ? "1" : "0") + ".json")
      << "{\"meta\": " << Meta << ", \"result\": " << Result << "}\n";
  std::printf("%s\n", Result.c_str());
  return Correct ? 0 : 1;
}
