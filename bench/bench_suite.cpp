//===- bench/bench_suite.cpp - Unified experiment suite runner -------------===//
//
// bsched-suite: the one way to run the paper's tables and ablations. It runs
// any subset of them in one process over one shared result cache. The
// cross-table (workload, options, machine) overlap is deduplicated by
// runCached key before dispatch, the unique jobs fan out over
// ThreadPool::parallelForChunked (guided — the mix of microsecond compiles
// and multi-second simulations is exactly the non-uniform-duration case
// guided self-scheduling serves), and each table's emitter then assembles
// its output from the warm cache. With a persistent artifact store
// configured (--store), results outlive the process:
// a warm re-run deserializes instead of recomputing.
//
// Output contract: a table's bytes are the same whichever tables run beside
// it, for any thread count, cold or warm store (suite_test asserts this and
// pins tables 1-4 to their recorded FNV-1a). Every cell a table's run()
// reads must be declared by its jobs(), and run() computes nothing itself:
// each run() is recorded by a PhaseRecorder, and one that misses the result
// cache, or records a call in any phase (a compile, a simulation, a store
// load), fails the suite, naming the table. An output file (--json,
// --out-dir) that cannot be written also fails it.
//
// Usage:
//   --list                   list registered tables and exit
//   --tables a,b,c           run this subset (default: every table)
//   --threads N              warmup fan-out threads, at most 1024 (0 = one
//                            per hw thread)
//   --store DIR              artifact store directory
//   --measure                forced-cold pass (disk reads off) then warm
//                            pass (memory cleared, disk reads on); records
//                            both, checks the outputs byte-identical, and
//                            fails unless the store served every unique job
//                            of the warm pass
//   --json PATH              write the suite JSON (none unless given)
//   --out-dir DIR            also write per-table <name>.txt / <name>.json
//
// A --threads value that does not parse in full or lies outside its range
// exits 2, naming the flag, before any table runs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

#include "driver/ArtifactStore.h"
#include "driver/ProfileCache.h"
#include "support/PhaseRecord.h"
#include "support/Serialize.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

using namespace bsched;
using namespace bsched::bench;

BSCHED_SUITE_ALL_TABLES(BSCHED_SUITE_DECLARE)

namespace {

std::vector<SuiteTable> allTables() {
  std::vector<SuiteTable> Tables;
#define BSCHED_SUITE_COLLECT(NAME) Tables.push_back(bsched_suite_table_##NAME());
  BSCHED_SUITE_ALL_TABLES(BSCHED_SUITE_COLLECT)
#undef BSCHED_SUITE_COLLECT
  return Tables;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma != Pos)
      Parts.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Parts;
}

struct TableRun {
  SuiteTable T;
  size_t JobCount = 0;       ///< jobs the table registered.
  size_t UniqueContributed = 0; ///< of those, first seen at this table.
  std::string Output;        ///< captured run() bytes.
  uint64_t RunNs = 0;        ///< serial emit time (cache-hit assembly).
  int ExitCode = 0;
  uint64_t UndeclaredMisses = 0; ///< cells run() computed itself (gated).
  /// The first phase run() recorded a call in, if any (gated): a cell served
  /// from memory records none.
  std::optional<Phase> OutsidePhase;
};

/// Dedups every selected table's grid by runCached key, preserving first-
/// occurrence order, and records per-table contribution counts.
std::vector<driver::ExperimentJob> collectJobs(std::vector<TableRun> &Tables,
                                               size_t &TotalJobs) {
  std::vector<driver::ExperimentJob> Unique;
  std::unordered_set<std::string> Seen;
  TotalJobs = 0;
  for (TableRun &TR : Tables) {
    std::vector<driver::ExperimentJob> Jobs = TR.T.Jobs();
    TR.JobCount = Jobs.size();
    TotalJobs += Jobs.size();
    for (driver::ExperimentJob &J : Jobs) {
      std::string Key = driver::resultKey(*J.W, J.Opts, J.Machine);
      if (Seen.insert(std::move(Key)).second) {
        ++TR.UniqueContributed;
        Unique.push_back(std::move(J));
      }
    }
  }
  return Unique;
}

/// One full pass: fan the deduped grid out on the pool, then assemble every
/// table serially with stdout captured. Returns total wall nanoseconds.
uint64_t runPass(std::vector<TableRun> &Tables,
                 const std::vector<driver::ExperimentJob> &Unique,
                 unsigned Threads, bool &AnyFailed) {
  uint64_t T0 = nowNs();
  driver::runAll(Unique, Threads);
  for (TableRun &TR : Tables) {
    static TableRun *Current; // captureStdout takes a plain fn ptr.
    Current = &TR;
    uint64_t R0 = nowNs();
    uint64_t Misses0 = driver::resultCacheStats().Misses;
    {
      PhaseRecorder Rec; // run() runs on this thread.
      TR.ExitCode = captureStdout([] { return Current->T.Run(); }, TR.Output);
      for (unsigned P = 0; P != NumPhases && !TR.OutsidePhase; ++P)
        if (Rec.calls(static_cast<Phase>(P)))
          TR.OutsidePhase = static_cast<Phase>(P);
    }
    TR.UndeclaredMisses += driver::resultCacheStats().Misses - Misses0;
    TR.RunNs = nowNs() - R0;
    if (TR.ExitCode != 0)
      AnyFailed = true;
  }
  return nowNs() - T0;
}

void clearMemoryCaches() {
  driver::clearResultCache();
  driver::clearProfileCache();
}

/// Writes \p Path through \p Fill; reports the path and returns false when
/// the file cannot be opened or any write to it fails.
template <typename FnT> bool writeFile(const std::string &Path, FnT Fill) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  bool Ok = F != nullptr;
  if (F) {
    Fill(F);
    Ok = !std::ferror(F);
    Ok = std::fclose(F) == 0 && Ok;
  }
  if (!Ok)
    std::fprintf(stderr, "suite: cannot write %s\n", Path.c_str());
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Selected;
  bool List = false, Measure = false;
  unsigned Threads = 0;
  std::string StoreDir, JsonPath, OutDir;

  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--list"))
      List = true;
    else if (!std::strcmp(argv[I], "--measure"))
      Measure = true;
    else if (!std::strcmp(argv[I], "--tables") && I + 1 != argc)
      Selected = splitList(argv[++I]);
    else if (!std::strcmp(argv[I], "--threads") && I + 1 != argc &&
             parseNonNegative(argv[I + 1], Threads) &&
             Threads <= ThreadPool::MaxThreads)
      ++I;
    else if (!std::strcmp(argv[I], "--store") && I + 1 != argc)
      StoreDir = argv[++I];
    else if (!std::strcmp(argv[I], "--json") && I + 1 != argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--out-dir") && I + 1 != argc)
      OutDir = argv[++I];
    else {
      std::fprintf(stderr, "unknown argument or bad value: %s\n", argv[I]);
      return 2;
    }
  }

  std::vector<SuiteTable> Registry = allTables();
  if (List) {
    for (const SuiteTable &T : Registry)
      std::printf("%-24s %s\n", T.Name.c_str(), T.Title.c_str());
    return 0;
  }

  std::vector<TableRun> Tables;
  if (Selected.empty()) {
    for (SuiteTable &T : Registry) {
      TableRun TR;
      TR.T = T;
      Tables.push_back(std::move(TR));
    }
  } else {
    for (const std::string &Name : Selected) {
      bool Found = false;
      for (SuiteTable &T : Registry)
        if (T.Name == Name) {
          TableRun TR;
          TR.T = T;
          Tables.push_back(std::move(TR));
          Found = true;
          break;
        }
      if (!Found) {
        std::fprintf(stderr, "unknown table: %s (try --list)\n", Name.c_str());
        return 2;
      }
    }
  }

  if (!StoreDir.empty())
    driver::setArtifactStoreDir(StoreDir);
  if (Measure && !driver::artifactStoreEnabled()) {
    std::fprintf(stderr,
                 "--measure needs a persistent store: pass --store DIR\n");
    return 2;
  }

  size_t TotalJobs = 0;
  std::vector<driver::ExperimentJob> Unique = collectJobs(Tables, TotalJobs);
  // The workers the pool will start, so the JSON records the real count.
  Threads = ThreadPool::workersFor(Threads, Unique.size());

  bool AnyFailed = false;
  uint64_t ColdNs = 0, WarmNs = 0;
  driver::ArtifactStoreStats ColdStore, WarmStore;
  driver::ResultCacheStats CacheBefore = driver::resultCacheStats();
  MemoStats OracleBefore = driver::oracleCacheStats();
  bool PassesIdentical = true;

  if (Measure) {
    // Forced-cold pass: disk reads off (an already-warm store must not
    // flatter the cold number), write-back on, memory caches empty.
    std::vector<std::string> ColdOutputs;
    clearMemoryCaches();
    driver::resetArtifactStoreStats();
    driver::setArtifactStoreReads(false);
    ColdNs = runPass(Tables, Unique, Threads, AnyFailed);
    ColdStore = driver::artifactStoreStats();
    for (TableRun &TR : Tables)
      ColdOutputs.push_back(std::move(TR.Output));

    // Warm pass: memory caches cleared again, so every hit is the disk
    // tier's — deserialization standing in for recomputation.
    clearMemoryCaches();
    driver::resetArtifactStoreStats();
    driver::setArtifactStoreReads(true);
    WarmNs = runPass(Tables, Unique, Threads, AnyFailed);
    WarmStore = driver::artifactStoreStats();

    for (size_t I = 0; I != Tables.size(); ++I)
      if (Tables[I].Output != ColdOutputs[I]) {
        PassesIdentical = false;
        std::fprintf(stderr,
                     "SUITE: table %s produced different bytes cold vs "
                     "warm-from-store\n",
                     Tables[I].T.Name.c_str());
      }
  } else {
    ColdNs = runPass(Tables, Unique, Threads, AnyFailed);
    ColdStore = driver::artifactStoreStats();
  }
  driver::ResultCacheStats CacheAfter = driver::resultCacheStats();
  MemoStats OracleAfter = driver::oracleCacheStats();

  // Emit every table's captured bytes in order.
  for (const TableRun &TR : Tables)
    std::fwrite(TR.Output.data(), 1, TR.Output.size(), stdout);

  size_t Saved = TotalJobs - Unique.size();
  std::fprintf(stderr, "suite: %zu tables, %zu jobs, %zu unique (%zu deduped)",
               Tables.size(), TotalJobs, Unique.size(), Saved);
  if (Measure)
    std::fprintf(stderr, ", cold %.2fs, warm %.2fs (%.1fx)",
                 static_cast<double>(ColdNs) / 1e9,
                 static_cast<double>(WarmNs) / 1e9,
                 WarmNs ? static_cast<double>(ColdNs) /
                              static_cast<double>(WarmNs)
                        : 0.0);
  std::fprintf(stderr, "\n");

  // --- Per-table artifacts --------------------------------------------------
  bool WriteFailed = false;
  if (!OutDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(OutDir, EC);
    if (EC) {
      std::fprintf(stderr, "suite: cannot create %s: %s\n", OutDir.c_str(),
                   EC.message().c_str());
      WriteFailed = true;
    }
    for (size_t I = 0; !EC && I != Tables.size(); ++I) {
      const TableRun &TR = Tables[I];
      std::string Base = OutDir + "/" + TR.T.Name;
      WriteFailed |= !writeFile(Base + ".txt", [&](std::FILE *F) {
        std::fwrite(TR.Output.data(), 1, TR.Output.size(), F);
      });
      WriteFailed |= !writeFile(Base + ".json", [&](std::FILE *F) {
        std::fprintf(F,
                     "{\n  \"name\": \"%s\",\n  \"title\": \"%s\",\n"
                     "  \"jobs\": %zu,\n  \"unique_contributed\": %zu,\n"
                     "  \"output_bytes\": %zu,\n  \"output_fnv\": \"%016llx\",\n"
                     "  \"emit_ms\": %.3f\n}\n",
                     TR.T.Name.c_str(), jsonEscape(TR.T.Title).c_str(),
                     TR.JobCount, TR.UniqueContributed, TR.Output.size(),
                     static_cast<unsigned long long>(fnv1a(TR.Output)),
                     static_cast<double>(TR.RunNs) / 1e6);
      });
    }
  }

  // --- Suite JSON -----------------------------------------------------------
  double WarmSpeedup =
      (Measure && WarmNs)
          ? static_cast<double>(ColdNs) / static_cast<double>(WarmNs)
          : 0.0;
  uint64_t WarmReads = WarmStore.DiskHits + WarmStore.DiskMisses +
                       WarmStore.CorruptRejected + WarmStore.VersionRejected +
                       WarmStore.KeyRejected;
  double DiskHitRate =
      WarmReads ? static_cast<double>(WarmStore.DiskHits) /
                      static_cast<double>(WarmReads)
                : 0.0;

  if (!JsonPath.empty())
    WriteFailed |= !writeFile(JsonPath, [&](std::FILE *J) {
      std::fputs(benchJsonHead("bsched-suite-v1", Threads).c_str(), J);
      std::fprintf(J, "  \"measure\": %s,\n", Measure ? "true" : "false");
      std::fprintf(J, "  \"store_enabled\": %s,\n",
                   driver::artifactStoreEnabled() ? "true" : "false");
      std::fprintf(J, "  \"tables\": [\n");
      for (size_t I = 0; I != Tables.size(); ++I) {
        const TableRun &TR = Tables[I];
        std::fprintf(J,
                     "    {\"name\": \"%s\", \"jobs\": %zu, "
                     "\"unique_contributed\": %zu, \"output_bytes\": %zu, "
                     "\"output_fnv\": \"%016llx\", \"emit_ms\": %.3f}%s\n",
                     TR.T.Name.c_str(), TR.JobCount, TR.UniqueContributed,
                     TR.Output.size(),
                     static_cast<unsigned long long>(fnv1a(TR.Output)),
                     static_cast<double>(TR.RunNs) / 1e6,
                     I + 1 == Tables.size() ? "" : ",");
      }
      std::fprintf(J, "  ],\n");
      std::fprintf(J, "  \"jobs_total\": %zu,\n", TotalJobs);
      std::fprintf(J, "  \"jobs_unique\": %zu,\n", Unique.size());
      std::fprintf(J, "  \"jobs_deduped\": %zu,\n", Saved);
      uint64_t Undeclared = 0;
      for (const TableRun &TR : Tables)
        Undeclared += TR.UndeclaredMisses;
      std::fprintf(J, "  \"undeclared_misses\": %llu,\n",
                   static_cast<unsigned long long>(Undeclared));
      auto MemoJson = [&](const char *Name, const MemoStats &Before,
                          const MemoStats &After) {
        std::fprintf(J,
                     "  \"%s\": {\"hits\": %llu, \"misses\": %llu, "
                     "\"in_flight_waits\": %llu},\n",
                     Name,
                     static_cast<unsigned long long>(After.Hits - Before.Hits),
                     static_cast<unsigned long long>(After.Misses -
                                                     Before.Misses),
                     static_cast<unsigned long long>(After.InFlightWaits -
                                                     Before.InFlightWaits));
      };
      MemoJson("result_cache", CacheBefore, CacheAfter);
      MemoJson("oracle_cache", OracleBefore, OracleAfter);
      auto StoreJson = [&](const char *Name,
                           const driver::ArtifactStoreStats &S) {
        std::fprintf(J,
                     "  \"%s\": {\"disk_hits\": %llu, \"disk_misses\": %llu, "
                     "\"writes\": %llu, \"write_failures\": %llu, "
                     "\"corrupt_rejected\": %llu, \"version_rejected\": %llu, "
                     "\"key_rejected\": %llu},\n",
                     Name, static_cast<unsigned long long>(S.DiskHits),
                     static_cast<unsigned long long>(S.DiskMisses),
                     static_cast<unsigned long long>(S.Writes),
                     static_cast<unsigned long long>(S.WriteFailures),
                     static_cast<unsigned long long>(S.CorruptRejected),
                     static_cast<unsigned long long>(S.VersionRejected),
                     static_cast<unsigned long long>(S.KeyRejected));
      };
      if (Measure) {
        StoreJson("store_cold", ColdStore);
        StoreJson("store_warm", WarmStore);
        std::fprintf(J, "  \"cold_ms\": %.3f,\n",
                     static_cast<double>(ColdNs) / 1e6);
        std::fprintf(J, "  \"warm_ms\": %.3f,\n",
                     static_cast<double>(WarmNs) / 1e6);
        std::fprintf(J, "  \"warm_speedup\": %.3f,\n", WarmSpeedup);
        std::fprintf(J, "  \"disk_hit_rate\": %.4f,\n", DiskHitRate);
        std::fprintf(J, "  \"passes_identical\": %s\n",
                     PassesIdentical ? "true" : "false");
      } else {
        StoreJson("store", ColdStore);
        std::fprintf(J, "  \"wall_ms\": %.3f\n",
                     static_cast<double>(ColdNs) / 1e6);
      }
      std::fprintf(J, "}\n");
    });

  // --- Gates ----------------------------------------------------------------
  int Rc = 0;
  if (AnyFailed) {
    std::fprintf(stderr, "SUITE FAILED: a table emitter returned nonzero\n");
    Rc = 1;
  }
  if (!PassesIdentical) {
    std::fprintf(stderr,
                 "SUITE GATE FAILED: cold and warm outputs differ\n");
    Rc = 1;
  }
  if (WriteFailed)
    Rc = 1;
  for (const TableRun &TR : Tables)
    if (TR.UndeclaredMisses != 0) {
      std::fprintf(stderr,
                   "SUITE GATE FAILED: table %s: run() missed the result "
                   "cache %llu times on cells its jobs() did not declare\n",
                   TR.T.Name.c_str(),
                   static_cast<unsigned long long>(TR.UndeclaredMisses));
      Rc = 1;
    } else if (TR.OutsidePhase) {
      std::fprintf(stderr,
                   "SUITE GATE FAILED: table %s: run() did work outside the "
                   "grid, first in phase %s\n",
                   TR.T.Name.c_str(), phaseName(*TR.OutsidePhase));
      Rc = 1;
    }
  // The warm pass computed nothing: the store served every unique job.
  if (Measure && WarmStore.DiskHits != Unique.size()) {
    std::fprintf(stderr,
                 "SUITE GATE FAILED: the warm pass had %llu disk hits for "
                 "%zu unique jobs\n",
                 static_cast<unsigned long long>(WarmStore.DiskHits),
                 Unique.size());
    Rc = 1;
  }
  return Rc;
}
