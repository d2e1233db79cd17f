//===- tests/compile_service_test.cpp - Compile-service concurrency -------===//
//
// Stress tests for the batched, sharded compile service (driver/Experiment,
// driver/ProfileCache, ThreadPool chunked dispatch): many threads hammering
// overlapping keys must produce pointer-stable results, never recompute a
// completed key, and return results byte-identical to a 1-thread run.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"
#include "driver/Experiment.h"
#include "driver/JobFields.h"
#include "driver/ProfileCache.h"
#include "driver/Workloads.h"
#include "support/PhaseRecord.h"
#include "support/ThreadPool.h"
#include "trace/EstimateProfile.h"

#include <gtest/gtest.h>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <stdlib.h>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// Distinct-but-overlapping key set: K pressure-threshold tenants over a few
/// workloads. The thresholds are chosen away from every default used
/// elsewhere so the cache-miss accounting below is exact within this binary.
std::vector<ExperimentJob> tenantJobs() {
  std::vector<ExperimentJob> Jobs;
  const auto &Ws = workloads();
  for (size_t W = 0; W != 3; ++W) {
    for (int T = 61; T != 65; ++T) {
      CompileOptions O;
      O.Scheduler = sched::SchedulerKind::Balanced;
      O.Balance.PressureThreshold = T;
      Jobs.push_back({&Ws[W], O, {}});
    }
  }
  return Jobs;
}

/// A value of \p V's type other than \p V.
template <typename T> T perturbed(T V) {
  if constexpr (std::is_same_v<T, bool>)
    return !V;
  else if constexpr (std::is_enum_v<T>)
    return static_cast<T>(static_cast<std::underlying_type_t<T>>(V) + 1);
  else
    return V + 1;
}

/// Perturbs leaf \p Index (list order) of every default \p T in turn and
/// hands each variant to \p Check with the leaf's path; returns how many
/// leaves there were.
template <typename T, typename CheckFn> size_t eachLeafVariant(CheckFn Check) {
  for (size_t Index = 0;; ++Index) {
    T Variant{};
    std::string Changed;
    size_t Leaf = 0;
    forEachLeaf(
        [&](const FieldPath &F, auto &V) {
          if (Leaf++ == Index) {
            V = perturbed(V);
            Changed = F.str();
          }
        },
        Variant);
    if (Changed.empty())
      return Index;
    Check(Variant, Changed);
  }
}

} // namespace

// The key covers every option and machine field: changing any single leaf
// of the field lists (and so any member, by the lists' static guards) gives
// a key no other job has.
TEST(ResultKey, EveryFieldChangesTheKey) {
  const Workload &W = workloads().front();
  std::set<std::string> Keys = {resultKey(W, {}, {})};
  size_t Options = eachLeafVariant<CompileOptions>(
      [&](const CompileOptions &O, const std::string &Name) {
        EXPECT_TRUE(Keys.insert(resultKey(W, O, {})).second)
            << "option " << Name;
      });
  size_t Machine = eachLeafVariant<sim::MachineConfig>(
      [&](const sim::MachineConfig &M, const std::string &Name) {
        EXPECT_TRUE(Keys.insert(resultKey(W, {}, M)).second)
            << "machine field " << Name;
      });
  EXPECT_GT(Options, 0u);
  EXPECT_GT(Machine, 0u);
}

// ...and the workload's source text, its name and the code version.
TEST(ResultKey, SourceNameAndSaltChangeTheKey) {
  const Workload &W = workloads().front();
  std::string Edited = std::string(W.Source) + "\n";
  Workload EditedW = W;
  EditedW.Source = Edited.c_str();
  Workload RenamedW = W;
  RenamedW.Name = "renamed";

  std::set<std::string> Keys = {resultKey(W, {}, {})};
  EXPECT_TRUE(Keys.insert(resultKey(EditedW, {}, {})).second);
  EXPECT_TRUE(Keys.insert(resultKey(RenamedW, {}, {})).second);
  EXPECT_TRUE(Keys.insert(resultKey(W, {}, {}, "another salt")).second);
  // Deterministic: the same job keys the same way again.
  EXPECT_EQ(Keys.count(resultKey(W, {}, {})), 1u);
}

// The key hashes the text, not its address: a source buffer rewritten in
// place keys as the new text.
TEST(ResultKey, SourceRewrittenInPlaceChangesTheKey) {
  const Workload &W = workloads().front();
  std::string Buffer = W.Source;
  Workload Rewritten = W;
  Rewritten.Source = Buffer.c_str();
  std::string Before = resultKey(Rewritten, {}, {});
  Buffer.back() = Buffer.back() == ' ' ? '\n' : ' ';
  EXPECT_NE(resultKey(Rewritten, {}, {}), Before);
}

// Hammer runCached from 8 workers with every key requested many times
// concurrently: each completed key is computed exactly once (the miss
// counter moves by exactly the number of distinct keys), every caller gets
// the same stable pointer, and the values are byte-identical to an
// uncached sequential recompute.
TEST(CompileService, OverlappingKeysComputeOnce) {
  std::vector<ExperimentJob> Jobs = tenantJobs();
  const size_t Distinct = Jobs.size();
  const size_t Repeat = 8;

  ResultCacheStats Before = resultCacheStats();
  std::vector<const RunResult *> Ptrs(Distinct * Repeat, nullptr);
  ThreadPool::parallelForChunked(8, Ptrs.size(), [&](size_t I) {
    const ExperimentJob &J = Jobs[I % Distinct];
    Ptrs[I] = &runCached(*J.W, J.Opts, J.Machine);
  });
  ResultCacheStats After = resultCacheStats();

  // One computation per distinct key; everything else was a hit or an
  // in-flight wait on the first computation, never a recompute.
  EXPECT_EQ(After.Misses - Before.Misses, Distinct);
  EXPECT_EQ((After.Hits - Before.Hits) + (After.InFlightWaits -
                                          Before.InFlightWaits),
            Distinct * Repeat - Distinct);

  // Pointer-stable: all requests for one key resolved to one entry.
  for (size_t I = 0; I != Ptrs.size(); ++I) {
    ASSERT_NE(Ptrs[I], nullptr);
    EXPECT_EQ(Ptrs[I], Ptrs[I % Distinct]) << "request " << I;
  }

  // Byte-identical to an uncached 1-thread recompute.
  for (size_t I = 0; I != Distinct; ++I) {
    RunResult Fresh = runWorkload(*Jobs[I].W, Jobs[I].Opts, Jobs[I].Machine);
    ASSERT_TRUE(Fresh.ok()) << Fresh.Error;
    EXPECT_EQ(firstDifference(*Ptrs[I], Fresh, "cached", "fresh"), "")
        << "job " << I;
  }
}

// runAll returns the same pointers in the same order for any thread count
// — the byte-identical determinism contract the bench sweeps and table
// binaries rely on.
TEST(CompileService, RunAllIdenticalAcrossThreads) {
  std::vector<ExperimentJob> Jobs = tenantJobs();

  std::vector<const RunResult *> Seq = runAll(Jobs, 1);
  std::vector<const RunResult *> Par = runAll(Jobs, 8);
  ASSERT_EQ(Seq.size(), Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_TRUE(Seq[I]->ok()) << Seq[I]->Error;
    EXPECT_EQ(Seq[I], Par[I]) << "job " << I;
  }
}

// The sharded profile cache under a thundering herd: 8 workers repeatedly
// profiling the same few modules. Each distinct module is interpreted
// exactly once (in-flight dedup), and every returned profile is
// bit-identical to a direct uncached interpretation.
TEST(CompileService, ProfileCacheDedupesInFlight) {
  // A few distinct laid-out modules (different workloads).
  std::vector<ir::Module> Modules;
  const auto &Ws = workloads();
  for (size_t W = 0; W != 4; ++W) {
    CompileResult FE = compileFrontEnd(parseWorkload(Ws[W]), {});
    ASSERT_TRUE(FE.ok()) << FE.Error;
    Modules.push_back(std::move(FE.M));
  }

  clearProfileCache();
  const size_t Repeat = 16;
  std::vector<ir::InterpResult> Out(Modules.size() * Repeat);
  ThreadPool::parallelForChunked(8, Out.size(), [&](size_t I) {
    Out[I] = profileModule(Modules[I % Modules.size()]);
  });

  ProfileCacheStats S = profileCacheStats();
  EXPECT_EQ(S.Misses, Modules.size());
  EXPECT_EQ(S.Hits + S.InFlightWaits, Out.size() - Modules.size());

  for (size_t M = 0; M != Modules.size(); ++M) {
    ir::InterpResult Direct = ir::interpret(Modules[M]);
    for (size_t I = M; I < Out.size(); I += Modules.size()) {
      EXPECT_EQ(Out[I].Finished, Direct.Finished);
      EXPECT_EQ(Out[I].DynInstrs, Direct.DynInstrs);
      EXPECT_EQ(Out[I].Checksum, Direct.Checksum);
      EXPECT_EQ(Out[I].BlockCounts, Direct.BlockCounts);
      EXPECT_EQ(Out[I].EdgeCounts, Direct.EdgeCounts);
    }
  }
}

// The estimated and interpreted profiles of the *same* module live in
// distinct cache slots: the kind salt in the key keeps profileModule and
// estimatedProfileModule from ever serving each other's results, in either
// insertion order.
TEST(CompileService, ProfileKindsNeverShareASlot) {
  CompileResult FE =
      compileFrontEnd(parseWorkload(*findWorkload("hydro2d")), {});
  ASSERT_TRUE(FE.ok()) << FE.Error;
  const ir::Module &M = FE.M;

  clearProfileCache();
  ir::InterpResult Interp = profileModule(M);
  ir::InterpResult Est = estimatedProfileModule(M);
  ProfileCacheStats S = profileCacheStats();
  EXPECT_EQ(S.Misses, 2u) << "kinds collided on one cache slot";
  EXPECT_EQ(S.Hits, 0u);

  // Re-request both: now both hit, and each kind gets its own bits back.
  ir::InterpResult Interp2 = profileModule(M);
  ir::InterpResult Est2 = estimatedProfileModule(M);
  S = profileCacheStats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(Interp2.BlockCounts, Interp.BlockCounts);
  EXPECT_EQ(Est2.BlockCounts, Est.BlockCounts);

  // The two kinds really are different data (an interpreted run enters the
  // function once; the estimate injects EstimateEntryCount units), and the
  // cached estimate is bit-identical to an uncached estimateProfile call.
  EXPECT_NE(Est.BlockCounts, Interp.BlockCounts);
  ir::InterpResult Direct = trace::estimateProfile(M.Fn);
  EXPECT_EQ(Est.Finished, Direct.Finished);
  EXPECT_EQ(Est.BlockCounts, Direct.BlockCounts);
  EXPECT_EQ(Est.EdgeCounts, Direct.EdgeCounts);
}

// Eviction never hands out a wrong or dangling profile: push far more
// distinct modules through one shard capacity's worth of traffic than the
// per-shard bound, re-requesting earlier keys throughout, from many
// threads. (Entries are shared_ptr-held, so a sweep during an in-flight
// computation must not invalidate waiters.)
TEST(CompileService, ProfileCacheSurvivesEviction) {
  // Distinct modules via distinct instruction budgets on one module: the
  // budget is part of the key, so each MaxInstrs value is its own entry.
  CompileResult FE = compileFrontEnd(parseWorkload(workloads().front()), {});
  ASSERT_TRUE(FE.ok()) << FE.Error;
  const ir::Module &M = FE.M;

  clearProfileCache();
  constexpr size_t Distinct = 600; // > total cache capacity (16 x 32).
  constexpr uint64_t BaseBudget = 1000000000ull;
  std::vector<uint64_t> Checksums(Distinct * 2);
  ThreadPool::parallelForChunked(8, Checksums.size(), [&](size_t I) {
    uint64_t Budget = BaseBudget + I % Distinct;
    Checksums[I] = profileModule(M, Budget).Checksum;
  });
  uint64_t Expect = ir::interpret(M).Checksum;
  for (uint64_t C : Checksums)
    EXPECT_EQ(C, Expect);
}

//===----------------------------------------------------------------------===//
// The phase record (support/PhaseRecord.h)
//===----------------------------------------------------------------------===//

namespace {

/// The phases \p Rec counted at least one call for.
std::set<std::string> recordedPhases(const PhaseRecorder &Rec) {
  std::set<std::string> Names;
  for (unsigned I = 0; I != NumPhases; ++I)
    if (Rec.calls(static_cast<Phase>(I)))
      Names.insert(phaseName(static_cast<Phase>(I)));
  return Names;
}

} // namespace

// compileSource records every phase its configuration runs and no other:
// list scheduling or trace scheduling with its profile, locality and
// unrolling only when asked for, and never the job-level phases.
TEST(PhaseRecord, CompileSourceRecordsTheConfiguredPhases) {
  const Workload &W = *findWorkload("hydro2d");
  const std::set<std::string> Always = {"lang.parse", "lower", "opt.cleanup",
                                        "verify", "regalloc"};
  CompileOptions BS;
  CompileOptions Trace = BS;
  Trace.LocalityAnalysis = true;
  Trace.UnrollFactor = 4;
  Trace.TraceScheduling = true;
  CompileOptions Est = Trace;
  Est.UseEstimatedProfile = true;
  const std::set<std::string> TracePhases = {"locality", "xform.unroll",
                                             "profile", "trace.schedule"};
  const std::pair<CompileOptions, std::set<std::string>> Cases[] = {
      {BS, {"sched.schedule"}}, {Trace, TracePhases}, {Est, TracePhases}};
  for (const auto &[Opts, Extra] : Cases) {
    PhaseRecorder Rec;
    CompileResult R = compileSource(W.Source, W.Name, Opts);
    ASSERT_TRUE(R.ok()) << Opts.tag() << ": " << R.Error;
    std::set<std::string> Want = Always;
    Want.insert(Extra.begin(), Extra.end());
    EXPECT_EQ(recordedPhases(Rec), Want) << Opts.tag();
  }
}

// Only work on the recorder's own thread while it lives is recorded, and
// recording changes no result.
TEST(PhaseRecord, RecordsOnlyItsThreadAndChangesNoResult) {
  const Workload &W = *findWorkload("tomcatv");
  CompileOptions Opts;
  Opts.UnrollFactor = 4;
  Opts.TraceScheduling = true;
  PhaseRecorder Rec;
  CompileResult Plain;
  std::thread([&] { Plain = compileSource(W.Source, W.Name, Opts); }).join();
  ASSERT_TRUE(Plain.ok()) << Plain.Error;
  EXPECT_TRUE(recordedPhases(Rec).empty());
  EXPECT_EQ(Rec.ns(Phase::Lower), 0u);

  CompileResult Recorded = compileSource(W.Source, W.Name, Opts);
  EXPECT_FALSE(recordedPhases(Rec).empty());
  EXPECT_EQ(firstDifference(Plain, Recorded, "plain", "recorded"), "");
}

// A nested recorder collects alone while it lives and adds its totals to
// the enclosing recorder when it dies; the enclosing one then collects
// again.
TEST(PhaseRecord, InnerTotalsAlsoLandInTheEnclosingRecorder) {
  const Workload &W = *findWorkload("ora");
  CompileOptions Opts;
  PhaseRecorder Outer;
  std::vector<uint64_t> Ns, Calls;
  {
    PhaseRecorder Inner;
    ASSERT_TRUE(compileSource(W.Source, W.Name, Opts).ok());
    EXPECT_TRUE(recordedPhases(Outer).empty());
    for (unsigned I = 0; I != NumPhases; ++I) {
      Ns.push_back(Inner.ns(static_cast<Phase>(I)));
      Calls.push_back(Inner.calls(static_cast<Phase>(I)));
    }
  }
  for (unsigned I = 0; I != NumPhases; ++I) {
    EXPECT_EQ(Outer.ns(static_cast<Phase>(I)), Ns[I]) << I;
    EXPECT_EQ(Outer.calls(static_cast<Phase>(I)), Calls[I]) << I;
  }
  ASSERT_TRUE(compileSource(W.Source, W.Name, Opts).ok());
  EXPECT_EQ(Outer.calls(Phase::Lower),
            2 * Calls[static_cast<unsigned>(Phase::Lower)]);
}

// One runCached call's record names the tier that served it (the rule
// documented at runCached): a compute miss runs the oracle, the compiler
// and the simulator; a disk hit only loads and decodes; a memory hit
// records nothing.
TEST(PhaseRecord, RunCachedRecordShowsTheServingTier) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / "bsched-phase-XXXXXX")
          .string();
  ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
  setArtifactStoreDir(Dir);
  clearResultCache();
  const Workload &W = *findWorkload("swm256");
  CompileOptions Opts;
  Opts.Balance.PressureThreshold = 71; // a key no other test computes.

  auto Serve = [&] {
    PhaseRecorder Rec;
    EXPECT_TRUE(runCached(W, Opts).ok());
    return recordedPhases(Rec);
  };
  std::set<std::string> Compute = Serve();
  clearResultCache();
  std::set<std::string> Disk = Serve();
  std::set<std::string> Memory = Serve();
  setArtifactStoreDir("");
  clearResultCache();
  std::filesystem::remove_all(Dir);

  for (const char *P : {"lang.parse", "lang.eval", "lower", "sched.schedule",
                        "regalloc", "sim"})
    EXPECT_TRUE(Compute.count(P)) << P;
  EXPECT_FALSE(Compute.count("driver.decode"));
  EXPECT_EQ(Disk, (std::set<std::string>{"driver.store_load",
                                         "driver.decode"}));
  EXPECT_TRUE(Memory.empty());
}

//===----------------------------------------------------------------------===//
// runWorkload's oracle memo: one evaluation per source text
//===----------------------------------------------------------------------===//

namespace {

/// Evaluations runWorkload has run so far.
uint64_t oracleEvaluations() { return oracleCacheStats().Misses; }

/// A workload named \p Name over the text in \p Source.
Workload textWorkload(const char *Name, const std::string &Source) {
  Workload W = workloads().front();
  W.Name = Name;
  W.Source = Source.c_str();
  return W;
}

} // namespace

// A batch evaluates each of the 17 sources once, at any thread count, and
// every job's result equals a run whose oracle is evaluated afresh.
TEST(OracleMemo, EvaluatesEachSourceOnce) {
  ASSERT_EQ(workloads().size(), 17u);
  CompileOptions Traditional;
  Traditional.Scheduler = sched::SchedulerKind::Traditional;
  CompileOptions Trace;
  Trace.UnrollFactor = 4;
  Trace.TraceScheduling = true;
  std::vector<ExperimentJob> Jobs;
  for (const CompileOptions &O : {CompileOptions(), Traditional, Trace})
    for (const Workload &W : workloads())
      Jobs.push_back({&W, O, {}});

  const unsigned ThreadCounts[] = {1, 4};
  std::vector<RunResult> Memoized[2];
  for (unsigned T = 0; T != 2; ++T) {
    clearResultCache();
    uint64_t Before = oracleEvaluations();
    for (const RunResult *R : runAll(Jobs, ThreadCounts[T]))
      Memoized[T].push_back(*R);
    EXPECT_EQ(oracleEvaluations() - Before, 17u)
        << ThreadCounts[T] << " threads";
  }

  for (size_t I = 0; I != Jobs.size(); ++I) {
    clearResultCache();
    RunResult Fresh = runWorkload(*Jobs[I].W, Jobs[I].Opts);
    EXPECT_TRUE(Fresh.ok()) << Fresh.Error;
    for (unsigned T = 0; T != 2; ++T)
      EXPECT_EQ(firstDifference(Memoized[T][I], Fresh, "memoized", "fresh"),
                "")
          << "job " << I << ", " << ThreadCounts[T] << " threads";
  }
}

// The key is the text alone: one source under two names, in two buffers,
// is evaluated once, and each job's oracle error names that job.
TEST(OracleMemo, OneEvaluationAcrossNames) {
  const std::string Text = "array a[2] output;\n"
                           "a[0] = 1.0;\n"
                           "a[2] = 2.0;\n";
  const std::string Copy = Text;
  Workload First = textWorkload("first", Text);
  Workload Second = textWorkload("second", Copy);

  clearResultCache();
  uint64_t Before = oracleEvaluations();
  RunResult A = runWorkload(First, {});
  RunResult B = runWorkload(Second, {});
  EXPECT_EQ(oracleEvaluations() - Before, 1u);
  EXPECT_EQ(A.Error, "first: oracle: subscript out of bounds on 'a'");
  EXPECT_EQ(B.Error, "second: oracle: subscript out of bounds on 'a'");
}

// clearResultCache also forgets the oracles, so a cold pass stays cold.
TEST(OracleMemo, ClearResultCacheForgetsOracles) {
  const Workload &W = *findWorkload("ora");
  clearResultCache();
  uint64_t Before = oracleEvaluations();
  ASSERT_TRUE(runWorkload(W, {}).ok());
  ASSERT_TRUE(runWorkload(W, {}).ok());
  EXPECT_EQ(oracleEvaluations() - Before, 1u);
  clearResultCache();
  ASSERT_TRUE(runWorkload(W, {}).ok());
  EXPECT_EQ(oracleEvaluations() - Before, 2u);
}

// The memo keys the text, not its address: a buffer rewritten in place is
// evaluated again and checked against its new checksum.
TEST(OracleMemo, SourceRewrittenInPlaceEvaluatesAgain) {
  std::string Buffer = "array a[2] output;\n"
                       "a[0] = 1.0;\n"
                       "a[1] = 2.0;\n";
  Workload W = textWorkload("rewritten", Buffer);

  clearResultCache();
  uint64_t Before = oracleEvaluations();
  RunResult Old = runWorkload(W, {});
  ASSERT_TRUE(Old.ok()) << Old.Error;
  Buffer[Buffer.find("2.0")] = '3';
  ASSERT_EQ(W.Source, Buffer.c_str());
  RunResult New = runWorkload(W, {});
  ASSERT_TRUE(New.ok()) << New.Error;
  EXPECT_EQ(oracleEvaluations() - Before, 2u);
  EXPECT_NE(New.Sim.Checksum, Old.Sim.Checksum);
}
