//===- tests/suite_test.cpp - Suite output byte-identity -------------------===//
//
// The suite runner's determinism contract, tested in-process on Tables 1-4:
// a table's run() bytes are invariant
//
//  * across thread counts of the warmup fan-out,
//  * across cache tiers — freshly computed, memory-warm, and
//    disk-warm (loaded back from a persistent store), and
//  * across table order (deduplicated jobs shared between Tables 1 and 4).
//
// Tables 1-4 are also pinned to known bytes: each one's output FNV-1a must
// equal its line in perfbench/pinned_fnv.txt. This runs the Table 2 and 3
// latency probes in the ctest matrix, where ASan/UBSan run. And once its
// grid is warm, a table's run() computes nothing: it only reads cells.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "driver/ArtifactStore.h"
#include "driver/ProfileCache.h"
#include "support/PhaseRecord.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <unistd.h>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

BSCHED_SUITE_DECLARE(table1_workload)
BSCHED_SUITE_DECLARE(table2_memory)
BSCHED_SUITE_DECLARE(table3_latency)
BSCHED_SUITE_DECLARE(table4_unroll_bs)

namespace {

/// Tables 1-4, the tables these tests run.
std::vector<SuiteTable> testTables() {
  return {bsched_suite_table_table1_workload(),
          bsched_suite_table_table2_memory(),
          bsched_suite_table_table3_latency(),
          bsched_suite_table_table4_unroll_bs()};
}

void clearMemoryCaches() {
  clearResultCache();
  clearProfileCache();
}

/// The pinned output FNV-1a of every suite table: "<name> <hex>" lines, '#'
/// starting a comment.
std::map<std::string, uint64_t> pinnedFnvs() {
  std::map<std::string, uint64_t> Pins;
  std::ifstream In(BSCHED_PINNED_FNV);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Name, Hex;
    if (Line.empty() || Line[0] == '#' || !(Fields >> Name >> Hex))
      continue;
    Pins[Name] = std::stoull(Hex, nullptr, 16);
  }
  return Pins;
}

/// Captures one table's run() output. captureStdout wants a plain function
/// pointer, so the table under capture is passed through a file-scope slot.
const SuiteTable *Current = nullptr;
std::string captureTable(const SuiteTable &T) {
  Current = &T;
  std::string Out;
  int Rc = captureStdout([] { return Current->Run(); }, Out);
  EXPECT_EQ(Rc, 0) << T.Name;
  EXPECT_FALSE(Out.empty()) << T.Name;
  return Out;
}

class SuiteTest : public ::testing::Test {
protected:
  void SetUp() override {
    setArtifactStoreDir("");
    clearMemoryCaches();
  }
  void TearDown() override {
    setArtifactStoreDir("");
    clearMemoryCaches();
    if (!Dir.empty()) {
      std::string Cmd = "rm -rf '" + Dir + "'";
      ASSERT_EQ(std::system(Cmd.c_str()), 0);
    }
  }
  void makeStoreDir() {
    char Template[] = "/tmp/bsched-suite-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Template), nullptr);
    Dir = Template;
  }
  std::string Dir;
};

TEST_F(SuiteTest, OutputInvariantAcrossThreadCounts) {
  for (const SuiteTable &T : testTables()) {
    runAll(T.Jobs(), 1);
    std::string Seq = captureTable(T);

    clearMemoryCaches();
    runAll(T.Jobs(), 3);
    std::string Par = captureTable(T);
    EXPECT_EQ(Seq, Par) << T.Name
                        << ": output depends on warmup thread count";
  }
}

TEST_F(SuiteTest, OutputInvariantAcrossCacheTiers) {
  makeStoreDir();
  for (const SuiteTable &T : testTables()) {
    // Tier 0: pure compute, no store anywhere.
    setArtifactStoreDir("");
    clearMemoryCaches();
    std::string Computed = captureTable(T);

    // Tier 1: memory-warm (the emitter re-reads what the fan-out cached).
    runAll(T.Jobs(), 2);
    std::string MemoryWarm = captureTable(T);

    // Tier 2: disk-warm — recompute with the store attached (memory caches
    // cleared so the write-back path actually runs), wipe memory, reload.
    setArtifactStoreDir(Dir);
    resetArtifactStoreStats();
    clearMemoryCaches();
    runAll(T.Jobs(), 2);
    ASSERT_GT(artifactStoreStats().Writes, 0u) << T.Name;
    clearMemoryCaches();
    std::string DiskWarm = captureTable(T);
    EXPECT_GT(artifactStoreStats().DiskHits, 0u) << T.Name;

    EXPECT_EQ(Computed, MemoryWarm) << T.Name;
    EXPECT_EQ(Computed, DiskWarm)
        << T.Name << ": disk-tier bytes differ from computed bytes";
  }
}

TEST_F(SuiteTest, TablesMatchPinnedFnv) {
  std::map<std::string, uint64_t> Pins = pinnedFnvs();
  ASSERT_FALSE(Pins.empty()) << "cannot read " << BSCHED_PINNED_FNV;
  for (const SuiteTable &T : testTables()) {
    clearMemoryCaches();
    runAll(T.Jobs(), 2);
    uint64_t Fnv = fnv1a(captureTable(T));
    auto Pin = Pins.find(T.Name);
    ASSERT_NE(Pin, Pins.end()) << T.Name << ": no pinned FNV";
    EXPECT_EQ(Fnv, Pin->second)
        << T.Name << ": output FNV-1a " << std::hex << Fnv
        << " differs from the pinned " << Pin->second;
  }
}

// A table's run() only reads the cells its jobs() declared: once they are in
// memory it records no phase at all — no parse, evaluation, compile,
// simulation or store load (runCached's tier note).
TEST_F(SuiteTest, RunComputesNothingOutsideTheGrid) {
  for (const SuiteTable &T : testTables()) {
    clearMemoryCaches();
    runAll(T.Jobs(), 2);
    PhaseRecorder Rec;
    captureTable(T);
    for (unsigned P = 0; P != NumPhases; ++P)
      EXPECT_EQ(Rec.calls(static_cast<Phase>(P)), 0u)
          << T.Name << ": run() recorded " << phaseName(static_cast<Phase>(P));
  }
}

TEST_F(SuiteTest, TablesShareDedupedJobs) {
  // Table 1's whole grid is a subset of Table 4's unroll-1 column: the
  // suite-level dedup must collapse it to zero extra jobs, and running the
  // tables back to back off one cache must not change either's bytes.
  std::vector<SuiteTable> Tables = {bsched_suite_table_table1_workload(),
                                    bsched_suite_table_table4_unroll_bs()};
  std::unordered_set<std::string> Keys;
  for (const driver::ExperimentJob &J : Tables[1].Jobs())
    Keys.insert(resultKey(*J.W, J.Opts, J.Machine));
  size_t Overlap = 0;
  for (const driver::ExperimentJob &J : Tables[0].Jobs())
    Overlap += Keys.count(resultKey(*J.W, J.Opts, J.Machine));
  EXPECT_EQ(Overlap, Tables[0].Jobs().size());

  // Solo runs, fresh cache each.
  clearMemoryCaches();
  runAll(Tables[0].Jobs(), 2);
  std::string Solo1 = captureTable(Tables[0]);
  clearMemoryCaches();
  runAll(Tables[1].Jobs(), 2);
  std::string Solo4 = captureTable(Tables[1]);

  // Suite-style run: deduped union of both grids, one shared cache.
  clearMemoryCaches();
  std::vector<driver::ExperimentJob> Union;
  std::unordered_set<std::string> Seen;
  for (const SuiteTable &T : Tables)
    for (driver::ExperimentJob J : T.Jobs())
      if (Seen.insert(resultKey(*J.W, J.Opts, J.Machine)).second)
        Union.push_back(J);
  runAll(Union, 2);
  EXPECT_EQ(captureTable(Tables[0]), Solo1);
  EXPECT_EQ(captureTable(Tables[1]), Solo4);
}

} // namespace
