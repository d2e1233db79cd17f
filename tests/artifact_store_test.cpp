//===- tests/artifact_store_test.cpp - Store fault injection ---------------===//
//
// The persistent artifact store's one inviolable property: a damaged store
// can make runs slower, never wrong and never crashing. This file injects
// every fault class the loader defends against — truncation at arbitrary
// points, single-bit flips anywhere in the file, stale schema versions,
// file-name hash collisions (wrong embedded key), and concurrent writers —
// and asserts each degrades to a counted miss followed by a successful
// recompute that reproduces the undamaged result exactly. Runs under the
// same ctest matrix as everything else, including the ASan configuration.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "driver/Experiment.h"
#include "driver/JobFields.h"
#include "support/Serialize.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// Fresh store directory per test; everything the store writes lands under
/// /tmp and is removed on teardown.
class ArtifactStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Template[] = "/tmp/bsched-store-test-XXXXXX";
    ASSERT_NE(::mkdtemp(Template), nullptr);
    Dir = Template;
    setArtifactStoreDir(Dir);
    setArtifactStoreReads(true);
    resetArtifactStoreStats();
    clearResultCache();
  }
  void TearDown() override {
    setArtifactStoreDir("");
    clearResultCache();
    std::string Cmd = "rm -rf '" + Dir + "'";
    ASSERT_EQ(std::system(Cmd.c_str()), 0);
  }

  static std::string readFile(const std::string &Path) {
    std::ifstream In(Path, std::ios::binary);
    EXPECT_TRUE(In.good()) << Path;
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  }
  static void writeFile(const std::string &Path, const std::string &Bytes) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good()) << Path;
  }

  std::string Dir;
};

TEST_F(ArtifactStoreTest, StoreThenLoadRoundTrips) {
  const std::string Key = "some|experiment|key";
  const std::string Payload = "payload bytes \x01\x02\x00 with nuls";
  ASSERT_TRUE(storeArtifact(Key, Payload));
  std::string Loaded;
  ASSERT_TRUE(loadArtifact(Key, Loaded));
  EXPECT_EQ(Loaded, Payload);
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.Writes, 1u);
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.CorruptRejected, 0u);
}

TEST_F(ArtifactStoreTest, MissingFileIsAMiss) {
  std::string Loaded;
  EXPECT_FALSE(loadArtifact("never stored", Loaded));
  EXPECT_EQ(artifactStoreStats().DiskMisses, 1u);
}

TEST_F(ArtifactStoreTest, EveryTruncationPointRejects) {
  const std::string Key = "trunc-key";
  ASSERT_TRUE(storeArtifact(Key, "0123456789abcdef0123456789abcdef"));
  const std::string Path = artifactPath(Key);
  const std::string Full = readFile(Path);
  ASSERT_GT(Full.size(), 16u);
  for (size_t Cut = 0; Cut != Full.size(); ++Cut) {
    writeFile(Path, Full.substr(0, Cut));
    std::string Loaded = "sentinel";
    EXPECT_FALSE(loadArtifact(Key, Loaded)) << "cut at " << Cut;
  }
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.CorruptRejected, Full.size());
  // The undamaged bytes still verify.
  writeFile(Path, Full);
  std::string Loaded;
  EXPECT_TRUE(loadArtifact(Key, Loaded));
}

TEST_F(ArtifactStoreTest, EveryByteFlipRejects) {
  const std::string Key = "flip-key";
  ASSERT_TRUE(storeArtifact(Key, "a small payload"));
  const std::string Path = artifactPath(Key);
  const std::string Full = readFile(Path);
  for (size_t I = 0; I != Full.size(); ++I) {
    std::string Bad = Full;
    Bad[I] = static_cast<char>(Bad[I] ^ 0x20);
    writeFile(Path, Bad);
    std::string Loaded;
    EXPECT_FALSE(loadArtifact(Key, Loaded)) << "flip at byte " << I;
  }
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.DiskHits, 0u);
  // Every flip lands in some rejection bucket, none in DiskHits. (A flip in
  // the version word that still checksums correctly is impossible — the
  // checksum covers it — so everything lands in CorruptRejected.)
  EXPECT_EQ(S.CorruptRejected, Full.size());
}

TEST_F(ArtifactStoreTest, StaleSchemaVersionRejects) {
  const std::string Key = "version-key";
  ASSERT_TRUE(storeArtifact(Key, "payload"));
  const std::string Path = artifactPath(Key);

  // Craft a file that is internally consistent (magic ok, checksum ok) but
  // carries a bumped schema version: the loader must classify it as
  // version-stale, not corrupt, and must not hand the payload out.
  ByteWriter W;
  W.u32(0x52415342u); // "BSAR"
  W.u32(ArtifactSchemaVersion + 1);
  W.str(Key);
  W.str("payload from the future");
  Fnv1a Sum;
  Sum.str(W.buffer());
  W.u64(Sum.get());
  writeFile(Path, W.buffer());

  std::string Loaded;
  EXPECT_FALSE(loadArtifact(Key, Loaded));
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.VersionRejected, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
}

TEST_F(ArtifactStoreTest, WrongEmbeddedKeyRejects) {
  // Two different keys whose entries we cross-wire on disk: a file-name
  // hash collision in miniature. The embedded-key check must refuse to
  // serve key A's bytes as key B's result.
  const std::string KeyA = "key-a", KeyB = "key-b";
  ASSERT_TRUE(storeArtifact(KeyA, "payload A"));
  ASSERT_TRUE(storeArtifact(KeyB, "payload B"));
  writeFile(artifactPath(KeyB), readFile(artifactPath(KeyA)));

  std::string Loaded;
  EXPECT_FALSE(loadArtifact(KeyB, Loaded));
  EXPECT_EQ(artifactStoreStats().KeyRejected, 1u);
  // Key A itself is untouched.
  EXPECT_TRUE(loadArtifact(KeyA, Loaded));
  EXPECT_EQ(Loaded, "payload A");
}

TEST_F(ArtifactStoreTest, ConcurrentWritersLeaveOneCompleteFile) {
  const std::string Key = "contended-key";
  const std::string Payload(4096, 'x'); // big enough to straddle writes
  constexpr unsigned Writers = 8;
  ThreadPool::parallelForChunked(4, Writers, [&](size_t) {
    EXPECT_TRUE(storeArtifact(Key, Payload));
  });
  std::string Loaded;
  ASSERT_TRUE(loadArtifact(Key, Loaded));
  EXPECT_EQ(Loaded, Payload);
  EXPECT_EQ(artifactStoreStats().Writes, Writers);
}

TEST_F(ArtifactStoreTest, ReadToggleBypassesDiskWithoutDisablingWrites) {
  const std::string Key = "toggle-key";
  ASSERT_TRUE(storeArtifact(Key, "bytes"));
  setArtifactStoreReads(false);
  std::string Loaded;
  EXPECT_FALSE(loadArtifact(Key, Loaded));          // read bypassed...
  EXPECT_TRUE(storeArtifact("other-key", "more")); // ...writes still land
  setArtifactStoreReads(true);
  EXPECT_TRUE(loadArtifact(Key, Loaded));
  EXPECT_EQ(Loaded, "bytes");
}

//===----------------------------------------------------------------------===//
// End to end through runCached
//===----------------------------------------------------------------------===//

/// A corrupted store entry under a real experiment key degrades runCached to
/// recompute — the same result as a store-less run, one corrupt rejection
/// counted, and the recompute repairs the entry on disk.
TEST_F(ArtifactStoreTest, RunCachedRecomputesThroughCorruption) {
  const Workload &W = workloads().front();
  CompileOptions Opts;
  Opts.UnrollFactor = 4;

  // Baseline without any store.
  setArtifactStoreDir("");
  RunResult Baseline = runWorkload(W, Opts);
  ASSERT_TRUE(Baseline.ok()) << Baseline.Error;

  // Populate the store, then vandalize every entry in the directory.
  setArtifactStoreDir(Dir);
  resetArtifactStoreStats();
  const RunResult &First = runCached(W, Opts);
  ASSERT_TRUE(First.ok());
  ASSERT_GE(artifactStoreStats().Writes, 1u);
  std::string Key = resultKey(W, Opts);
  std::string Path = artifactPath(Key);
  std::string Good = readFile(Path);
  std::string Bad = Good;
  Bad[Bad.size() / 2] = static_cast<char>(Bad[Bad.size() / 2] ^ 0xff);
  writeFile(Path, Bad);

  // A fresh memory cache forces the disk tier; the damaged entry must fall
  // through to a recompute with the exact baseline result.
  clearResultCache();
  resetArtifactStoreStats();
  const RunResult &Recomputed = runCached(W, Opts);
  ASSERT_TRUE(Recomputed.ok()) << Recomputed.Error;
  EXPECT_EQ(firstDifference(Recomputed, Baseline, "recomputed", "baseline"),
            "");
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.CorruptRejected, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_GE(S.Writes, 1u); // write-back repaired the entry

  // And the repaired entry now serves a verified disk hit with the same
  // result.
  clearResultCache();
  resetArtifactStoreStats();
  const RunResult &FromDisk = runCached(W, Opts);
  ASSERT_TRUE(FromDisk.ok());
  EXPECT_EQ(firstDifference(FromDisk, Baseline, "disk", "baseline"), "");
  EXPECT_EQ(artifactStoreStats().DiskHits, 1u);
}

/// A stored payload that passes every file-level check but fails typed
/// decoding (schema drift the version salt missed) is reclassified as
/// corrupt and recomputed.
TEST_F(ArtifactStoreTest, UndecodablePayloadDegradesToRecompute) {
  const Workload &W = workloads().front();
  CompileOptions Opts;
  const RunResult &First = runCached(W, Opts);
  ASSERT_TRUE(First.ok());
  RunResult Computed = First; // First dies with the clear below.

  // Replace the entry with a VALID store file whose payload is garbage for
  // the RunResult decoder.
  std::string Key = resultKey(W, Opts);
  ASSERT_TRUE(storeArtifact(Key, "not a RunResult encoding"));

  clearResultCache();
  resetArtifactStoreStats();
  const RunResult &R = runCached(W, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(firstDifference(R, Computed, "recomputed", "computed"), "");
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.CorruptRejected, 1u); // noteArtifactDecodeFailure reclassified
  EXPECT_EQ(S.DiskHits, 0u);        // ...the provisional hit
}

/// The store is keyed on content and code: a workload whose source text
/// changed under the same name, and a key built by other code (another
/// salt), are counted disk misses, never hits on the stale entry.
TEST_F(ArtifactStoreTest, EditedSourceOrOtherCodeMissesTheDisk) {
  const Workload &W = workloads().front();
  CompileOptions Opts;
  ASSERT_TRUE(runCached(W, Opts).ok());
  ASSERT_EQ(artifactStoreStats().Writes, 1u);

  // One more trailing newline: the same program, but other text.
  std::string Edited = std::string(W.Source) + "\n";
  Workload EditedW = W;
  EditedW.Source = Edited.c_str();
  clearResultCache();
  resetArtifactStoreStats();
  ASSERT_TRUE(runCached(EditedW, Opts).ok());
  ArtifactStoreStats S = artifactStoreStats();
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.DiskMisses, 1u);

  resetArtifactStoreStats();
  std::string Blob;
  EXPECT_FALSE(loadArtifact(resultKey(W, Opts, {}, "other code"), Blob));
  S = artifactStoreStats();
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.DiskMisses, 1u);

  // The unchanged job still hits its entry.
  clearResultCache();
  resetArtifactStoreStats();
  ASSERT_TRUE(runCached(W, Opts).ok());
  EXPECT_EQ(artifactStoreStats().DiskHits, 1u);
}

/// Disk-tier results are indistinguishable from computed ones: the same
/// results for a grid of jobs run store-less, store-cold and store-warm.
TEST_F(ArtifactStoreTest, DiskTierMatchesComputeForAGrid) {
  std::vector<ExperimentJob> Jobs;
  const auto &All = workloads();
  CompileOptions Balanced, Unrolled;
  Unrolled.UnrollFactor = 4;
  for (size_t I = 0; I < All.size() && I < 4; ++I) {
    Jobs.push_back({&All[I], Balanced, {}});
    Jobs.push_back({&All[I], Unrolled, {}});
  }

  // Copies: each clearResultCache frees the previous pass's results.
  auto Pass = [&] {
    std::vector<RunResult> Out;
    for (const RunResult *R : runAll(Jobs, 2)) {
      EXPECT_TRUE(R->ok()) << R->Error;
      Out.push_back(*R);
    }
    return Out;
  };
  setArtifactStoreDir("");
  std::vector<RunResult> NoStore = Pass();

  clearResultCache();
  setArtifactStoreDir(Dir);
  std::vector<RunResult> Cold = Pass();

  clearResultCache();
  resetArtifactStoreStats();
  std::vector<RunResult> Warm = Pass();
  EXPECT_EQ(artifactStoreStats().DiskHits, Jobs.size());
  for (size_t I = 0; I != Jobs.size(); ++I) {
    EXPECT_EQ(firstDifference(Cold[I], NoStore[I], "cold", "nostore"), "");
    EXPECT_EQ(firstDifference(Warm[I], NoStore[I], "warm", "nostore"), "");
  }
}

} // namespace
