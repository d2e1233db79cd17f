//===- driver/ArtifactStore.h - Persistent artifact store -------*- C++ -*-===//
///
/// \file
/// A persistent, content-addressed blob store that tiers UNDER the in-memory
/// result caches: memory hit -> disk hit (load + checksum verify + decode)
/// -> compute + write-back. Keys are the exact strings the in-memory caches
/// already use (runCached's key material), salted with ArtifactSchemaVersion
/// and hashed (FNV-1a) into file names; the full key is embedded in every
/// file and compared on load, so a file-name hash collision reads as a miss
/// rather than as someone else's result.
///
/// Trust model: the disk lies. Every load re-derives the payload checksum,
/// validates the magic, the schema version and the embedded key, and parses
/// through the bounds-checked ByteReader — truncated, bit-flipped,
/// version-stale or colliding entries are rejected (counted per cause in
/// ArtifactStoreStats) and the caller recomputes. A rejected or unreadable
/// entry is NEVER an error: the store can only make things faster, not
/// wrong. tests/artifact_store_test injects each fault class and asserts
/// exactly this degradation.
///
/// Writes are atomic (temp file + rename in the store directory), so
/// concurrent writers of the same key — two suite processes, or a writer
/// racing a reader — leave one complete file, never an interleaved one.
///
/// The store is disabled until setArtifactStoreDir gives it a directory;
/// all entry points are no-ops while disabled, so binaries that never opt
/// in keep their exact pre-store behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_ARTIFACTSTORE_H
#define BALSCHED_DRIVER_ARTIFACTSTORE_H

#include <cstdint>
#include <string>

namespace bsched {
namespace driver {

/// Per-process store observability. All counters are monotonic; the suite
/// runner resets them between its cold and warm passes.
struct ArtifactStoreStats {
  uint64_t DiskHits = 0;         ///< loads that returned a verified payload.
  uint64_t DiskMisses = 0;       ///< reads with no file present.
  uint64_t Writes = 0;           ///< successful write-backs.
  uint64_t WriteFailures = 0;    ///< I/O errors while writing (non-fatal).
  uint64_t CorruptRejected = 0;  ///< bad magic, truncation, checksum, decode.
  uint64_t VersionRejected = 0;  ///< schema-version mismatch.
  uint64_t KeyRejected = 0;      ///< embedded key != requested (collision).
};

/// Points the store at \p Dir (created if missing) or disables it with "".
/// Not safe to call concurrently with loads or stores.
void setArtifactStoreDir(const std::string &Dir);

/// The active store directory ("" when disabled).
std::string artifactStoreDir();

/// True when a store directory is configured.
bool artifactStoreEnabled();

/// Toggles disk *reads* (writes are unaffected). The suite runner's forced-
/// cold measurement pass turns reads off so cold timings are honest even
/// when a warm store is already on disk.
void setArtifactStoreReads(bool Enabled);
bool artifactStoreReads();

ArtifactStoreStats artifactStoreStats();
void resetArtifactStoreStats();

/// The file a key persists to (valid whether or not the file exists).
/// Exposed so the fault-injection tests can truncate and flip bytes in the
/// real on-disk entry for a real key.
std::string artifactPath(const std::string &Key);

/// Loads and verifies the blob stored under \p Key. Returns true and fills
/// \p PayloadOut only when the entry passed every check; any failure —
/// absent, truncated, corrupt, version-stale, colliding — returns false
/// after bumping the matching counter. Returns false without touching disk
/// when the store is disabled or reads are off.
bool loadArtifact(const std::string &Key, std::string &PayloadOut);

/// Persists \p Payload under \p Key (atomic temp-file + rename; last writer
/// wins and every observable file is complete). Returns false when the
/// store is disabled or the write failed; callers never need to care.
bool storeArtifact(const std::string &Key, const std::string &Payload);

/// Reclassifies the most recent hit as corrupt: called by a consumer that
/// received a verified blob but could not decode it into the expected type
/// (a schema bug the version salt failed to catch). Keeps the hit/reject
/// counters truthful for the suite report and the fault tests.
void noteArtifactDecodeFailure();

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_ARTIFACTSTORE_H
