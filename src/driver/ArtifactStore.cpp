//===- driver/ArtifactStore.cpp - Persistent artifact store -----------------===//

#include "driver/ArtifactStore.h"

#include "driver/Artifacts.h"
#include "support/Serialize.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace bsched;
using namespace bsched::driver;

namespace {

// File layout, all little-endian:
//   u32 magic  u32 schema-version  str key  str payload  u64 checksum
// where str = u64 length + bytes and the checksum is FNV-1a over every
// preceding byte (header included, so a flipped version or key byte fails
// the checksum too, independent of the field comparisons).
constexpr uint32_t ArtifactMagic = 0x52415342u; // "BSAR"

struct StoreState {
  std::mutex Mu;
  std::string Dir;
  std::atomic<bool> ReadsEnabled{true};

  std::atomic<uint64_t> DiskHits{0};
  std::atomic<uint64_t> DiskMisses{0};
  std::atomic<uint64_t> Writes{0};
  std::atomic<uint64_t> WriteFailures{0};
  std::atomic<uint64_t> CorruptRejected{0};
  std::atomic<uint64_t> VersionRejected{0};
  std::atomic<uint64_t> KeyRejected{0};
};

StoreState &state() {
  static StoreState S;
  return S;
}

/// Key -> file name: FNV-1a over the schema version then the key bytes.
/// The version participates so a schema bump changes the addresses as well
/// as the headers — stale entries become invisible, not just rejected.
std::string fileNameForKey(const std::string &Key) {
  Fnv1a H;
  H.word(ArtifactSchemaVersion);
  H.str(Key);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx.art",
                static_cast<unsigned long long>(H.get()));
  return Buf;
}

/// \p Key's file in the store directory \p Dir.
std::string pathIn(const std::string &Dir, const std::string &Key) {
  return Dir + "/" + fileNameForKey(Key);
}

/// A read-only file descriptor, closed on every path out of its scope.
class ReadOnlyFd {
public:
  explicit ReadOnlyFd(const std::string &Path)
      : Fd(::open(Path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadOnlyFd() {
    if (Fd >= 0)
      ::close(Fd);
  }
  ReadOnlyFd(const ReadOnlyFd &) = delete;
  ReadOnlyFd &operator=(const ReadOnlyFd &) = delete;

  int get() const { return Fd; }

private:
  int Fd;
};

/// Reads the whole of \p Path into \p Out: its size from fstat, then a
/// read loop into a buffer of that size. False, with \p Out unchanged, when
/// the file cannot be opened or read, or ends short of that size.
bool readFile(const std::string &Path, std::string &Out) {
  ReadOnlyFd F(Path);
  struct stat St {};
  if (F.get() < 0 || ::fstat(F.get(), &St) != 0)
    return false;
  std::string Data(static_cast<size_t>(St.st_size), '\0');
  for (size_t Done = 0; Done != Data.size();) {
    ssize_t N = ::read(F.get(), Data.data() + Done, Data.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false; // a read error, or the file shrank since fstat.
    Done += static_cast<size_t>(N);
  }
  Out = std::move(Data);
  return true;
}

} // namespace

void driver::setArtifactStoreDir(const std::string &Dir) {
  StoreState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Dir = Dir;
  if (!Dir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    if (EC)
      S.Dir.clear(); // unusable directory: stay disabled, never throw.
  }
}

std::string driver::artifactStoreDir() {
  StoreState &S = state();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Dir;
}

bool driver::artifactStoreEnabled() { return !artifactStoreDir().empty(); }

void driver::setArtifactStoreReads(bool Enabled) {
  state().ReadsEnabled.store(Enabled, std::memory_order_relaxed);
}

bool driver::artifactStoreReads() {
  return state().ReadsEnabled.load(std::memory_order_relaxed);
}

ArtifactStoreStats driver::artifactStoreStats() {
  StoreState &S = state();
  ArtifactStoreStats R;
  R.DiskHits = S.DiskHits.load(std::memory_order_relaxed);
  R.DiskMisses = S.DiskMisses.load(std::memory_order_relaxed);
  R.Writes = S.Writes.load(std::memory_order_relaxed);
  R.WriteFailures = S.WriteFailures.load(std::memory_order_relaxed);
  R.CorruptRejected = S.CorruptRejected.load(std::memory_order_relaxed);
  R.VersionRejected = S.VersionRejected.load(std::memory_order_relaxed);
  R.KeyRejected = S.KeyRejected.load(std::memory_order_relaxed);
  return R;
}

void driver::resetArtifactStoreStats() {
  StoreState &S = state();
  S.DiskHits.store(0, std::memory_order_relaxed);
  S.DiskMisses.store(0, std::memory_order_relaxed);
  S.Writes.store(0, std::memory_order_relaxed);
  S.WriteFailures.store(0, std::memory_order_relaxed);
  S.CorruptRejected.store(0, std::memory_order_relaxed);
  S.VersionRejected.store(0, std::memory_order_relaxed);
  S.KeyRejected.store(0, std::memory_order_relaxed);
}

std::string driver::artifactPath(const std::string &Key) {
  std::string Dir = artifactStoreDir();
  if (Dir.empty())
    return std::string();
  return pathIn(Dir, Key);
}

bool driver::loadArtifact(const std::string &Key, std::string &PayloadOut) {
  std::string Dir = artifactStoreDir();
  if (Dir.empty() || !artifactStoreReads())
    return false;
  StoreState &S = state();

  std::string Data;
  if (!readFile(pathIn(Dir, Key), Data)) {
    S.DiskMisses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Checksum over everything but the trailing checksum word itself. Checked
  // before any field is interpreted so no corrupt byte — in header, key or
  // payload — survives to the comparisons below.
  if (Data.size() < 8) {
    S.CorruptRejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  size_t BodyLen = Data.size() - 8;
  uint64_t Stored = 0;
  for (int I = 0; I != 8; ++I)
    Stored |= static_cast<uint64_t>(
                  static_cast<unsigned char>(Data[BodyLen + I]))
              << (8 * I);
  if (fnv1a(Data.data(), BodyLen) != Stored) {
    S.CorruptRejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  ByteReader R(Data.data(), BodyLen);
  if (R.u32() != ArtifactMagic) {
    S.CorruptRejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (R.u32() != ArtifactSchemaVersion) {
    S.VersionRejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (R.str() != Key || !R.ok()) {
    // With the checksum already verified this is a genuine file-name hash
    // collision (or a truncated key read): someone else's artifact.
    S.KeyRejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string Payload = R.str();
  if (!R.ok() || !R.atEnd()) {
    S.CorruptRejected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  S.DiskHits.fetch_add(1, std::memory_order_relaxed);
  PayloadOut = std::move(Payload);
  return true;
}

bool driver::storeArtifact(const std::string &Key, const std::string &Payload) {
  std::string Dir = artifactStoreDir();
  if (Dir.empty())
    return false;
  StoreState &S = state();

  ByteWriter W;
  W.u32(ArtifactMagic);
  W.u32(ArtifactSchemaVersion);
  W.str(Key);
  W.str(Payload);
  uint64_t Check = fnv1a(W.buffer());
  W.u64(Check);

  // Unique temp name per write (pid + process-wide counter), renamed into
  // place: a reader either sees the old complete file or the new complete
  // file, and concurrent writers of one key resolve to last-writer-wins.
  static std::atomic<uint64_t> Seq{0};
  std::string Final = pathIn(Dir, Key);
  std::string Tmp = Final + ".tmp." +
                    std::to_string(static_cast<unsigned long>(::getpid())) +
                    "." +
                    std::to_string(Seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      S.WriteFailures.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Out.write(W.buffer().data(),
              static_cast<std::streamsize>(W.buffer().size()));
    Out.flush();
    if (!Out) {
      S.WriteFailures.fetch_add(1, std::memory_order_relaxed);
      Out.close();
      std::error_code EC;
      std::filesystem::remove(Tmp, EC);
      return false;
    }
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    S.WriteFailures.fetch_add(1, std::memory_order_relaxed);
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  S.Writes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void driver::noteArtifactDecodeFailure() {
  StoreState &S = state();
  S.DiskHits.fetch_sub(1, std::memory_order_relaxed);
  S.CorruptRejected.fetch_add(1, std::memory_order_relaxed);
}
