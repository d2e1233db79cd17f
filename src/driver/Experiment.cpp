//===- driver/Experiment.cpp - Experiment harness ---------------------------===//

#include "driver/Experiment.h"

#include "driver/ArtifactStore.h"
#include "driver/Artifacts.h"
#include "driver/JobFields.h"
#include "lang/Eval.h"
#include "support/PhaseRecord.h"
#include "support/Serialize.h"
#include "support/ThreadPool.h"

#include <bit>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

using namespace bsched;
using namespace bsched::driver;

namespace {

/// What the oracle memo files an evaluation under: the source text's
/// wordDigest and length. The oracle reads the text alone, so no name,
/// option or machine field belongs here.
struct SourceId {
  uint64_t Digest;
  uint64_t Len;
  bool operator==(const SourceId &) const = default;
};

} // namespace

template <> struct std::hash<SourceId> {
  size_t operator()(const SourceId &S) const { return S.Digest; }
};

namespace {

ShardedMemo<std::string, RunResult> &results() {
  static ShardedMemo<std::string, RunResult> Memo;
  return Memo;
}

ShardedMemo<SourceId, lang::EvalResult> &oracles() {
  static ShardedMemo<SourceId, lang::EvalResult> Memo;
  return Memo;
}

} // namespace

MemoStats driver::oracleCacheStats() { return oracles().stats(); }

RunResult driver::runWorkload(const Workload &W, const CompileOptions &Opts,
                              const sim::MachineConfig &Machine) {
  RunResult R;

  lang::Program P = inPhase(Phase::Parse, [&] { return parseWorkload(W); });
  std::shared_ptr<const lang::EvalResult> Ref = inPhase(Phase::Eval, [&] {
    size_t Len = std::strlen(W.Source);
    return oracles().get({wordDigest(W.Source, Len), Len},
                         [&] { return lang::evalProgram(P); });
  });
  if (!Ref->ok()) {
    R.Error = std::string(W.Name) + ": oracle: " + Ref->Error;
    return R;
  }

  CompileResult C = compileProgram(P, Opts);
  if (!C.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + C.Error;
    return R;
  }
  R.Unroll = C.Unroll;
  R.Locality = C.Locality;
  R.Trace = C.Trace;
  R.RegAlloc = C.RegAlloc;

  R.Sim = inPhase(Phase::Sim, [&] { return sim::simulate(C.M, Machine); });
  if (!R.Sim.ok()) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() + "]: " + R.Sim.Error;
    return R;
  }
  if (!R.Sim.Finished) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: simulation exceeded the cycle budget";
    return R;
  }
  if (R.Sim.Checksum != Ref->Checksum) {
    R.Error = std::string(W.Name) + " [" + Opts.tag() +
              "]: MISCOMPILE - simulated checksum differs from the oracle";
    return R;
  }
  return R;
}

ResultCacheStats driver::resultCacheStats() { return results().stats(); }

std::string driver::resultKey(const Workload &W, const CompileOptions &Opts,
                              const sim::MachineConfig &Machine,
                              std::string_view Salt) {
  // Keys are compared and persisted as bytes: fixed-width native copies are
  // canonical on the little-endian hosts this project builds for.
  static_assert(std::endian::native == std::endian::little);
  uint64_t Digest = wordDigest(W.Source, std::strlen(W.Source));
  size_t NameLen = std::strlen(W.Name);
  std::string Key(Salt.size() + sizeof(Digest) + leafBytes<CompileOptions>() +
                      leafBytes<sim::MachineConfig>() + NameLen,
                  '\0');
  char *Out = Key.data();
  auto Put = [&Out](const void *Data, size_t Len) {
    std::memcpy(Out, Data, Len);
    Out += Len;
  };
  auto PutLeaf = [&Put](const FieldPath &, const FixedWidth auto &V) {
    Put(&V, sizeof(V));
  };
  Put(Salt.data(), Salt.size());
  Put(&Digest, sizeof(Digest));
  forEachLeaf(PutLeaf, Opts);
  forEachLeaf(PutLeaf, Machine);
  Put(W.Name, NameLen);
  return Key;
}

void driver::clearResultCache() {
  results().clear();
  oracles().clear();
}

const RunResult &driver::runCached(const Workload &W,
                                   const CompileOptions &Opts,
                                   const sim::MachineConfig &Machine) {
  std::string Key = resultKey(W, Opts, Machine);
  // The memo keeps the entry alive until clearResultCache, so the
  // reference outlives the returned pointer.
  return *results().get(Key, [&] {
    // Disk tier: a verified, decodable artifact substitutes for the
    // compute. Anything less degrades to runWorkload — a bad disk entry
    // can cost time, never correctness.
    std::string Blob;
    if (inPhase(Phase::StoreLoad, [&] { return loadArtifact(Key, Blob); })) {
      PhaseScope S(Phase::Decode);
      ByteReader Rd(Blob);
      RunResult Loaded;
      if (decode(Rd, Loaded) && Rd.atEnd())
        return Loaded;
      noteArtifactDecodeFailure();
    }
    RunResult R = runWorkload(W, Opts, Machine);
    // Persist only clean results: errors are cheap to re-derive and must
    // not outlive the bug (or transient condition) that caused them.
    if (R.ok() && artifactStoreEnabled()) {
      ByteWriter Wr;
      encode(Wr, R);
      storeArtifact(Key, Wr.buffer());
    }
    return R;
  });
}

std::vector<const RunResult *>
driver::runAll(const std::vector<ExperimentJob> &Jobs, unsigned NumThreads) {
  std::vector<const RunResult *> Results(Jobs.size(), nullptr);
  ThreadPool::parallelForChunked(NumThreads, Jobs.size(), [&](size_t I) {
    const ExperimentJob &J = Jobs[I];
    Results[I] = &runCached(*J.W, J.Opts, J.Machine);
  });
  return Results;
}

double driver::mean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double Sum = 0.0;
  for (double X : Xs)
    Sum += X;
  return Sum / static_cast<double>(Xs.size());
}

double driver::speedup(const RunResult &Base, const RunResult &New) {
  if (New.Sim.Cycles == 0)
    return 0.0;
  return static_cast<double>(Base.Sim.Cycles) /
         static_cast<double>(New.Sim.Cycles);
}

double driver::pctDecrease(uint64_t Base, uint64_t New) {
  if (Base == 0)
    return 0.0;
  return (static_cast<double>(Base) - static_cast<double>(New)) /
         static_cast<double>(Base);
}
