//===- perfbench/Spans.h - Per-job layer spans, recorded from outside -----===//
///
/// \file
/// The traced run composes each job from the repository's layer functions
/// and records one span per call: layer, start, end and the span that
/// caused it. A job's spans live in its own JobTrace (one writer per job, so
/// no locking), are kept in memory for the whole run, and are written out
/// when the benchmark ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One entry per layer boundary the composition crosses. Job and Compile
/// are containers; every other layer is a leaf.
enum class Layer : uint8_t {
  Job,
  Parse,      ///< parseWorkload / checkProgram (front end).
  Eval,       ///< lang::evalProgram, the AST oracle.
  Compile,    ///< the compileProgram-equivalent sequence below.
  Locality,   ///< locality::applyLocality.
  Unroll,     ///< xform::unrollLoops.
  Lower,      ///< lower::lowerProgram.
  Cleanup,    ///< opt::cleanupModule.
  Profile,    ///< profileModule / estimatedProfileModule.
  TraceSched, ///< trace::traceScheduleFunction.
  Sched,      ///< sched::scheduleFunction.
  Verify,     ///< verify::* and ir::verify, with their module snapshots.
  RegAlloc,   ///< regalloc::allocateRegisters.
  Sim,        ///< sim::simulate.
  StoreLoad,  ///< driver::loadArtifact.
  Decode,     ///< driver::decode.
  NumLayers
};

constexpr unsigned NumLayers = static_cast<unsigned>(Layer::NumLayers);

/// Metric-name stem of each layer, in Layer order.
inline const char *layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "job",          "lang.parse",     "lang.eval", "compile",
      "locality",     "xform.unroll",   "lower",     "opt.cleanup",
      "profile",      "trace.schedule", "sched.schedule",
      "verify",       "regalloc",       "sim",       "driver.store_load",
      "driver.decode"};
  return Names[static_cast<unsigned>(L)];
}

struct Span {
  Layer L = Layer::Job;
  int Parent = -1; ///< index into JobTrace::Spans; -1 for the job span.
  uint64_t Start = 0, End = 0;
};

/// Everything the traced run learns about one job.
struct JobTrace {
  std::vector<Span> Spans;
  uint64_t EvalCalls = 0;
  uint64_t LowerInstrs = 0; ///< IR instructions right after lowering.
  uint64_t OptInstrs = 0;   ///< IR instructions right after cleanup.
  uint64_t SimInstrs = 0;   ///< dynamic instructions simulated.
  uint64_t Spills = 0;      ///< spill stores regalloc inserted.
  std::string Bytes;        ///< normalized encoding of the composed result.
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
public:
  SpanScope(JobTrace &T, Layer L, int Parent) : T(T) {
    Index = static_cast<int>(T.Spans.size());
    T.Spans.push_back({L, Parent, nowNs(), 0});
  }
  ~SpanScope() { T.Spans[static_cast<size_t>(Index)].End = nowNs(); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  int index() const { return Index; }

private:
  JobTrace &T;
  int Index;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
