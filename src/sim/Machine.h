//===- sim/Machine.h - Alpha 21164-like timing simulator --------*- C++ -*-===//
///
/// \file
/// Execution-driven timing simulator modelling the DEC Alpha 21164 the way
/// section 4.3 describes: single instruction issue (deliberately, to isolate
/// balanced scheduling's ability to exploit load-level parallelism),
/// in-order with scoreboard interlocks, a lockup-free first-level data cache
/// (six outstanding misses), a three-level cache hierarchy plus memory,
/// instruction and data TLBs, and 2-bit branch prediction.
///
/// It also implements the stochastic "simple model" of the original balanced
/// scheduling study (Kerns & Eggers 1993) — single-cycle fixed-latency
/// instructions, probabilistic cache behaviour, perfect front end — used by
/// the section 5.5 model-comparison experiment.
///
/// The simulator reports the metrics the paper's tables need: total cycles,
/// load-interlock and fixed-latency-interlock cycles, and dynamic
/// instruction counts by category (short/long integer, short/long floating
/// point, loads, stores, branches, spills and restores).
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SIM_MACHINE_H
#define BALSCHED_SIM_MACHINE_H

#include "ir/IR.h"

#include <cstdint>
#include <string>

namespace bsched {
namespace sim {

/// One cache level. Latency is the total load-to-use latency when the access
/// is satisfied at this level (Table 2 style), not an incremental lookup.
struct CacheConfig {
  uint64_t SizeBytes;
  unsigned LineSize;
  unsigned Assoc;
  int Latency;
};

/// Selects between the optimized simulator core (the default) and the seed
/// implementation preserved in ReferenceMachine.cpp. The two produce
/// bit-identical SimResults for every configuration (asserted by
/// sim_equivalence_test and the golden sim-stats test); the reference exists
/// as a correctness oracle and as the baseline bench_sim_throughput measures
/// speedups against — the same twin pattern as sched::SchedImpl.
enum class SimImpl : uint8_t { Fast, Reference };

// Fixed parameters of every machine the simulator models.

/// Per-cycle slot limits of the in-order superscalar (IssueWidth > 1), as
/// on the 21164: integer ALU + branch, floating point, loads + stores.
constexpr unsigned MaxIntPerCycle = 2;
constexpr unsigned MaxFpPerCycle = 2;
constexpr unsigned MaxMemPerCycle = 1;

/// Instruction addresses start here so code and data do not collide in the
/// unified L2/L3.
constexpr uint64_t CodeBase = 1ull << 28;

/// The simple model's hit latency and the seed of its hit/miss draws.
constexpr int SimpleHitLatency = 2;
constexpr uint64_t SimpleSeed = 12345;

struct MachineConfig {
  // Memory hierarchy (Table 2). The 21164: 8KB direct-mapped L1 caches with
  // 32-byte lines, a 96KB 3-way on-chip L2, a board-level L3, ~50-cycle
  // memory ("the maximum load latency is 50 cycles", footnote 1).
  CacheConfig L1D{8 * 1024, 32, 1, ir::LoadHitLatency};
  CacheConfig L1I{8 * 1024, 32, 1, 1};
  CacheConfig L2{96 * 1024, 32, 3, 8};
  CacheConfig L3{2 * 1024 * 1024, 64, 1, 20};
  int MemoryLatency = 50;

  unsigned NumMSHRs = 6; ///< 21164 miss-address-file entries.
  unsigned WriteBufferEntries = 6;

  unsigned DTlbEntries = 64;
  unsigned ITlbEntries = 48;
  unsigned PageSize = 8 * 1024;
  int TlbRefillLatency = 30;

  unsigned BranchPredictorEntries = 1024; ///< 2-bit counters.
  int BranchMispredictPenalty = 5;

  // --- Issue model ---------------------------------------------------------
  // The paper deliberately simulates single issue "to understand fully
  // balanced scheduling's ability to exploit load-level parallelism before
  // applying it to multiple-issue processors". Widths > 1 implement the
  // paper's stated future work: an in-order superscalar with the per-cycle
  // slot limits MaxIntPerCycle, MaxFpPerCycle and MaxMemPerCycle, issuing
  // in order until a slot or operand is unavailable.
  unsigned IssueWidth = 1;

  /// Analysis toggle: skip instruction-fetch modeling (I-cache and ITLB),
  /// isolating back-end effects. The cycle-accuracy tests use this; the
  /// paper's experiments keep the full front end.
  bool PerfectFrontEnd = false;

  // --- Simple stochastic model (section 5.5 / the 1993 study) -------------
  bool SimpleModel = false;
  double SimpleHitRate = 0.95; ///< the 1993 study used 0.80 and 0.95.
  int SimpleMissLatency = 24; ///< 1990-era miss cost over a bus interconnect.

  /// Simulator-core implementation; results are bit-identical either way.
  SimImpl Impl = SimImpl::Fast;
};

/// Dynamic instruction counts, bucketed as in section 4.3. Spill/restore
/// instructions are counted in their own buckets only.
struct InstrCounts {
  uint64_t ShortInt = 0, LongInt = 0;
  uint64_t ShortFp = 0, LongFp = 0;
  uint64_t Loads = 0, Stores = 0, Branches = 0;
  uint64_t Spills = 0, Restores = 0;

  uint64_t total() const {
    return ShortInt + LongInt + ShortFp + LongFp + Loads + Stores + Branches +
           Spills + Restores;
  }
};

struct CacheStats {
  uint64_t Accesses = 0, Misses = 0;

  double missRate() const {
    return Accesses == 0 ? 0.0
                         : static_cast<double>(Misses) /
                               static_cast<double>(Accesses);
  }
};

struct SimResult {
  bool Finished = false; ///< false = cycle budget exhausted.
  std::string Error;     ///< non-empty on configuration/runtime error.
  uint64_t Checksum = 0;

  uint64_t Cycles = 0;
  InstrCounts Counts;

  // Interlock attribution (the paper's key metric split).
  uint64_t LoadInterlockCycles = 0;  ///< stalls on values produced by loads.
  uint64_t FixedInterlockCycles = 0; ///< stalls on fixed-latency producers.

  // Other stall sources.
  uint64_t ICacheStallCycles = 0;
  uint64_t ITlbStallCycles = 0;
  uint64_t DTlbStallCycles = 0;
  uint64_t BranchPenaltyCycles = 0;
  uint64_t MshrStallCycles = 0;
  uint64_t WriteBufferStallCycles = 0;

  CacheStats L1D, L2, L3, L1I;
  uint64_t DTlbMisses = 0, ITlbMisses = 0;
  uint64_t BranchMispredicts = 0;

  bool ok() const { return Error.empty(); }
  double loadInterlockShare() const {
    return Cycles == 0 ? 0.0
                       : static_cast<double>(LoadInterlockCycles) /
                             static_cast<double>(Cycles);
  }
};

/// Simulates \p M (laid out, physical registers only) to completion or until
/// \p MaxCycles. The returned checksum matches ir::interpret's for the same
/// module — the standing cross-check between the timing and functional
/// models. The configuration is validated up front; a malformed
/// MachineConfig (zero-set cache, zero-entry TLB or predictor, ...) yields
/// SimResult::Error instead of undefined behaviour.
SimResult simulate(const ir::Module &M, const MachineConfig &Config = {},
                   uint64_t MaxCycles = 50000000000ull);

/// Human-readable description of the first problem with \p Config, or empty
/// when it is simulable. simulate() calls this; exposed for tests and for
/// callers that want to fail fast before compiling.
std::string validateMachineConfig(const MachineConfig &Config);

} // namespace sim
} // namespace bsched

#endif // BALSCHED_SIM_MACHINE_H
