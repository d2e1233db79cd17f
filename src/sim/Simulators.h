//===- sim/Simulators.h - Internal simulator-core entry points --*- C++ -*-===//
///
/// \file
/// Internal (non-installed) declarations of the two simulator cores behind
/// sim::simulate. Machine.cpp validates the configuration and dispatches on
/// MachineConfig::Impl; the cores live in FastMachine.cpp (predecoded
/// micro-op pipeline with fast memory-system models) and
/// ReferenceMachine.cpp (the seed simulator, preserved verbatim as the
/// differential-testing oracle).
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SIM_SIMULATORS_H
#define BALSCHED_SIM_SIMULATORS_H

#include "sim/Machine.h"

namespace bsched {
namespace sim {
namespace detail {

/// The seed simulator: generic executeInstr per dynamic instruction,
/// fully-associative linear TLB scans, map-backed MSHRs.
SimResult simulateReference(const ir::Module &M, const MachineConfig &Config,
                            uint64_t MaxCycles);

/// The optimized core: per-block predecoded micro-ops, hinted/one-probe
/// memory system fast paths, run-based fetch modeling. Bit-identical
/// results.
SimResult simulateFast(const ir::Module &M, const MachineConfig &Config,
                       uint64_t MaxCycles);

} // namespace detail
} // namespace sim
} // namespace bsched

#endif // BALSCHED_SIM_SIMULATORS_H
