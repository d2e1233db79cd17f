//===- fuzz/Configs.h - Canonical differential-testing configs --*- C++ -*-===//
///
/// \file
/// The one shared list of compiler configurations and machine models that
/// differential testing sweeps. Historically three tests carried hand-copied
/// variants of these lists (fuzz_test, sim_equivalence_test, golden_sim_test);
/// they and the other differential tests now include this header, and the
/// coverage-guided fuzzer (fuzz::runFuzzer / bsched-fuzz) consumes the same
/// list — so a config added here is exercised by the fixed-seed sweeps, the
/// twin-equivalence tests and the fuzzer alike.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_FUZZ_CONFIGS_H
#define BALSCHED_FUZZ_CONFIGS_H

#include "driver/Compiler.h"
#include "sim/Machine.h"

#include <optional>
#include <string>
#include <vector>

namespace bsched {
namespace fuzz {

/// The compiler configurations that exercise distinct code paths: both
/// scheduler kinds plain/unrolled/traced, the estimated-profile and hybrid
/// paths, lowering options off, and three register-pressure regimes through
/// near-minimal register files. Every entry keeps VerifyPasses on.
std::vector<driver::CompileOptions> differentialCompileConfigs();

/// A named machine model for simulator differential testing.
struct MachinePoint {
  const char *Tag;
  sim::MachineConfig Config;
};

/// The paper's 21164 (all defaults).
sim::MachineConfig machine21164();
/// The 1993 stochastic simple model at \p HitRate.
sim::MachineConfig simpleModelMachine(double HitRate);
/// Back-end only: no instruction-fetch modeling.
sim::MachineConfig perfectFrontEndMachine();
/// In-order superscalar of width \p W, optionally with a perfect front end.
sim::MachineConfig widthMachine(unsigned W, bool Pfe = false);
/// Near-minimal resources: 2-entry TLBs, 2 MSHRs, a 1-entry write buffer,
/// tiny caches and predictor. Every stall path fires constantly, MSHR and
/// write-buffer pressure is permanent, and the 2-entry TLBs miss on most
/// accesses, so their miss scan and hint re-pointing run constantly.
sim::MachineConfig starvedMachine();
/// Non-power-of-two geometry everywhere: set counts of 150/100/1875, a
/// 1000-byte page. Exercises the division/modulo fallbacks of the fast
/// cache/TLB models (the shift/mask paths cannot engage).
sim::MachineConfig oddGeometryMachine();

/// Machine models the fuzzer and FuzzSim-style differential tests run both
/// simulator cores under: the full 21164, the simple model, and the starved
/// machine (constant stall pressure).
std::vector<MachinePoint> differentialMachinePoints();

/// Machine models whose statistics golden_sim_test pins per workload.
std::vector<MachinePoint> goldenMachinePoints();

/// Looks up a machine by tag: "21164", "simple80", "simple95", "starved",
/// "oddgeom", "pfe", "w2" or "w4". Any other tag, the empty one included,
/// yields std::nullopt.
std::optional<sim::MachineConfig> machineByTag(const std::string &Tag);

} // namespace fuzz
} // namespace bsched

#endif // BALSCHED_FUZZ_CONFIGS_H
