//===- tests/golden_sim_test.cpp - Simulator statistics goldens ------------===//
//
// Pins the timing simulator's reported statistics down to the bit: every
// workload, simulated under a spread of machine configurations, must hash to
// the checked-in value in golden_sim_stats.inc. The hash covers EVERY
// SimResult field — cycles, the interlock split, each stall source, cache
// and TLB counters, predictor stats, the instruction-mix buckets, and the
// checksum — so any change to simulated behaviour (intended or not) shows up
// as a diff of that file. Each result is hashed after a round trip through
// the artifact codec, so a stored result reproduces its golden. Together
// with sim_equivalence_test (Fast == Reference) this is the contract that
// lets the simulator core be rewritten for speed: the goldens pin the
// numbers, the equivalence test pins the twin.
//
// Regenerating after an intentional model change:
//   BSCHED_GOLDEN_REGEN=1 ./golden_sim_test > tests/golden_sim_stats.inc
//
//===----------------------------------------------------------------------===//

#include "driver/Artifacts.h"
#include "driver/Experiment.h"
#include "driver/JobFields.h"
#include "fuzz/Configs.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

using namespace bsched;
using namespace bsched::driver;
using namespace bsched::sim;

namespace {

/// Every numeric SimResult field in list order (driver/JobFields.h), in
/// decimal with a ',' after each. The golden hash is over this string, so no
/// statistic can drift unnoticed. Error, the one string field, is checked
/// empty instead.
std::string dumpResult(const SimResult &R) {
  std::string S;
  forEachLeaf(
      [&S](const FieldPath &, const auto &V) {
        if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(V)>>) {
          S += std::to_string(static_cast<uint64_t>(V));
          S += ',';
        }
      },
      R);
  return S;
}

struct GoldenRow {
  const char *Machine;
  const char *Workload;
  uint64_t Hash;
};

const GoldenRow GoldenTable[] = {
#include "golden_sim_stats.inc"
    {"", "", 0}, // sentinel so the array is never empty pre-regeneration
};

const GoldenRow *findGolden(const std::string &Machine,
                            const std::string &Workload) {
  for (const GoldenRow &R : GoldenTable)
    if (Machine == R.Machine && Workload == R.Workload)
      return &R;
  return nullptr;
}

} // namespace

TEST(GoldenSimStats, EveryWorkloadMatchesPinnedStats) {
  bool Regen = std::getenv("BSCHED_GOLDEN_REGEN") != nullptr;
  CompileOptions Opts;
  Opts.UnrollFactor = 4;  // spills and bigger blocks make the stats richer
  Opts.VerifyPasses = false;
  // The pinned machine list is shared with the fuzzer; the hashes in
  // golden_sim_stats.inc depend on the exact configuration values, so
  // fuzz::goldenMachinePoints() must never change silently.
  std::vector<fuzz::MachinePoint> Machines = fuzz::goldenMachinePoints();
  for (const Workload &W : workloads()) {
    lang::Program P = parseWorkload(W);
    CompileResult C = compileProgram(P, Opts);
    ASSERT_TRUE(C.ok()) << W.Name << ": " << C.Error;
    for (const fuzz::MachinePoint &M : Machines) {
      SimResult R = simulate(C.M, M.Config);
      ASSERT_TRUE(R.ok()) << W.Name << " [" << M.Tag << "]: " << R.Error;
      ASSERT_TRUE(R.Finished) << W.Name << " [" << M.Tag << "]";
      // The hash is taken through the artifact codec: a stored result
      // reproduces it exactly.
      ByteWriter Wr;
      encode(Wr, R);
      ByteReader Rd(Wr.buffer());
      SimResult D;
      ASSERT_TRUE(decode(Rd, D) && Rd.atEnd()) << W.Name << " [" << M.Tag << "]";
      EXPECT_EQ(firstDifference(R, D, "live", "decoded"), "")
          << W.Name << " [" << M.Tag << "]";
      uint64_t H = fnv1a(dumpResult(D));
      if (Regen) {
        std::printf("    {\"%s\", \"%s\", 0x%016llxull},\n", M.Tag, W.Name,
                    static_cast<unsigned long long>(H));
        continue;
      }
      const GoldenRow *G = findGolden(M.Tag, W.Name);
      ASSERT_NE(G, nullptr)
          << W.Name << " [" << M.Tag << "]: no golden entry "
          << "(regenerate tests/golden_sim_stats.inc)";
      EXPECT_EQ(G->Hash, H)
          << W.Name << " [" << M.Tag << "]: simulated statistics changed "
          << "(regenerate tests/golden_sim_stats.inc if intended)";
    }
  }
}
