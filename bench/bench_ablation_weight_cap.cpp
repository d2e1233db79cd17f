//===- bench/bench_ablation_weight_cap.cpp - Ablation: weight cap -----------===//
//
// Ablation of the paper's section-4.2 design choices in the balanced
// scheduler:
//   1. the 50-cycle load-weight cap ("we limited load weights to a maximum
//      of 50" as a register-pressure aid, footnote 1);
//   2. the hit-annotation exemption (LA-marked hits keep the optimistic
//      weight so their padders serve miss loads, section 3.3);
//   3. this implementation's pressure ceiling in the list scheduler (the
//      stand-in for Multiflow's integrated scheduling/allocation).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::driver;

namespace {

struct Variant {
  const char *Name;
  double WeightCap;
  bool RespectHits;
  unsigned PressureThreshold;
  bool LA;
};

const Variant Variants[] = {
    {"paper settings (cap 50, pressure ceiling)", 50, true, 24, false},
    {"uncapped load weights", 1e9, true, 24, false},
    {"tight cap (8)", 8, true, 24, false},
    {"no pressure ceiling", 50, true, 0, false},
    {"LA, hits exempt from balancing (paper)", 50, true, 24, true},
    {"LA, hits balanced like misses", 50, false, 24, true},
};

CompileOptions optionsFor(const Variant &V, int Unroll) {
  CompileOptions O = balanced(Unroll, /*TrS=*/false, V.LA);
  O.Balance.WeightCap = V.WeightCap;
  O.Balance.RespectHitAnnotations = V.RespectHits;
  O.Balance.PressureThreshold = V.PressureThreshold;
  return O;
}

std::vector<ExperimentJob> jobs() {
  std::vector<CompileOptions> Configs = {traditional(8)};
  for (const Variant &V : Variants)
    Configs.push_back(optionsFor(V, 8));
  return gridJobs(Configs);
}

int run() {
  heading("Ablation: balanced-scheduler design choices (unrolling by 8, "
          "where register pressure is the binding constraint)");

  Table T({"Variant", "Mean speedup vs TS+LU8", "Mean li% of cycles",
           "Total spill+restore instrs"});
  for (const Variant &V : Variants) {
    std::vector<double> Sp, Li;
    long long SpillInstrs = 0;
    for (const Workload &W : workloads()) {
      const RunResult &Base = mustRun(W, traditional(8));
      const RunResult &R = mustRun(W, optionsFor(V, 8));
      Sp.push_back(speedup(Base, R));
      Li.push_back(R.Sim.loadInterlockShare());
      SpillInstrs += R.Sim.Counts.Spills + R.Sim.Counts.Restores;
    }
    T.addRow({V.Name, fmtDouble(mean(Sp), 3), fmtPercent(mean(Li)),
              fmtInt(SpillInstrs)});
  }
  emit(T);

  std::printf(
      "Expected shape: uncapped weights and a disabled pressure ceiling "
      "increase spill traffic and erode the BS advantage; a too-tight cap "
      "forfeits latency hiding; balancing LA-marked hits wastes padders the "
      "paper reserves for misses.\n");
  return 0;
}

} // namespace

BSCHED_SUITE_TABLE(ablation_weight_cap,
                   "Ablation: balanced-scheduler design choices (weight cap, "
                   "hit exemption, pressure ceiling)")
