//===- fuzz/Configs.cpp - Canonical differential-testing configs ------------===//

#include "fuzz/Configs.h"

using namespace bsched;
using namespace bsched::fuzz;
using namespace bsched::driver;
using namespace bsched::sim;

std::vector<CompileOptions> fuzz::differentialCompileConfigs() {
  std::vector<CompileOptions> Cs;
  for (auto Kind : {sched::SchedulerKind::Traditional,
                    sched::SchedulerKind::Balanced}) {
    auto Add = [&](int LU, bool TrS, bool LA) {
      CompileOptions O;
      O.Scheduler = Kind;
      O.UnrollFactor = LU;
      O.TraceScheduling = TrS;
      O.LocalityAnalysis = LA;
      Cs.push_back(O);
    };
    Add(1, false, false);
    Add(4, false, false);
    Add(8, true, true);
  }
  // Estimated-profile trace scheduling (exercises the static estimator on
  // arbitrary CFGs) and the hybrid per-block chooser.
  CompileOptions Est;
  Est.TraceScheduling = true;
  Est.UseEstimatedProfile = true;
  Est.UnrollFactor = 4;
  Cs.push_back(Est);
  CompileOptions Hy;
  Hy.Scheduler = sched::SchedulerKind::Hybrid;
  Cs.push_back(Hy);
  // Lowering options off (exercises the generic code paths).
  CompileOptions Plain;
  Plain.Lower.StrengthReduction = false;
  Plain.Lower.IfConversion = false;
  Cs.push_back(Plain);
  // Tight register file (exercises spilling on every program).
  CompileOptions Tight;
  Tight.UnrollFactor = 4;
  Tight.RegAlloc.AllocatablePerClass = 6;
  Cs.push_back(Tight);
  // Register-pressure-hostile: heavy unrolling feeding trace scheduling
  // into a near-minimal register file, so every program spills across the
  // restore/remat/scratch paths of regalloc::LinearScan.
  CompileOptions Spill;
  Spill.UnrollFactor = 8;
  Spill.TraceScheduling = true;
  Spill.RegAlloc.AllocatablePerClass = 4;
  Cs.push_back(Spill);
  // Large-block stress for the optimized scheduler core: heavy unrolling
  // plus traces builds the biggest regions (where the fast DAG builder's
  // bucketed disambiguation and the bitset weight sweeps engage, past the
  // small-region reference fallback), with fixed-latency balancing on to
  // cover the widened weight denominators.
  CompileOptions Big;
  Big.Scheduler = sched::SchedulerKind::Balanced;
  Big.UnrollFactor = 8;
  Big.TraceScheduling = true;
  Big.Balance.BalanceFixedOps = true;
  Cs.push_back(Big);
  // Trace-hostile: with if-conversion off every diamond survives into the
  // CFG, maximizing splits, joins and compensation blocks — the paths where
  // the fast trace core's incremental predecessor/DAG bookkeeping could
  // drift from the reference twin.
  CompileOptions TraceHostile;
  TraceHostile.TraceScheduling = true;
  TraceHostile.Lower.IfConversion = false;
  Cs.push_back(TraceHostile);
  // Compaction-hostile: the longest traces the pipeline can form (heavy
  // unrolling, if-conversion explicitly on so diamonds collapse into long
  // straight-line runs the trace grower can swallow), scheduled with the
  // pressure heuristic disabled so the balanced weights alone pick the
  // order. This drives the incremental balanced-weights builder through
  // the most prefix-extension steps per trace, where a stale cached bitset
  // row or memo entry would diverge from the reference twin.
  CompileOptions CompactHostile;
  CompactHostile.Scheduler = sched::SchedulerKind::Balanced;
  CompactHostile.UnrollFactor = 8;
  CompactHostile.TraceScheduling = true;
  CompactHostile.Lower.IfConversion = true;
  CompactHostile.Balance.BalanceFixedOps = true;
  CompactHostile.Balance.PressureThreshold = 0;
  Cs.push_back(CompactHostile);
  return Cs;
}

MachineConfig fuzz::machine21164() { return MachineConfig{}; }

MachineConfig fuzz::simpleModelMachine(double HitRate) {
  MachineConfig C;
  C.SimpleModel = true;
  C.SimpleHitRate = HitRate;
  return C;
}

MachineConfig fuzz::perfectFrontEndMachine() {
  MachineConfig C;
  C.PerfectFrontEnd = true;
  return C;
}

MachineConfig fuzz::widthMachine(unsigned W, bool Pfe) {
  MachineConfig C;
  C.IssueWidth = W;
  C.PerfectFrontEnd = Pfe;
  return C;
}

MachineConfig fuzz::starvedMachine() {
  MachineConfig C;
  C.L1D = {256, 32, 1, 2};
  C.L1I = {256, 32, 1, 1};
  C.L2 = {2048, 32, 2, 6};
  C.L3 = {16384, 64, 1, 15};
  C.NumMSHRs = 2;
  C.WriteBufferEntries = 1;
  C.DTlbEntries = 2;
  C.ITlbEntries = 2;
  C.PageSize = 4096;
  C.TlbRefillLatency = 9;
  C.BranchPredictorEntries = 8;
  return C;
}

MachineConfig fuzz::oddGeometryMachine() {
  MachineConfig C;
  C.L1D = {4800, 32, 1, 2};   // 150 sets
  C.L1I = {4800, 32, 1, 1};   // 150 sets
  C.L2 = {9600, 32, 3, 6};    // 100 sets
  C.L3 = {120000, 64, 1, 15}; // 1875 sets
  C.PageSize = 1000;
  C.DTlbEntries = 3;
  C.ITlbEntries = 3;
  C.BranchPredictorEntries = 7;
  return C;
}

std::vector<MachinePoint> fuzz::differentialMachinePoints() {
  return {{"21164", machine21164()},
          {"simple80", simpleModelMachine(0.8)},
          {"starved", starvedMachine()}};
}

std::vector<MachinePoint> fuzz::goldenMachinePoints() {
  return {{"21164", machine21164()},
          {"simple80", simpleModelMachine(0.8)},
          {"pfe", perfectFrontEndMachine()},
          {"w4", widthMachine(4)}};
}

std::optional<MachineConfig> fuzz::machineByTag(const std::string &Tag) {
  if (Tag == "21164")
    return machine21164();
  if (Tag == "simple80")
    return simpleModelMachine(0.8);
  if (Tag == "simple95")
    return simpleModelMachine(0.95);
  if (Tag == "starved")
    return starvedMachine();
  if (Tag == "oddgeom")
    return oddGeometryMachine();
  if (Tag == "pfe")
    return perfectFrontEndMachine();
  if (Tag == "w2")
    return widthMachine(2);
  if (Tag == "w4")
    return widthMachine(4);
  return std::nullopt;
}
