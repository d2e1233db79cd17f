//===- bench/bench_table2_memory.cpp - Table 2: memory hierarchy -----------===//
//
// Regenerates Table 2: the simulated memory-hierarchy parameters, printed
// from the live MachineConfig (not hard-coded prose), plus a measured
// latency verification: a pointer-stride kernel sized to each level must see
// average load latencies bracketing that level's configured latency.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

using namespace bsched;
using namespace bsched::bench;

namespace {

/// Measures average cycles per iteration of a serial pointer-stride loop
/// whose footprint targets one cache level.
double measureSerialLoadLatency(int64_t Elems, int64_t StrideElems) {
  int64_t Iters = 40000;
  std::string Src = "array A[" + std::to_string(Elems) +
                    "] int;\narray Out[4] output;\nvar k int = 0;\n";
  // Build a cyclic permutation with the given stride, then chase it.
  Src += "for (i = 0; i < " + std::to_string(Elems) + "; i += 1) { A[i] = 0; }\n";
  Src += "for (i = 0; i < " + std::to_string(Elems / StrideElems) +
         "; i += 1) { A[i * " + std::to_string(StrideElems) + "] = i * " +
         std::to_string(StrideElems) + " + " + std::to_string(StrideElems) +
         "; }\n";
  Src += "A[" + std::to_string(Elems - StrideElems) + "] = 0;\n";
  Src += "for (r = 0; r < " + std::to_string(Iters) +
         "; r += 1) { k = A[k]; }\n";
  Src += "Out[0] = k + 0.0;\n";

  sim::SimResult Cold = sim::simulate(compileProbe(Src, "latency-probe"));
  // Cycles per chase iteration ~ issue + load latency + loop overhead; the
  // chase loop dominates the run.
  return static_cast<double>(Cold.LoadInterlockCycles) /
         static_cast<double>(Iters);
}

// The table prints live MachineConfig parameters and probes latencies with
// direct simulate() calls; nothing routes through runCached, so the grid is
// empty.
std::vector<driver::ExperimentJob> jobs() { return {}; }

int run() {
  heading("Table 2: Memory hierarchy parameters (simulated 21164)");

  sim::MachineConfig C;
  Table T({"Level", "Size", "Assoc", "Line", "Latency (cycles)"});
  auto Kb = [](uint64_t B) { return std::to_string(B / 1024) + "KB"; };
  T.addRow({"L1 I-cache", Kb(C.L1I.SizeBytes), std::to_string(C.L1I.Assoc),
            std::to_string(C.L1I.LineSize) + "B",
            std::to_string(C.L1I.Latency)});
  T.addRow({"L1 D-cache (lockup-free)", Kb(C.L1D.SizeBytes),
            std::to_string(C.L1D.Assoc), std::to_string(C.L1D.LineSize) + "B",
            std::to_string(C.L1D.Latency)});
  T.addRow({"L2 unified", Kb(C.L2.SizeBytes), std::to_string(C.L2.Assoc),
            std::to_string(C.L2.LineSize) + "B", std::to_string(C.L2.Latency)});
  T.addRow({"L3 board cache", Kb(C.L3.SizeBytes), std::to_string(C.L3.Assoc),
            std::to_string(C.L3.LineSize) + "B", std::to_string(C.L3.Latency)});
  T.addRow({"Main memory", "-", "-", "-", std::to_string(C.MemoryLatency)});
  T.addSeparator();
  T.addRow({"MSHRs (outstanding misses)", std::to_string(C.NumMSHRs)});
  T.addRow({"Write buffer entries", std::to_string(C.WriteBufferEntries)});
  T.addRow({"DTLB / ITLB entries",
            std::to_string(C.DTlbEntries) + " / " +
                std::to_string(C.ITlbEntries)});
  T.addRow({"TLB refill", "", "", "", std::to_string(C.TlbRefillLatency)});
  T.addRow({"Branch predictor", std::to_string(C.BranchPredictorEntries) +
                                    " 2-bit counters"});
  T.addRow({"Mispredict penalty", "", "", "",
            std::to_string(C.BranchMispredictPenalty)});
  emit(T);

  heading("Verification: measured serial-load stall per level");
  Table V({"Footprint", "Expected level", "Configured latency",
           "Measured stall/load"});
  struct Probe {
    const char *Name;
    int64_t Elems;
    const char *Level;
    int Latency;
  } Probes[] = {
      {"4KB", 512, "L1", C.L1D.Latency},
      {"64KB", 8192, "L2", C.L2.Latency},
      {"1MB", 131072, "L3", C.L3.Latency},
      {"8MB", 1048576, "memory", C.MemoryLatency},
  };
  for (const Probe &P : Probes) {
    double Measured = measureSerialLoadLatency(P.Elems, /*StrideElems=*/8);
    V.addRow({P.Name, P.Level, std::to_string(P.Latency),
              fmtDouble(Measured, 1)});
  }
  emit(V);
  return 0;
}

} // namespace

BSCHED_SUITE_TABLE(table2_memory,
                   "Table 2: memory hierarchy parameters and latency probes")
