//===- bench/bench_table2_memory.cpp - Table 2: memory hierarchy -----------===//
//
// Regenerates Table 2: the simulated memory-hierarchy parameters, printed
// from the live MachineConfig (not hard-coded prose), plus a measured
// latency verification: a pointer-stride kernel sized to each level must see
// average load latencies bracketing that level's configured latency. The
// four probes are grid jobs like any other table cell, so they are
// computed on the suite's pool, served from the store when warm, and
// checked against the AST oracle.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

#include <iterator>

using namespace bsched;
using namespace bsched::bench;

namespace {

/// Iterations of each probe's chase loop.
constexpr int64_t ChaseIters = 40000;

/// One probe per level: a footprint sized to the level, and the latency the
/// machine configures for it.
struct Probe {
  const char *Footprint;
  int64_t Elems;
  const char *Level;
  int Latency;
};
const sim::MachineConfig Machine;
const Probe Probes[] = {
    {"4KB", 512, "L1", Machine.L1D.Latency},
    {"64KB", 8192, "L2", Machine.L2.Latency},
    {"1MB", 131072, "L3", Machine.L3.Latency},
    {"8MB", 1048576, "memory", Machine.MemoryLatency},
};
constexpr size_t NumProbes = std::size(Probes);

/// A serial pointer-stride loop over \p Elems words: it builds a cyclic
/// permutation with the given stride, then chases it.
std::string chaseSource(int64_t Elems, int64_t StrideElems) {
  std::string Src = "array A[" + std::to_string(Elems) +
                    "] int;\narray Out[4] output;\nvar k int = 0;\n";
  Src += "for (i = 0; i < " + std::to_string(Elems) + "; i += 1) { A[i] = 0; }\n";
  Src += "for (i = 0; i < " + std::to_string(Elems / StrideElems) +
         "; i += 1) { A[i * " + std::to_string(StrideElems) + "] = i * " +
         std::to_string(StrideElems) + " + " + std::to_string(StrideElems) +
         "; }\n";
  Src += "A[" + std::to_string(Elems - StrideElems) + "] = 0;\n";
  Src += "for (r = 0; r < " + std::to_string(ChaseIters) +
         "; r += 1) { k = A[k]; }\n";
  Src += "Out[0] = k + 0.0;\n";
  return Src;
}

/// The probes' workloads, in Probes order, built on first use. A Workload
/// points at its name and source text, so both are kept here.
const std::vector<driver::Workload> &probeWorkloads() {
  static std::string Names[NumProbes], Sources[NumProbes];
  static const std::vector<driver::Workload> Workloads = [] {
    std::vector<driver::Workload> W;
    for (size_t I = 0; I != NumProbes; ++I) {
      Names[I] = std::string("latency-probe-") + Probes[I].Footprint;
      Sources[I] = chaseSource(Probes[I].Elems, /*StrideElems=*/8);
      W.push_back({Names[I].c_str(), "", "", "serial pointer chase",
                   Sources[I].c_str()});
    }
    return W;
  }();
  return Workloads;
}

/// Average stall cycles per chase iteration: the chase loop dominates the
/// run, and each iteration waits out one load.
double serialLoadStall(const driver::Workload &W) {
  const driver::RunResult &R = mustRun(W, probeOptions(), Machine);
  return static_cast<double>(R.Sim.LoadInterlockCycles) /
         static_cast<double>(ChaseIters);
}

std::vector<driver::ExperimentJob> jobs() {
  std::vector<driver::ExperimentJob> Jobs;
  for (const driver::Workload &W : probeWorkloads())
    Jobs.push_back({&W, probeOptions(), Machine});
  return Jobs;
}

int run() {
  heading("Table 2: Memory hierarchy parameters (simulated 21164)");

  const sim::MachineConfig &C = Machine;
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
  for (size_t I = 0; I != NumProbes; ++I) {
    const Probe &P = Probes[I];
    V.addRow({P.Footprint, P.Level, std::to_string(P.Latency),
              fmtDouble(serialLoadStall(probeWorkloads()[I]), 1)});
  }
  emit(V);
  return 0;
}

} // namespace

BSCHED_SUITE_TABLE(table2_memory,
                   "Table 2: memory hierarchy parameters and latency probes")
