//===- bench/bench_table3_latency.cpp - Table 3: processor latencies -------===//
//
// Regenerates Table 3: fixed instruction latencies, read from the live
// opcode table, with a measured verification: a serial dependence chain of
// each instruction class must cost its configured latency per link. The
// five chains are grid jobs like any other table cell, so they are computed
// on the suite's pool, served from the store when warm, and checked against
// the AST oracle.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

#include <iterator>

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::ir;

namespace {

/// Links of each chain.
constexpr int64_t ChainIters = 30000;

/// One chain per instruction class: the update must depend on the previous
/// value of x, and each link costs the latency of \p Op.
struct Probe {
  const char *Name;
  const char *Decls;
  const char *Update;
  Opcode Op;
};
const Probe Probes[] = {
    {"integer add", "var x int = 1;\n", "x = x + 3;", Opcode::IAdd},
    {"integer multiply", "var x int = 1;\n", "x = x * 1;", Opcode::IMul},
    {"FP add", "var x = 1.0;\n", "x = x + 0.5;", Opcode::FAdd},
    {"FP multiply", "var x = 1.0;\n", "x = x * 1.0001;", Opcode::FMul},
    {"FP divide", "var x = 123456.0;\n", "x = x / 1.0001;", Opcode::FDiv},
};
constexpr size_t NumProbes = std::size(Probes);

std::string chainSource(const Probe &P) {
  std::string Src = "array Out[4] output;\n" + std::string(P.Decls);
  Src += "for (r = 0; r < " + std::to_string(ChainIters) + "; r += 1) { " +
         P.Update + " }\n";
  Src += "Out[0] = x + 0.0;\n";
  return Src;
}

/// The chains' workloads, in Probes order, built on first use. A Workload
/// points at its name and source text, so both are kept here.
const std::vector<driver::Workload> &probeWorkloads() {
  static std::string Names[NumProbes], Sources[NumProbes];
  static const std::vector<driver::Workload> Workloads = [] {
    std::vector<driver::Workload> W;
    for (size_t I = 0; I != NumProbes; ++I) {
      Names[I] = std::string("latency-chain-") + Probes[I].Name;
      Sources[I] = chainSource(Probes[I]);
      W.push_back({Names[I].c_str(), "", "", "serial dependence chain",
                   Sources[I].c_str()});
    }
    return W;
  }();
  return Workloads;
}

/// Cycles per link of a chain.
double cyclesPerLink(const driver::Workload &W) {
  const driver::RunResult &R = mustRun(W, probeOptions());
  return static_cast<double>(R.Sim.FixedInterlockCycles) /
             static_cast<double>(ChainIters) +
         1.0; // issue slot of the chain instruction itself
}

std::vector<driver::ExperimentJob> jobs() {
  std::vector<driver::ExperimentJob> Jobs;
  for (const driver::Workload &W : probeWorkloads())
    Jobs.push_back({&W, probeOptions(), sim::MachineConfig{}});
  return Jobs;
}

int run() {
  heading("Table 3: Processor latencies (from the opcode table)");

  Table T({"Instruction type", "Latency"});
  T.addRow({"integer op", std::to_string(opInfo(Opcode::IAdd).Latency)});
  T.addRow({"integer multiply", std::to_string(opInfo(Opcode::IMul).Latency)});
  T.addRow({"load (L1 hit)", std::to_string(opInfo(Opcode::Load).Latency)});
  T.addRow({"store", std::to_string(opInfo(Opcode::Store).Latency)});
  T.addRow({"FP op (excluding divide)",
            std::to_string(opInfo(Opcode::FAdd).Latency)});
  T.addRow({"FP divide (53-bit fraction)",
            std::to_string(opInfo(Opcode::FDiv).Latency)});
  T.addRow({"branch (scheduling weight)",
            std::to_string(opInfo(Opcode::Br).Latency)});
  emit(T);

  heading("Verification: measured cycles per serial-chain link");
  Table V({"Chain", "Configured", "Measured"});
  for (size_t I = 0; I != NumProbes; ++I)
    V.addRow({Probes[I].Name, std::to_string(opInfo(Probes[I].Op).Latency),
              fmtDouble(cyclesPerLink(probeWorkloads()[I]), 1)});
  emit(V);
  return 0;
}

} // namespace

BSCHED_SUITE_TABLE(table3_latency,
                   "Table 3: processor latencies and serial-chain probes")
