//===- bench/bench_table3_latency.cpp - Table 3: processor latencies -------===//
//
// Regenerates Table 3: fixed instruction latencies, read from the live
// opcode table, with a measured verification: a serial dependence chain of
// each instruction class must cost its configured latency per link.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Suite.h"

using namespace bsched;
using namespace bsched::bench;
using namespace bsched::ir;

namespace {

/// Cycles per link of a serial chain of the given expression (the update
/// must depend on the previous value).
double measureChain(const std::string &VarDecls, const std::string &Update) {
  const int64_t Iters = 30000;
  std::string Src = "array Out[4] output;\n" + VarDecls;
  Src += "for (r = 0; r < " + std::to_string(Iters) + "; r += 1) { " +
         Update + " }\n";
  Src += "Out[0] = x + 0.0;\n";
  sim::SimResult R = sim::simulate(compileProbe(Src, "latency-chain"));
  return static_cast<double>(R.FixedInterlockCycles) /
             static_cast<double>(Iters) +
         1.0; // issue slot of the chain instruction itself
}

// Reads the live opcode table and probes latencies with direct simulate()
// calls; nothing routes through runCached, so the grid is empty.
std::vector<bsched::driver::ExperimentJob> jobs() { return {}; }

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
  struct Probe {
    const char *Name;
    const char *Decls;
    const char *Update;
    int Expect;
  } Probes[] = {
      {"integer add", "var x int = 1;\n", "x = x + 3;",
       opInfo(Opcode::IAdd).Latency},
      {"integer multiply", "var x int = 1;\n", "x = x * 1;",
       opInfo(Opcode::IMul).Latency},
      {"FP add", "var x = 1.0;\n", "x = x + 0.5;",
       opInfo(Opcode::FAdd).Latency},
      {"FP multiply", "var x = 1.0;\n", "x = x * 1.0001;",
       opInfo(Opcode::FMul).Latency},
      {"FP divide", "var x = 123456.0;\n", "x = x / 1.0001;",
       opInfo(Opcode::FDiv).Latency},
  };
  for (const Probe &P : Probes)
    V.addRow({P.Name, std::to_string(P.Expect),
              fmtDouble(measureChain(P.Decls, P.Update), 1)});
  emit(V);
  return 0;
}

} // namespace

BSCHED_SUITE_TABLE(table3_latency,
                   "Table 3: processor latencies and serial-chain probes")
