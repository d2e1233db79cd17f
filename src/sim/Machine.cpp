//===- sim/Machine.cpp - Simulator entry point: validate and dispatch ------===//
//
// sim::simulate is a thin front door: it validates the MachineConfig once
// (so neither core can divide by zero or index an empty table on a malformed
// configuration) and dispatches to the core selected by MachineConfig::Impl.
// The cores themselves live in FastMachine.cpp and ReferenceMachine.cpp.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulators.h"

#include <string>

using namespace bsched;
using namespace bsched::sim;

namespace {

/// A cache with zero sets ((SizeBytes / (LineSize * Assoc)) == 0) faults on
/// the first access (Line % 0); zero LineSize or Assoc faults even earlier,
/// in the constructor's set-count division.
std::string checkCache(const char *Name, const CacheConfig &C) {
  if (C.LineSize == 0)
    return std::string(Name) + ": LineSize must be positive";
  if (C.Assoc == 0)
    return std::string(Name) + ": Assoc must be positive";
  if (C.SizeBytes < static_cast<uint64_t>(C.LineSize) * C.Assoc)
    return std::string(Name) +
           ": SizeBytes smaller than one set (LineSize * Assoc) leaves zero "
           "sets";
  if (C.Latency < 1)
    return std::string(Name) + ": Latency must be at least one cycle";
  return std::string();
}

} // namespace

std::string sim::validateMachineConfig(const MachineConfig &Config) {
  // The memory system is constructed (and must be constructible) even for
  // SimpleModel runs, so every field is validated unconditionally.
  for (const auto &[Name, C] :
       {std::pair<const char *, const CacheConfig &>{"L1D", Config.L1D},
        {"L1I", Config.L1I},
        {"L2", Config.L2},
        {"L3", Config.L3}})
    if (std::string E = checkCache(Name, C); !E.empty())
      return E;
  if (Config.MemoryLatency < 1)
    return "MemoryLatency must be at least one cycle";
  if (Config.NumMSHRs == 0)
    return "NumMSHRs must be positive (the L1D is lockup-free, not stall-free)";
  if (Config.WriteBufferEntries == 0)
    return "WriteBufferEntries must be positive";
  if (Config.DTlbEntries == 0 || Config.ITlbEntries == 0)
    return "TLBs need at least one entry";
  if (Config.PageSize == 0)
    return "PageSize must be positive";
  if (Config.TlbRefillLatency < 0)
    return "TlbRefillLatency must be non-negative";
  if (Config.BranchPredictorEntries == 0)
    return "BranchPredictorEntries must be positive (counter index is mod "
           "table size)";
  if (Config.BranchMispredictPenalty < 0)
    return "BranchMispredictPenalty must be non-negative";
  if (Config.IssueWidth == 0)
    return "IssueWidth must be at least one";
  if (Config.SimpleModel && Config.SimpleMissLatency < 1)
    return "SimpleMissLatency must be at least one cycle";
  return std::string();
}

SimResult sim::simulate(const ir::Module &M, const MachineConfig &Config,
                        uint64_t MaxCycles) {
  if (std::string E = validateMachineConfig(Config); !E.empty()) {
    SimResult R;
    R.Error = "invalid machine configuration: " + E;
    return R;
  }
  return Config.Impl == SimImpl::Reference
             ? detail::simulateReference(M, Config, MaxCycles)
             : detail::simulateFast(M, Config, MaxCycles);
}
