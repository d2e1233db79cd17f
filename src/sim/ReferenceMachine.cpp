//===- sim/ReferenceMachine.cpp - Seed 21164 simulator (oracle) ------------===//
//
// The original (seed) simulator, preserved verbatim as SimImpl::Reference:
// it walks the IR instruction-by-instruction through the generic
// executeInstr, scans the fully-associative TLBs linearly on every access,
// and keeps MSHRs in a std::map. FastMachine.cpp reimplements the same
// machine for throughput; the golden sim-stats and sim-equivalence tests
// hold the two bit-identical, and bench_sim_throughput reports the speedup
// of Fast over this implementation.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulators.h"

#include "sim/Caches.h"

#include "ir/Interp.h"
#include "support/RNG.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace bsched;
using namespace bsched::sim;
using namespace bsched::ir;

namespace {

//===----------------------------------------------------------------------===//
// Simulator
//===----------------------------------------------------------------------===//

class Simulator {
public:
  Simulator(const Module &M, const MachineConfig &C, uint64_t MaxCycles)
      : M(M), Config(C), MaxCycles(MaxCycles), State(M), L1D(C.L1D),
        L1I(C.L1I), L2(C.L2), L3(C.L3), DTlb(C.DTlbEntries, C.PageSize),
        ITlb(C.ITlbEntries, C.PageSize), Pred(C.BranchPredictorEntries),
        Rng(SimpleSeed) {}

  SimResult run() {
    if (!validate())
      return R;
    layoutCode();

    ReadyAt.assign(M.Fn.numRegs(), 0);
    LoadProduced.assign(M.Fn.numRegs(), false);

    int Block = 0;
    size_t Index = 0;
    while (true) {
      if (Cycle > MaxCycles) {
        R.Cycles = Cycle;
        return R;
      }
      const Instr &In = M.Fn.Blocks[Block].Instrs[Index];
      uint64_t InstrAddr = CodeAddr[Block] + 4 * Index;

      // Close the current issue group if no slot (total or per-class) is
      // available for this instruction.
      while (!slotAvailable(In))
        closeGroup();

      fetch(InstrAddr);
      stallOnSources(In);
      count(In);
      takeSlot(In);

      if (In.isTerminator()) {
        // A store of this block left the memory image.
        if (State.storeFaulted()) {
          R.Error = State.storeFault();
          R.Cycles = Cycle + 1;
          return R;
        }
        if (In.Op == Opcode::Ret) {
          R.Finished = true;
          R.Cycles = Cycle + 1;
          R.Checksum = State.outputChecksum(M);
          return R;
        }
        bool Taken = true;
        int Next;
        if (In.Op == Opcode::Br) {
          Taken = State.readInt(In.SrcA) != 0;
          Next = Taken ? In.Target0 : In.Target1;
          // The 1993 simple model assumes a perfect front end.
          if (!Config.SimpleModel &&
              !Pred.predictAndUpdate(InstrAddr, Taken)) {
            ++R.BranchMispredicts;
            closeGroup();
            Cycle += static_cast<uint64_t>(Config.BranchMispredictPenalty);
            R.BranchPenaltyCycles +=
                static_cast<uint64_t>(Config.BranchMispredictPenalty);
          } else if (Taken) {
            // No issue past a taken branch within the same cycle.
            closeGroup();
          }
        } else {
          Next = In.Target0;
          closeGroup();
        }
        Block = Next;
        Index = 0;
        continue;
      }

      issue(In);
      executeInstr(State, In);
      ++Index;
    }
  }

private:
  const Module &M;
  MachineConfig Config;
  uint64_t MaxCycles;
  SimResult R;

  ExecState State;
  Cache L1D, L1I, L2, L3;
  Tlb DTlb, ITlb;
  BranchPredictor Pred;
  RNG Rng;

  uint64_t Cycle = 0;
  // Per-cycle issue bookkeeping (the in-order superscalar group).
  unsigned SlotsUsed = 0, IntUsed = 0, FpUsed = 0, MemUsed = 0;
  std::vector<uint64_t> ReadyAt;
  std::vector<bool> LoadProduced;
  std::vector<uint64_t> CodeAddr; ///< first instruction address per block.

  /// Outstanding L1D misses: line address -> completion cycle.
  std::map<uint64_t, uint64_t> Mshrs;
  /// Write-buffer entry retire times, ascending.
  std::vector<uint64_t> WriteBuffer;
  uint64_t DivBusyUntil = 0;

  enum class Pipe { Int, Fp, Mem };

  static Pipe pipeOf(const Instr &In) {
    switch (opInfo(In.Op).Cls) {
    case InstrClass::ShortFp:
    case InstrClass::LongFp:
      return Pipe::Fp;
    case InstrClass::LoadCls:
    case InstrClass::StoreCls:
      return Pipe::Mem;
    default:
      return Pipe::Int;
    }
  }

  bool slotAvailable(const Instr &In) const {
    if (SlotsUsed >= Config.IssueWidth)
      return false;
    if (Config.IssueWidth == 1)
      return true; // the single slot is the only constraint
    switch (pipeOf(In)) {
    case Pipe::Int:
      return IntUsed < MaxIntPerCycle;
    case Pipe::Fp:
      return FpUsed < MaxFpPerCycle;
    case Pipe::Mem:
      return MemUsed < MaxMemPerCycle;
    }
    return true;
  }

  /// Ends the current issue group: the next instruction starts a new cycle.
  void closeGroup() {
    ++Cycle;
    SlotsUsed = IntUsed = FpUsed = MemUsed = 0;
  }

  /// Moves time forward (stalls); any partially filled group is abandoned.
  void advanceTo(uint64_t NewCycle) {
    Cycle = NewCycle;
    SlotsUsed = IntUsed = FpUsed = MemUsed = 0;
  }

  /// A stall discovered while the current instruction is issuing (divider,
  /// TLB refill, MSHR or write-buffer pressure): time moves, and the group
  /// is marked full so the next instruction starts a fresh cycle.
  void stallInIssue(uint64_t NewCycle) {
    Cycle = NewCycle;
    SlotsUsed = Config.IssueWidth;
  }

  void takeSlot(const Instr &In) {
    ++SlotsUsed;
    switch (pipeOf(In)) {
    case Pipe::Int: ++IntUsed; break;
    case Pipe::Fp: ++FpUsed; break;
    case Pipe::Mem: ++MemUsed; break;
    }
  }

  bool validate() {
    for (const BasicBlock &B : M.Fn.Blocks)
      for (const Instr &I : B.Instrs) {
        std::vector<Reg> Uses;
        I.appendUses(Uses);
        if (Reg D = I.def(); D.isValid())
          Uses.push_back(D);
        for (Reg Rg : Uses)
          if (!Rg.isPhys()) {
            R.Error = "simulator requires register-allocated code";
            return false;
          }
      }
    return true;
  }

  void layoutCode() {
    CodeAddr.resize(M.Fn.Blocks.size());
    uint64_t Addr = CodeBase;
    for (const BasicBlock &B : M.Fn.Blocks) {
      CodeAddr[static_cast<size_t>(B.Id)] = Addr;
      Addr += 4 * B.Instrs.size();
    }
  }

  //===--------------------------------------------------------------------===//
  // Front end
  //===--------------------------------------------------------------------===//

  void fetch(uint64_t Addr) {
    if (Config.SimpleModel || Config.PerfectFrontEnd)
      return; // Perfect instruction supply.
    if (!ITlb.access(Addr)) {
      ++R.ITlbMisses;
      advanceTo(Cycle + static_cast<uint64_t>(Config.TlbRefillLatency));
      R.ITlbStallCycles += static_cast<uint64_t>(Config.TlbRefillLatency);
    }
    if (!L1I.access(Addr, /*Allocate=*/true, R.L1I)) {
      int Latency = Config.L2.Latency;
      if (!L2.access(Addr, true, R.L2)) {
        Latency = Config.L3.Latency;
        if (!L3.access(Addr, true, R.L3))
          Latency = Config.MemoryLatency;
      }
      uint64_t Stall = static_cast<uint64_t>(Latency - Config.L1I.Latency);
      advanceTo(Cycle + Stall);
      R.ICacheStallCycles += Stall;
    }
  }

  //===--------------------------------------------------------------------===//
  // Scoreboard
  //===--------------------------------------------------------------------===//

  std::vector<Reg> ScratchUses;

  void stallOnSources(const Instr &In) {
    std::vector<Reg> &Uses = ScratchUses;
    Uses.clear();
    In.appendUses(Uses);
    uint64_t Until = Cycle;
    bool BlameLoad = false;
    for (Reg Rg : Uses) {
      uint64_t T = ReadyAt[Rg.Id];
      if (T > Until) {
        Until = T;
        BlameLoad = LoadProduced[Rg.Id];
      } else if (T == Until && T > Cycle && LoadProduced[Rg.Id]) {
        // Tie between a load and a fixed-latency producer: blame the load,
        // like the paper's accounting of load interlocks.
        BlameLoad = true;
      }
    }
    if (Until > Cycle) {
      uint64_t Stall = Until - Cycle;
      if (BlameLoad)
        R.LoadInterlockCycles += Stall;
      else
        R.FixedInterlockCycles += Stall;
      advanceTo(Until);
    }
  }

  void count(const Instr &In) {
    if (In.IsSpill) {
      ++R.Counts.Spills;
      return;
    }
    if (In.IsRestore) {
      ++R.Counts.Restores;
      return;
    }
    switch (opInfo(In.Op).Cls) {
    case InstrClass::ShortInt: ++R.Counts.ShortInt; break;
    case InstrClass::LongInt: ++R.Counts.LongInt; break;
    case InstrClass::ShortFp: ++R.Counts.ShortFp; break;
    case InstrClass::LongFp: ++R.Counts.LongFp; break;
    case InstrClass::LoadCls: ++R.Counts.Loads; break;
    case InstrClass::StoreCls: ++R.Counts.Stores; break;
    case InstrClass::BranchCls: ++R.Counts.Branches; break;
    }
  }

  //===--------------------------------------------------------------------===//
  // Back end
  //===--------------------------------------------------------------------===//

  void issue(const Instr &In) {
    if (In.isLoad()) {
      issueLoad(In);
      return;
    }
    if (In.isStore()) {
      issueStore(In);
      return;
    }
    int Latency =
        Config.SimpleModel ? 1 : opInfo(In.Op).Latency;
    if (In.Op == Opcode::FDiv && !Config.SimpleModel) {
      // The divider is not pipelined.
      if (DivBusyUntil > Cycle) {
        R.FixedInterlockCycles += DivBusyUntil - Cycle;
        stallInIssue(DivBusyUntil);
      }
      DivBusyUntil = Cycle + static_cast<uint64_t>(Latency);
    }
    if (Reg D = In.def(); D.isValid()) {
      ReadyAt[D.Id] = Cycle + static_cast<uint64_t>(Latency);
      LoadProduced[D.Id] = false;
    }
  }

  /// Data-side hierarchy access; returns the load-to-use latency.
  int dataAccess(uint64_t Addr, bool IsLoad) {
    if (L1D.access(Addr, /*Allocate=*/IsLoad, R.L1D))
      return Config.L1D.Latency;
    if (L2.access(Addr, true, R.L2))
      return Config.L2.Latency;
    if (L3.access(Addr, true, R.L3))
      return Config.L3.Latency;
    return Config.MemoryLatency;
  }

  void issueLoad(const Instr &In) {
    uint64_t Addr = State.effectiveAddress(In);
    int Latency;
    if (Config.SimpleModel) {
      Latency = Rng.nextBool(Config.SimpleHitRate) ? SimpleHitLatency
                                                   : Config.SimpleMissLatency;
    } else {
      if (!DTlb.access(Addr)) {
        ++R.DTlbMisses;
        stallInIssue(Cycle + static_cast<uint64_t>(Config.TlbRefillLatency));
        R.DTlbStallCycles += static_cast<uint64_t>(Config.TlbRefillLatency);
      }
      uint64_t Line = Addr / Config.L1D.LineSize;
      auto Pending = Mshrs.find(Line);
      if (Pending != Mshrs.end() && Pending->second > Cycle) {
        // Merge with the outstanding miss to the same line.
        Latency = static_cast<int>(Pending->second - Cycle);
        // Keep the L1 counters honest: this is another L1 access that did
        // not hit in the live cache state.
        ++R.L1D.Accesses;
      } else {
        Latency = dataAccess(Addr, /*IsLoad=*/true);
        if (Latency > Config.L1D.Latency) {
          // Lockup-free cache: take an MSHR, stalling if all are busy.
          retireMshrs();
          if (Mshrs.size() >= Config.NumMSHRs) {
            uint64_t Earliest = ~0ull;
            for (const auto &[L, Done] : Mshrs) {
              (void)L;
              Earliest = std::min(Earliest, Done);
            }
            R.MshrStallCycles += Earliest - Cycle;
            stallInIssue(Earliest);
            retireMshrs();
          }
          Mshrs[Line] = Cycle + static_cast<uint64_t>(Latency);
        }
      }
    }
    ReadyAt[In.Dst.Id] = Cycle + static_cast<uint64_t>(Latency);
    LoadProduced[In.Dst.Id] = true;
  }

  void retireMshrs() {
    for (auto It = Mshrs.begin(); It != Mshrs.end();) {
      if (It->second <= Cycle)
        It = Mshrs.erase(It);
      else
        ++It;
    }
  }

  void issueStore(const Instr &In) {
    if (Config.SimpleModel)
      return;
    uint64_t Addr = State.effectiveAddress(In);
    if (!DTlb.access(Addr)) {
      ++R.DTlbMisses;
      stallInIssue(Cycle + static_cast<uint64_t>(Config.TlbRefillLatency));
      R.DTlbStallCycles += static_cast<uint64_t>(Config.TlbRefillLatency);
    }
    // Write-through with no write-allocate at L1; the write buffer absorbs
    // the L2 access time.
    L1D.touch(Addr, R.L1D);
    L2.access(Addr, /*Allocate=*/true, R.L2);
    while (!WriteBuffer.empty() && WriteBuffer.front() <= Cycle)
      WriteBuffer.erase(WriteBuffer.begin());
    if (WriteBuffer.size() >= Config.WriteBufferEntries) {
      uint64_t Earliest = WriteBuffer.front();
      R.WriteBufferStallCycles += Earliest - Cycle;
      stallInIssue(Earliest);
      while (!WriteBuffer.empty() && WriteBuffer.front() <= Cycle)
        WriteBuffer.erase(WriteBuffer.begin());
    }
    WriteBuffer.push_back(Cycle + static_cast<uint64_t>(Config.L2.Latency));
  }
};

} // namespace

SimResult sim::detail::simulateReference(const Module &M,
                                         const MachineConfig &Config,
                                         uint64_t MaxCycles) {
  return Simulator(M, Config, MaxCycles).run();
}
