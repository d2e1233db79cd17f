//===- sim/FastMachine.cpp - Optimized 21164 simulator core ----------------===//
//
// The throughput-optimized simulator behind SimImpl::Fast. It models exactly
// the machine ReferenceMachine.cpp models — same issue groups, same
// scoreboard, same memory system, same statistics — and is held bit-identical
// to it by sim_equivalence_test and the golden sim-stats test. The speed
// comes from three structural changes, not from changing the model:
//
//  1. Predecoding. Each basic block is flattened once into SimOps: the
//     ir::MicroOp executor form (run by ir::execMicro; each job's checksum
//     check against the AST oracle keeps it architecturally exact) plus
//     everything the pipeline asks per dynamic instruction — use list in
//     appendUses order, def id, fixed latency, pipe class, count bucket,
//     and flags. The per-cycle loop never touches ir::Instr or opInfo
//     again.
//
//  2. Fast memory-system models (FastCaches.h): a hinted TLB front,
//     shift/mask direct-mapped caches, fixed-array MSHR file and
//     write-buffer ring.
//
//  3. Run-based fetch. Straight-line code stays in one I-cache line for
//     several instructions and in one page for hundreds; the predecoder
//     marks those runs. The full ITLB+L1I probe happens once per run, at
//     its head, which also books the rest of the run's guaranteed hits in
//     one step (exact same counter and LRU-stamp totals). The hits are
//     provable: fetch is the only client of the ITLB and L1I, and a run
//     never leaves the head's line or page, so nothing can evict them
//     mid-run. The D-side shares only L2/L3, which the I-side touches only
//     on a run-head L1I miss — so the interleaving of L2/L3 accesses is
//     also preserved. Only the L1I access count is visible before a run
//     ends, and only at a cycle-budget exit, which takes the unissued
//     remainder back out of it.
//
// The per-instruction loop is kept short: the scoreboard is one array (see
// Board), the executor is inlined, and the issue clock lives in a local
// (see Issue), so it stays in a register across the stores to the
// scoreboard and cache arrays.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulators.h"

#include "sim/Caches.h" // BranchPredictor (already O(1); reused verbatim)
#include "sim/FastCaches.h"

#include "ir/Interp.h"
#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace bsched;
using namespace bsched::sim;
using namespace bsched::ir;

namespace {

constexpr uint8_t FlagLoad = 1, FlagStore = 2, FlagFDiv = 4, FlagTerm = 8;
enum : uint8_t { TermRet = 0, TermBr = 1, TermJmp = 2 };

constexpr unsigned BucketSpill = 7, BucketRestore = 8, NumBuckets = 9;

/// One predecoded instruction: the executor micro-op plus every per-dynamic-
/// instruction fact the pipeline needs, resolved once.
struct SimOp {
  MicroOp U;         ///< executor form (unused for terminators).
  uint32_t DefId;    ///< defined register id, or the sink id (no def).
  int32_t Latency;   ///< fixed issue-to-result latency (1 if Simple).
  uint32_t Uses[4];  ///< source register ids, padded with the dummy id.
  uint32_t RunLen;   ///< fetch-run length when this op heads a run.
  int32_t T0, T1;    ///< terminator targets.
  uint32_t CondId;   ///< Br condition register id.
  uint8_t Pipe;      ///< 0 int, 1 fp, 2 mem.
  uint8_t Bucket;    ///< InstrClass value, or spill/restore bucket.
  uint8_t Flags;
  uint8_t TermKind;
};

struct SimBlock {
  uint32_t Start = 0, NumOps = 0;
  uint64_t BaseAddr = 0;
};

uint8_t pipeOf(InstrClass Cls) {
  switch (Cls) {
  case InstrClass::ShortFp:
  case InstrClass::LongFp:
    return 1;
  case InstrClass::LoadCls:
  case InstrClass::StoreCls:
    return 2;
  default:
    return 0;
  }
}

/// The simulator core, specialized at compile time on the three per-
/// instruction mode tests so the hot loop carries no model branches:
/// Simple = the 1993 stochastic model, Fetch = I-stream modeled (neither
/// simple nor PerfectFrontEnd), Wide = IssueWidth > 1. simulateFast
/// dispatches once per run; every instantiation is bit-identical to the
/// reference (the conditions fold to the same values the branches tested).
template <bool Simple, bool Fetch, bool Wide> class FastSimulator {
public:
  FastSimulator(const Module &M, const MachineConfig &C, uint64_t MaxCycles)
      : M(M), Config(C), MaxCycles(MaxCycles), State(M), L1D(C.L1D),
        L1I(C.L1I), L2(C.L2), L3(C.L3), DTlb(C.DTlbEntries, C.PageSize),
        ITlb(C.ITlbEntries, C.PageSize), Pred(C.BranchPredictorEntries),
        Mshrs(C.NumMSHRs), WriteBuf(C.WriteBufferEntries), Rng(SimpleSeed) {}

  SimResult run() {
    if (!predecode())
      return R;

    // Every register plus the dummy (always ready, never written) and the
    // sink (written by ops with no def, never read).
    Board.assign(M.Fn.numRegs() + 2, 0);

    assert(Simple == Config.SimpleModel && Wide == (Config.IssueWidth > 1) &&
           Fetch == (!Simple && !Config.PerfectFrontEnd) &&
           "dispatched to the wrong specialization");
    uint64_t CountBy[NumBuckets] = {};
    // A local copy: the member is reloaded after every scoreboard store.
    const uint64_t Budget = MaxCycles;

    Issue S;
    int Block = 0;
    while (true) {
      const SimBlock &SB = Blocks[static_cast<size_t>(Block)];
      const SimOp *Ops = &AllOps[SB.Start];
      // Hits of the current fetch run booked at its head but not yet
      // issued (runs never cross a block boundary).
      uint32_t RunLeft = 0;
      for (uint32_t I = 0;; ++I) {
        if (S.Cycle > Budget) {
          R.Cycles = S.Cycle;
          R.L1I.Accesses -= RunLeft;
          finishCounts(CountBy);
          return R;
        }
        const SimOp &Op = Ops[I];

        if (!Wide) {
          // Single issue: one slot per cycle, no per-pipe limits.
          if (S.SlotsUsed != 0)
            closeGroup(S);
        } else {
          while (!slotAvailable(S, Op))
            closeGroup(S);
        }

        if (Fetch) {
          if (RunLeft != 0) {
            --RunLeft; // booked at the run head
          } else {
            fetch(S, SB.BaseAddr + 4ull * I);
            // The rest of the run is provably resident (see file header):
            // book its hits now. Counter and recency totals match a full
            // access per instruction.
            RunLeft = Op.RunLen - 1;
            ITlb.cheapHits(RunLeft);
            L1I.cheapHits(RunLeft, R.L1I);
          }
        }

        stallOnSources(S, Op);
        ++CountBy[Op.Bucket];
        takeSlot(S, Op);

        if (Op.Flags == 0) {
          // The common case, kept off the flag tests below: a fixed-latency
          // op that is not a divide.
          setReady(Op.DefId, S.Cycle + static_cast<uint64_t>(Op.Latency),
                   false);
          execMicro(State, Op.U);
          continue;
        }
        if (Op.Flags & FlagTerm) {
          // A store of this block left the memory image: the run ends here,
          // where the reference core ends it too.
          if (State.storeFaulted()) [[unlikely]] {
            R.Error = State.storeFault();
            R.Cycles = S.Cycle + 1;
            finishCounts(CountBy);
            return R;
          }
          if (Op.TermKind == TermRet) {
            R.Finished = true;
            R.Cycles = S.Cycle + 1;
            R.Checksum = State.outputChecksum(M);
            finishCounts(CountBy);
            return R;
          }
          int Next;
          if (Op.TermKind == TermBr) {
            bool Taken = State.readInt(Reg(Op.CondId)) != 0;
            Next = Taken ? Op.T0 : Op.T1;
            // The 1993 simple model assumes a perfect front end.
            if (!Simple &&
                !Pred.predictAndUpdate(SB.BaseAddr + 4ull * I, Taken)) {
              ++R.BranchMispredicts;
              closeGroup(S);
              S.Cycle +=
                  static_cast<uint64_t>(Config.BranchMispredictPenalty);
              R.BranchPenaltyCycles +=
                  static_cast<uint64_t>(Config.BranchMispredictPenalty);
            } else if (Taken) {
              // No issue past a taken branch within the same cycle.
              closeGroup(S);
            }
          } else {
            Next = Op.T0;
            closeGroup(S);
          }
          Block = Next;
          break;
        }

        issueAndExec(S, Op);
      }
    }
  }

private:
  const Module &M;
  MachineConfig Config;
  uint64_t MaxCycles;
  SimResult R;

  ExecState State;
  FastCache L1D, L1I, L2, L3;
  FastTlb DTlb, ITlb;
  BranchPredictor Pred;
  MshrFile Mshrs;
  WriteFifo WriteBuf;
  RNG Rng;

  /// The issue clock and the open group's slot counts (the in-order
  /// superscalar group). run() keeps them in a local and hands it to the
  /// helpers, so they stay in registers: as members, every store to the
  /// scoreboard or a cache array might alias them and forced a reload.
  struct Issue {
    uint64_t Cycle = 0;
    unsigned SlotsUsed = 0, IntUsed = 0, FpUsed = 0, MemUsed = 0;
  };

  /// The scoreboard, one word per register: ReadyAt << 1 | producedByLoad.
  /// The max of an op's four words is its latest source's ready cycle in
  /// the high bits, and in the low bit whether a load produced one of the
  /// sources ready at that cycle — the reference's tie rule, which blames a
  /// load for a tie with a fixed-latency producer.
  std::vector<uint64_t> Board;
  uint64_t DivBusyUntil = 0;

  std::vector<SimOp> AllOps;
  std::vector<SimBlock> Blocks;

  //===--------------------------------------------------------------------===//
  // Predecode
  //===--------------------------------------------------------------------===//

  bool predecode() {
    size_t Total = 0;
    for (const BasicBlock &B : M.Fn.Blocks)
      Total += B.Instrs.size();
    AllOps.reserve(Total);
    Blocks.resize(M.Fn.Blocks.size());

    std::vector<uint64_t> CodeAddr(M.Fn.Blocks.size());
    uint64_t Addr = CodeBase;
    for (const BasicBlock &B : M.Fn.Blocks) {
      CodeAddr[static_cast<size_t>(B.Id)] = Addr;
      Addr += 4 * B.Instrs.size();
    }

    // Board's two extra words (see run()).
    const uint32_t DummyId = M.Fn.numRegs(), SinkId = DummyId + 1;
    std::vector<Reg> Uses;
    for (size_t BI = 0; BI != M.Fn.Blocks.size(); ++BI) {
      const BasicBlock &B = M.Fn.Blocks[BI];
      SimBlock &SB = Blocks[BI];
      SB.Start = static_cast<uint32_t>(AllOps.size());
      SB.NumOps = static_cast<uint32_t>(B.Instrs.size());
      SB.BaseAddr = CodeAddr[static_cast<size_t>(B.Id)];

      for (const Instr &In : B.Instrs) {
        Uses.clear();
        In.appendUses(Uses);
        Reg D = In.def();
        for (Reg Rg : Uses)
          if (!Rg.isPhys())
            return fail();
        if (D.isValid() && !D.isPhys())
          return fail();

        SimOp Op{};
        assert(Uses.size() <= 4 && "instruction with more than four sources");
        for (size_t UI = 0; UI != 4; ++UI)
          Op.Uses[UI] = UI < Uses.size() ? Uses[UI].Id : DummyId;
        const OpInfo &Info = opInfo(In.Op);
        Op.Pipe = pipeOf(Info.Cls);
        Op.Bucket = In.IsSpill     ? BucketSpill
                    : In.IsRestore ? BucketRestore
                                   : static_cast<uint8_t>(Info.Cls);
        // The 1993 simple model gives every non-load a latency of 1.
        Op.Latency = Simple ? 1 : Info.Latency;
        Op.DefId = D.isValid() ? D.Id : SinkId;
        if (Info.IsTerminator) {
          Op.Flags = FlagTerm;
          Op.TermKind = In.Op == Opcode::Ret  ? TermRet
                        : In.Op == Opcode::Br ? TermBr
                                              : TermJmp;
          Op.CondId = In.SrcA.isValid() ? In.SrcA.Id : 0;
          Op.T0 = In.Target0;
          Op.T1 = In.Target1;
        } else {
          Op.U = decodeMicro(In);
          if (Info.IsLoad)
            Op.Flags |= FlagLoad;
          if (Info.IsStore)
            Op.Flags |= FlagStore;
          if (In.Op == Opcode::FDiv)
            Op.Flags |= FlagFDiv;
        }
        AllOps.push_back(Op);
      }
      markFetchRuns(SB);
    }
    return true;
  }

  bool fail() {
    R.Error = "simulator requires register-allocated code";
    return false;
  }

  /// Marks maximal same-line, same-page instruction runs: RunLen on the run
  /// head is the number of consecutive instructions sharing the head's
  /// I-cache line and page (every later one is a guaranteed fetch hit).
  void markFetchRuns(SimBlock &SB) {
    if (SB.NumOps == 0)
      return;
    SimOp *Ops = &AllOps[SB.Start];
    uint64_t HeadLine = SB.BaseAddr / Config.L1I.LineSize;
    uint64_t HeadPage = SB.BaseAddr / Config.PageSize;
    uint32_t RunStart = 0;
    for (uint32_t I = 1; I <= SB.NumOps; ++I) {
      bool Boundary = I == SB.NumOps;
      if (!Boundary) {
        uint64_t A = SB.BaseAddr + 4ull * I;
        uint64_t Line = A / Config.L1I.LineSize;
        uint64_t Page = A / Config.PageSize;
        Boundary = Line != HeadLine || Page != HeadPage;
        if (Boundary) {
          HeadLine = Line;
          HeadPage = Page;
        }
      }
      if (Boundary) {
        Ops[RunStart].RunLen = I - RunStart;
        RunStart = I;
      }
    }
  }

  void finishCounts(const uint64_t (&CountBy)[NumBuckets]) {
    R.Counts.ShortInt = CountBy[static_cast<int>(InstrClass::ShortInt)];
    R.Counts.LongInt = CountBy[static_cast<int>(InstrClass::LongInt)];
    R.Counts.ShortFp = CountBy[static_cast<int>(InstrClass::ShortFp)];
    R.Counts.LongFp = CountBy[static_cast<int>(InstrClass::LongFp)];
    R.Counts.Loads = CountBy[static_cast<int>(InstrClass::LoadCls)];
    R.Counts.Stores = CountBy[static_cast<int>(InstrClass::StoreCls)];
    R.Counts.Branches = CountBy[static_cast<int>(InstrClass::BranchCls)];
    R.Counts.Spills = CountBy[BucketSpill];
    R.Counts.Restores = CountBy[BucketRestore];
  }

  //===--------------------------------------------------------------------===//
  // Issue groups
  //===--------------------------------------------------------------------===//

  bool slotAvailable(const Issue &S, const SimOp &Op) const {
    if (S.SlotsUsed >= Config.IssueWidth)
      return false;
    if (!Wide)
      return true; // the single slot is the only constraint
    switch (Op.Pipe) {
    case 0:
      return S.IntUsed < MaxIntPerCycle;
    case 1:
      return S.FpUsed < MaxFpPerCycle;
    default:
      return S.MemUsed < MaxMemPerCycle;
    }
  }

  /// Ends the current issue group: the next instruction starts a new cycle.
  static void closeGroup(Issue &S) {
    ++S.Cycle;
    S.SlotsUsed = S.IntUsed = S.FpUsed = S.MemUsed = 0;
  }

  /// Moves time forward (stalls); any partially filled group is abandoned.
  static void advanceTo(Issue &S, uint64_t NewCycle) {
    S.Cycle = NewCycle;
    S.SlotsUsed = S.IntUsed = S.FpUsed = S.MemUsed = 0;
  }

  /// A stall discovered while the current instruction is issuing (divider,
  /// TLB refill, MSHR or write-buffer pressure): time moves, and the group
  /// is marked full so the next instruction starts a fresh cycle.
  void stallInIssue(Issue &S, uint64_t NewCycle) const {
    S.Cycle = NewCycle;
    S.SlotsUsed = Config.IssueWidth;
  }

  static void takeSlot(Issue &S, const SimOp &Op) {
    ++S.SlotsUsed;
    if (!Wide)
      return; // per-pipe counters are only consulted when issuing wide
    switch (Op.Pipe) {
    case 0: ++S.IntUsed; break;
    case 1: ++S.FpUsed; break;
    default: ++S.MemUsed; break;
    }
  }

  //===--------------------------------------------------------------------===//
  // Front end
  //===--------------------------------------------------------------------===//

  void fetch(Issue &S, uint64_t Addr) {
    if (!ITlb.access(Addr)) {
      ++R.ITlbMisses;
      advanceTo(S, S.Cycle + static_cast<uint64_t>(Config.TlbRefillLatency));
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
      advanceTo(S, S.Cycle + Stall);
      R.ICacheStallCycles += Stall;
    }
  }

  //===--------------------------------------------------------------------===//
  // Scoreboard
  //===--------------------------------------------------------------------===//

  void stallOnSources(Issue &S, const SimOp &Op) {
    const uint64_t *B = Board.data();
    uint64_t Latest = std::max(std::max(B[Op.Uses[0]], B[Op.Uses[1]]),
                               std::max(B[Op.Uses[2]], B[Op.Uses[3]]));
    uint64_t Until = Latest >> 1;
    if (Until > S.Cycle) {
      uint64_t Stall = Until - S.Cycle;
      // A load among the latest producers takes the blame, like the paper's
      // accounting of load interlocks.
      if (Latest & 1)
        R.LoadInterlockCycles += Stall;
      else
        R.FixedInterlockCycles += Stall;
      advanceTo(S, Until);
    }
  }

  void setReady(uint32_t Id, uint64_t At, bool ByLoad) {
    Board[Id] = At << 1 | static_cast<uint64_t>(ByLoad);
  }

  //===--------------------------------------------------------------------===//
  // Back end
  //===--------------------------------------------------------------------===//

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

  void issueAndExec(Issue &S, const SimOp &Op) {
    if (Op.Flags & FlagLoad) {
      uint64_t Addr =
          static_cast<uint64_t>(State.readInt(Op.U.B) + Op.U.Imm);
      int Latency;
      if (Simple) {
        Latency = Rng.nextBool(Config.SimpleHitRate)
                      ? SimpleHitLatency
                      : Config.SimpleMissLatency;
      } else {
        if (!DTlb.access(Addr)) {
          ++R.DTlbMisses;
          stallInIssue(S, S.Cycle +
                              static_cast<uint64_t>(Config.TlbRefillLatency));
          R.DTlbStallCycles += static_cast<uint64_t>(Config.TlbRefillLatency);
        }
        uint64_t Line = L1D.lineOf(Addr);
        // A live entry's completion is always past its insert cycle, so 0
        // (absent) and stale entries take the same miss path — exactly the
        // reference's (found && Done > Cycle) merge condition.
        uint64_t PendingDone = Mshrs.findDone(Line);
        if (PendingDone > S.Cycle) {
          // Merge with the outstanding miss to the same line. Keep the L1
          // counters honest: this is another L1 access that did not hit in
          // the live cache state.
          Latency = static_cast<int>(PendingDone - S.Cycle);
          ++R.L1D.Accesses;
        } else {
          Latency = dataAccess(Addr, /*IsLoad=*/true);
          if (Latency > Config.L1D.Latency) {
            // Lockup-free cache: take an MSHR, stalling if all are busy.
            Mshrs.retire(S.Cycle);
            if (Mshrs.size() >= Config.NumMSHRs) {
              uint64_t Earliest = Mshrs.earliestDone();
              R.MshrStallCycles += Earliest - S.Cycle;
              stallInIssue(S, Earliest);
              Mshrs.retire(S.Cycle);
            }
            Mshrs.insert(Line, S.Cycle + static_cast<uint64_t>(Latency));
          }
        }
      }
      setReady(Op.DefId, S.Cycle + static_cast<uint64_t>(Latency), true);

      uint64_t Bits = State.loadWord(Addr);
      if (Op.U.K == MicroKind::FLoad) {
        double V;
        std::memcpy(&V, &Bits, 8);
        State.writeFp(Op.U.Dst, V);
      } else {
        State.writeInt(Op.U.Dst, static_cast<int64_t>(Bits));
      }
      return;
    }

    if (Op.Flags & FlagStore) {
      uint64_t Addr =
          static_cast<uint64_t>(State.readInt(Op.U.B) + Op.U.Imm);
      if (!Simple) {
        if (!DTlb.access(Addr)) {
          ++R.DTlbMisses;
          stallInIssue(S, S.Cycle +
                              static_cast<uint64_t>(Config.TlbRefillLatency));
          R.DTlbStallCycles += static_cast<uint64_t>(Config.TlbRefillLatency);
        }
        // Write-through with no write-allocate at L1; the write buffer
        // absorbs the L2 access time.
        L1D.touch(Addr, R.L1D);
        L2.access(Addr, /*Allocate=*/true, R.L2);
        WriteBuf.drain(S.Cycle);
        if (WriteBuf.size() >= Config.WriteBufferEntries) {
          uint64_t Earliest = WriteBuf.front();
          R.WriteBufferStallCycles += Earliest - S.Cycle;
          stallInIssue(S, Earliest);
          WriteBuf.drain(S.Cycle);
        }
        WriteBuf.push(S.Cycle + static_cast<uint64_t>(Config.L2.Latency));
      }

      uint64_t Bits;
      if (Op.U.K == MicroKind::FStore) {
        double V = State.readFp(Op.U.A);
        std::memcpy(&Bits, &V, 8);
      } else {
        Bits = static_cast<uint64_t>(State.readInt(Op.U.A));
      }
      State.storeWord(Addr, Bits);
      return;
    }

    int Latency = Op.Latency;
    if ((Op.Flags & FlagFDiv) && !Simple) {
      // The divider is not pipelined.
      if (DivBusyUntil > S.Cycle) {
        R.FixedInterlockCycles += DivBusyUntil - S.Cycle;
        stallInIssue(S, DivBusyUntil);
      }
      DivBusyUntil = S.Cycle + static_cast<uint64_t>(Latency);
    }
    setReady(Op.DefId, S.Cycle + static_cast<uint64_t>(Latency), false);
    execMicro(State, Op.U);
  }
};

} // namespace

SimResult sim::detail::simulateFast(const Module &M,
                                    const MachineConfig &Config,
                                    uint64_t MaxCycles) {
  const bool Simple = Config.SimpleModel;
  const bool Fetch = !Simple && !Config.PerfectFrontEnd;
  const bool Wide = Config.IssueWidth > 1;
  if (Simple)
    return Wide ? FastSimulator<true, false, true>(M, Config, MaxCycles).run()
                : FastSimulator<true, false, false>(M, Config, MaxCycles).run();
  if (Fetch)
    return Wide ? FastSimulator<false, true, true>(M, Config, MaxCycles).run()
                : FastSimulator<false, true, false>(M, Config, MaxCycles).run();
  return Wide ? FastSimulator<false, false, true>(M, Config, MaxCycles).run()
              : FastSimulator<false, false, false>(M, Config, MaxCycles).run();
}
