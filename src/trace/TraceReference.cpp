//===- trace/TraceReference.cpp - Seed trace scheduler (reference twin) ----===//
//
// The original (seed) trace-formation and trace-scheduling implementation,
// preserved verbatim behind trace::TraceImpl::Reference. The optimized core
// in Trace.cpp produces byte-identical output (same traces, same schedules,
// same compensation blocks in the same order); the golden-schedule tests,
// trace_equivalence_test, and the fuzz oracle's trace twin check assert
// this. It also serves as the baseline that bench_compile_throughput
// measures the trace-scheduling overhaul against.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "ir/CFG.h"
#include "ir/Liveness.h"
#include "sched/DepDAG.h"

#include <algorithm>
#include <cassert>

using namespace bsched;
using namespace bsched::trace;
using namespace bsched::ir;
using namespace bsched::sched;

//===----------------------------------------------------------------------===//
// Back-edge detection
//===----------------------------------------------------------------------===//

namespace {

/// Per-edge execution counts keyed by (from, successor slot).
uint64_t edgeCount(const InterpResult &Profile, int From, size_t Slot) {
  if (static_cast<size_t>(From) >= Profile.EdgeCounts.size() || Slot >= 2)
    return 0;
  return Profile.EdgeCounts[From][Slot];
}

} // namespace

//===----------------------------------------------------------------------===//
// Trace formation
//===----------------------------------------------------------------------===//

std::vector<Trace> trace::reference::formTraces(const Function &F,
                                                const InterpResult &Profile) {
  size_t N = F.Blocks.size();
  std::vector<std::vector<bool>> Back = findBackEdges(F);

  // Traces stay within one loop level: growth never crosses an edge that
  // leaves a loop (out of a latch) or enters one (into a header). Beyond
  // matching the Multiflow restriction that traces do not cross loop
  // boundaries, this guarantees that no interior trace block receives a
  // back edge, so every segment of a scheduled trace executes at most once
  // per trace entry (the compensation-code invariant).
  std::vector<bool> IsHeader(N, false), IsLatch(N, false);
  for (size_t B = 0; B != N; ++B) {
    std::vector<int> Succs = F.Blocks[B].successors();
    for (size_t K = 0; K != Succs.size(); ++K)
      if (Back[B][K]) {
        IsLatch[B] = true;
        IsHeader[Succs[K]] = true;
      }
  }

  std::vector<int> Seeds(N);
  for (size_t B = 0; B != N; ++B)
    Seeds[B] = static_cast<int>(B);
  std::stable_sort(Seeds.begin(), Seeds.end(), [&](int A, int B) {
    uint64_t CA = static_cast<size_t>(A) < Profile.BlockCounts.size()
                      ? Profile.BlockCounts[A]
                      : 0;
    uint64_t CB = static_cast<size_t>(B) < Profile.BlockCounts.size()
                      ? Profile.BlockCounts[B]
                      : 0;
    return CA > CB;
  });

  std::vector<bool> Taken(N, false);
  std::vector<Trace> Traces;

  for (int Seed : Seeds) {
    if (Taken[Seed])
      continue;
    Trace T{Seed};
    Taken[Seed] = true;

    // Grow forward along the hottest non-back edge into fresh blocks.
    int B = Seed;
    while (!IsLatch[B]) {
      std::vector<int> Succs = F.Blocks[B].successors();
      int Best = -1;
      uint64_t BestCount = 0;
      for (size_t K = 0; K != Succs.size(); ++K) {
        if (Back[B][K] || Taken[Succs[K]] || IsHeader[Succs[K]])
          continue;
        uint64_t C = edgeCount(Profile, B, K);
        if (C > BestCount) {
          BestCount = C;
          Best = Succs[K];
        }
      }
      if (Best < 0)
        break;
      T.push_back(Best);
      Taken[Best] = true;
      B = Best;
    }

    // Grow backward along the hottest incoming non-back edge.
    B = Seed;
    while (!IsHeader[B]) {
      int Best = -1;
      uint64_t BestCount = 0;
      for (int P : F.predecessors(B)) {
        if (Taken[P] || IsLatch[P])
          continue;
        std::vector<int> Succs = F.Blocks[P].successors();
        for (size_t K = 0; K != Succs.size(); ++K) {
          if (Succs[K] != B || Back[P][K])
            continue;
          uint64_t C = edgeCount(Profile, P, K);
          if (C > BestCount) {
            BestCount = C;
            Best = P;
          }
        }
      }
      if (Best < 0)
        break;
      T.insert(T.begin(), Best);
      Taken[Best] = true;
      B = Best;
    }

    Traces.push_back(std::move(T));
  }
  return Traces;
}

//===----------------------------------------------------------------------===//
// Trace scheduling
//===----------------------------------------------------------------------===//

namespace {

class TraceScheduler {
public:
  TraceScheduler(Module &M, const InterpResult &Profile, SchedulerKind Kind,
                 BalanceOptions Opts)
      : M(M), Profile(Profile), Kind(Kind), Opts(Opts) {}

  TraceStats run() {
    Liveness L = computeLiveness(M.Fn);
    std::vector<Trace> Traces = trace::reference::formTraces(M.Fn, Profile);
    Stats.Traces = static_cast<int>(Traces.size());
    Stats.Formed = Traces;
    for (const Trace &T : Traces) {
      Stats.LongestTrace =
          std::max(Stats.LongestTrace, static_cast<int>(T.size()));
      if (T.size() >= 2) {
        ++Stats.MultiBlockTraces;
        scheduleTrace(T, L);
      } else {
        scheduleSingleBlock(T[0]);
      }
    }
    return Stats;
  }

private:
  Module &M;
  const InterpResult &Profile;
  SchedulerKind Kind;
  BalanceOptions Opts;
  TraceStats Stats;

  void scheduleSingleBlock(int B) {
    BasicBlock &BB = M.Fn.Blocks[B];
    if (BB.Instrs.size() <= 2)
      return;
    std::vector<const Instr *> Ptrs;
    for (const Instr &I : BB.Instrs)
      Ptrs.push_back(&I);
    std::vector<unsigned> Order = scheduleRegion(Ptrs, Kind, Opts);
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size());
    for (unsigned I : Order)
      NewInstrs.push_back(BB.Instrs[I]);
    BB.Instrs = std::move(NewInstrs);
  }

  void scheduleTrace(const Trace &T, const Liveness &L) {
    Function &F = M.Fn;
    size_t K = T.size();

    // Region = concatenated instructions; remember each one's home position
    // in the trace and the terminator node ids.
    std::vector<Instr> Region;
    std::vector<int> Home;
    std::vector<unsigned> TermNode(K);
    for (size_t Pos = 0; Pos != K; ++Pos) {
      const BasicBlock &B = F.Blocks[T[Pos]];
      for (const Instr &I : B.Instrs) {
        Region.push_back(I);
        Home.push_back(static_cast<int>(Pos));
      }
      TermNode[Pos] = static_cast<unsigned>(Region.size()) - 1;
    }

    std::vector<const Instr *> Ptrs;
    Ptrs.reserve(Region.size());
    for (const Instr &I : Region)
      Ptrs.push_back(&I);

    DepDAG G = buildDepDAG(Ptrs, Opts.Impl);

    // Control constraints.
    // (a) Branches keep their relative order.
    for (size_t Pos = 1; Pos != K; ++Pos)
      G.addEdge(TermNode[Pos - 1], TermNode[Pos]);
    // (b) No downward motion past the home block's terminator.
    for (unsigned I = 0; I != Region.size(); ++I)
      G.addEdge(I, TermNode[static_cast<size_t>(Home[I])]);
    // (c) Upward motion above a split is speculative: only safe
    //     instructions may cross, and only when the instruction's home
    //     block is not colder than the split (hoisting rarely-executed code
    //     onto a frequent path inflates the dynamic instruction count — the
    //     paper's DYFESM pathology).
    auto FreqOf = [&](size_t Pos) -> uint64_t {
      int B = T[Pos];
      return static_cast<size_t>(B) < Profile.BlockCounts.size()
                 ? Profile.BlockCounts[B]
                 : 0;
    };
    for (size_t Split = 0; Split + 1 != K; ++Split) {
      int OffTrace = offTraceSuccessor(T, Split);
      if (OffTrace < 0)
        continue; // Unconditional jump to the next trace block: no split.
      uint64_t SplitFreq = FreqOf(Split);
      for (unsigned I = 0; I != Region.size(); ++I) {
        if (Home[I] <= static_cast<int>(Split) || Ptrs[I]->isTerminator())
          continue;
        if (FreqOf(static_cast<size_t>(Home[I])) >= SplitFreq &&
            isSpeculationSafe(*Ptrs[I], OffTrace, L))
          continue;
        G.addEdge(TermNode[Split], I);
      }
    }

    // (d) Upward motion above a join is only worthwhile when the on-trace
    //     flow dominates the off-trace entries; otherwise the compensation
    //     copies on the entering edges would execute about as often as the
    //     hoisted originals, inflating the dynamic instruction count for
    //     nothing. Pin the join in that case.
    for (size_t Mm = 1; Mm != K; ++Mm) {
      uint64_t OnFlow = edgeFlow(T[Mm - 1], T[Mm]);
      uint64_t OffFlow = 0;
      for (int P : F.predecessors(T[Mm]))
        if (P != T[Mm - 1])
          OffFlow += edgeFlow(P, T[Mm]);
      if (OffFlow == 0 || 2 * OffFlow < OnFlow)
        continue; // joins with negligible off-trace flow stay free
      for (unsigned I = 0; I != Region.size(); ++I)
        if (Home[I] >= static_cast<int>(Mm))
          G.addEdge(TermNode[Mm - 1], I);
    }

    // Weights + list scheduling over the whole trace ("as though the trace
    // were a single basic block").
    SchedulerKind RegionKind = effectiveKind(Kind, Ptrs, Opts);
    std::vector<double> W = RegionKind == SchedulerKind::Balanced
                                ? balancedWeights(G, Ptrs, Opts)
                                : traditionalWeights(Ptrs);
    std::vector<unsigned> Order = listSchedule(G, W, Ptrs,
                                               Opts.PressureThreshold,
                                               Opts.Impl);

    // --- Reconstruction --------------------------------------------------
    // Cut the schedule at the terminators; segment Pos replaces trace block
    // T[Pos], so every external edge keeps its target.
    std::vector<std::vector<unsigned>> Segments(K);
    {
      size_t Seg = 0;
      for (unsigned Node : Order) {
        assert(Seg < K && "instructions scheduled after the last terminator");
        Segments[Seg].push_back(Node);
        if (Ptrs[Node]->isTerminator())
          ++Seg;
      }
      assert(Seg == K && "terminator count mismatch");
    }

    // Positions for the join bookkeeping.
    std::vector<size_t> PosOf(Region.size());
    for (size_t P = 0; P != Order.size(); ++P)
      PosOf[Order[P]] = P;

    // Install the segments first: compensation below retargets terminators
    // of off-trace predecessors, which may themselves be trace blocks (a
    // loop back edge re-entering the trace), so their final instruction
    // lists must already be in place.
    for (size_t Pos = 0; Pos != K; ++Pos) {
      std::vector<Instr> NewInstrs;
      NewInstrs.reserve(Segments[Pos].size());
      for (unsigned Node : Segments[Pos])
        NewInstrs.push_back(Region[Node]);
      F.Blocks[T[Pos]].Instrs = std::move(NewInstrs);
    }

    // Compensation: for each join (off-trace edge entering T[m], m > 0),
    // copy every instruction whose home is below the join but which was
    // scheduled above it (i.e. before term_{m-1}).
    for (size_t Mm = 1; Mm != K; ++Mm) {
      std::vector<int> OffPreds;
      for (int P : F.predecessors(T[Mm]))
        if (P != T[Mm - 1])
          OffPreds.push_back(P);
      if (OffPreds.empty())
        continue;
      std::vector<unsigned> Crossed;
      for (unsigned I = 0; I != Region.size(); ++I)
        if (Home[I] >= static_cast<int>(Mm) &&
            PosOf[I] < PosOf[TermNode[Mm - 1]])
          Crossed.push_back(I); // Already in original order by construction.
      if (Crossed.empty())
        continue;

      int Comp = F.makeBlock();
      ++Stats.CompensationBlocks;
      for (unsigned I : Crossed) {
        F.Blocks[Comp].Instrs.push_back(Region[I]);
        ++Stats.CompensationInstrs;
      }
      Instr Jmp;
      Jmp.Op = Opcode::Jmp;
      Jmp.Target0 = T[Mm];
      F.Blocks[Comp].Instrs.push_back(Jmp);

      for (int P : OffPreds) {
        Instr &Term = F.Blocks[P].terminator();
        if (Term.Target0 == T[Mm])
          Term.Target0 = Comp;
        if (Term.Op == Opcode::Br && Term.Target1 == T[Mm])
          Term.Target1 = Comp;
      }
    }
  }

  /// Profile count of the CFG edge From -> To (summing parallel edges).
  uint64_t edgeFlow(int From, int To) const {
    if (static_cast<size_t>(From) >= Profile.EdgeCounts.size())
      return 0;
    const Instr &Term = M.Fn.Blocks[From].terminator();
    uint64_t Flow = 0;
    if (Term.Target0 == To)
      Flow += Profile.EdgeCounts[From][0];
    if (Term.Op == Opcode::Br && Term.Target1 == To)
      Flow += Profile.EdgeCounts[From][1];
    return Flow;
  }

  /// The successor of trace block \p Split that leaves the trace, or -1.
  int offTraceSuccessor(const Trace &T, size_t Split) {
    const Instr &Term = M.Fn.Blocks[T[Split]].terminator();
    if (Term.Op != Opcode::Br)
      return -1;
    int OnTrace = T[Split + 1];
    if (Term.Target0 != OnTrace)
      return Term.Target0;
    if (Term.Target1 != OnTrace)
      return Term.Target1;
    return -1; // Both arms stay on trace.
  }

  /// Safe to execute \p I when the branch to \p OffTraceBlock is taken:
  /// not a store, and the written register is dead on that path. Loads are
  /// treated as non-faulting when speculated. A compensation block created
  /// after \p L was solved has no liveness row, so nothing that writes a
  /// register is speculated above a branch to it.
  bool isSpeculationSafe(const Instr &I, int OffTraceBlock,
                         const Liveness &L) {
    if (I.isStore())
      return false;
    Reg D = I.def();
    if (D.isValid() &&
        (static_cast<size_t>(OffTraceBlock) >= L.LiveIn.size() ||
         L.isLiveIn(OffTraceBlock, D)))
      return false;
    // Conditional moves read their old destination; hoisting one above a
    // split re-reads state but writes only D, covered above.
    return true;
  }
};

} // namespace

TraceStats trace::reference::traceScheduleFunction(Module &M,
                                                   const InterpResult &Profile,
                                                   SchedulerKind Kind,
                                                   BalanceOptions Opts) {
  return TraceScheduler(M, Profile, Kind, Opts).run();
}
