//===- trace/Trace.cpp - Profile-guided trace scheduling -------------------===//
//
// The optimized trace-scheduling core (TraceImpl::Fast). Three things
// distinguish it from the seed implementation preserved in
// TraceReference.cpp:
//
//  - dense indices everywhere: trace formation walks a flat successor table
//    and a predecessor CSR instead of materializing successor/predecessor
//    vectors per step, and the scheduler maintains per-block predecessor
//    lists incrementally across compensation edits instead of rescanning
//    the whole function per join;
//  - the cross-block dependence DAG is extended incrementally as each block
//    joins the trace (sched::DepDAGBuilder), the region is a vector of
//    pointers into the trace blocks rather than a copied instruction
//    vector, and the scheduled segments are MOVED into place (every segment
//    is staged before any block is assigned, so later segments still read
//    live source buffers; compensation then copies the installed
//    instructions back out through the position mapping);
//  - transient position/home/segment arrays live in a bump-pointer arena
//    (support/Arena.h) that is rewound per trace, and every vector scratch
//    is recycled across traces.
//
// Output is byte-identical to the reference twin — same traces, same
// schedules, same compensation blocks in the same order. The golden-schedule
// tests, trace_equivalence_test, and the fuzz oracle's trace twin check
// assert this; the comments below flag every spot where the equivalence is
// non-obvious (tie-break order, duplicate predecessor entries, move-install
// lifetimes).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "ir/CFG.h"
#include "ir/Liveness.h"
#include "sched/DepDAG.h"
#include "support/Arena.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace bsched;
using namespace bsched::trace;
using namespace bsched::ir;
using namespace bsched::sched;

namespace {

/// Per-edge execution counts keyed by (from, successor slot).
uint64_t edgeCount(const InterpResult &Profile, int From, size_t Slot) {
  if (static_cast<size_t>(From) >= Profile.EdgeCounts.size() || Slot >= 2)
    return 0;
  return Profile.EdgeCounts[From][Slot];
}

uint64_t nsSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

} // namespace

//===----------------------------------------------------------------------===//
// Trace formation
//===----------------------------------------------------------------------===//

std::vector<Trace> trace::formTraces(const Function &F,
                                     const InterpResult &Profile) {
  size_t N = F.Blocks.size();
  std::vector<std::vector<bool>> Back = findBackEdges(F);

  // Flat successor table in the terminator's (taken, fallthrough) slot
  // order, replacing the per-step successors() vector materialization.
  std::vector<int> Succ(2 * N, -1);
  std::vector<uint8_t> NumSucc(N, 0);
  for (size_t B = 0; B != N; ++B) {
    const Instr &T = F.Blocks[B].terminator();
    if (T.Op == Opcode::Br) {
      Succ[2 * B] = T.Target0;
      Succ[2 * B + 1] = T.Target1;
      NumSucc[B] = 2;
    } else if (T.Op == Opcode::Jmp) {
      Succ[2 * B] = T.Target0;
      NumSucc[B] = 1;
    }
  }

  // Traces stay within one loop level: growth never crosses an edge that
  // leaves a loop (out of a latch) or enters one (into a header). Beyond
  // matching the Multiflow restriction that traces do not cross loop
  // boundaries, this guarantees that no interior trace block receives a
  // back edge, so every segment of a scheduled trace executes at most once
  // per trace entry (the compensation-code invariant).
  std::vector<bool> IsHeader(N, false), IsLatch(N, false);
  for (size_t B = 0; B != N; ++B)
    for (unsigned K = 0; K != NumSucc[B]; ++K)
      if (Back[B][K]) {
        IsLatch[B] = true;
        IsHeader[Succ[2 * B + K]] = true;
      }

  // Predecessor CSR enumerating in-edges in (block id, successor slot)
  // order — exactly Function::predecessors' iteration order, one entry per
  // parallel edge. Backward growth below therefore performs the identical
  // sequence of strictly-greater comparisons as the seed's rescan (a
  // duplicated predecessor contributes no update on its repeat visits).
  std::vector<unsigned> PredStart(N + 1, 0);
  for (size_t B = 0; B != N; ++B)
    for (unsigned K = 0; K != NumSucc[B]; ++K)
      ++PredStart[static_cast<size_t>(Succ[2 * B + K]) + 1];
  for (size_t B = 0; B != N; ++B)
    PredStart[B + 1] += PredStart[B];
  std::vector<int> PredBlock(PredStart[N]);
  std::vector<uint8_t> PredSlot(PredStart[N]);
  {
    std::vector<unsigned> Fill(PredStart.begin(), PredStart.end() - 1);
    for (size_t B = 0; B != N; ++B)
      for (unsigned K = 0; K != NumSucc[B]; ++K) {
        unsigned &At = Fill[static_cast<size_t>(Succ[2 * B + K])];
        PredBlock[At] = static_cast<int>(B);
        PredSlot[At] = static_cast<uint8_t>(K);
        ++At;
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
  std::vector<int> Prefix;

  for (int Seed : Seeds) {
    if (Taken[Seed])
      continue;
    Trace T{Seed};
    Taken[Seed] = true;

    // Grow forward along the hottest non-back edge into fresh blocks.
    int B = Seed;
    while (!IsLatch[B]) {
      int Best = -1;
      uint64_t BestCount = 0;
      for (unsigned K = 0; K != NumSucc[B]; ++K) {
        int S = Succ[2 * static_cast<size_t>(B) + K];
        if (Back[B][K] || Taken[S] || IsHeader[S])
          continue;
        uint64_t C = edgeCount(Profile, B, K);
        if (C > BestCount) {
          BestCount = C;
          Best = S;
        }
      }
      if (Best < 0)
        break;
      T.push_back(Best);
      Taken[Best] = true;
      B = Best;
    }

    // Grow backward along the hottest incoming non-back edge; the prefix is
    // collected outward and reversed into place (equivalent to the seed's
    // repeated front insertion).
    Prefix.clear();
    B = Seed;
    while (!IsHeader[B]) {
      int Best = -1;
      uint64_t BestCount = 0;
      for (unsigned E = PredStart[B]; E != PredStart[B + 1]; ++E) {
        int P = PredBlock[E];
        if (Taken[P] || IsLatch[P] || Back[P][PredSlot[E]])
          continue;
        uint64_t C = edgeCount(Profile, P, PredSlot[E]);
        if (C > BestCount) {
          BestCount = C;
          Best = P;
        }
      }
      if (Best < 0)
        break;
      Prefix.push_back(Best);
      Taken[Best] = true;
      B = Best;
    }
    if (!Prefix.empty()) {
      std::reverse(Prefix.begin(), Prefix.end());
      T.insert(T.begin(), Prefix.begin(), Prefix.end());
    }

    Traces.push_back(std::move(T));
  }
  return Traces;
}

//===----------------------------------------------------------------------===//
// Trace scheduling
//===----------------------------------------------------------------------===//

namespace {

/// Region scratch recycled across *compiles*, not just across the traces of
/// one compile: the batched compile service (driver::runAll) has each pool
/// worker drain a whole chunk of jobs, and routing every compile on a
/// thread through one scratch instance means the arena chunks, DAG storage
/// and staging vectors reach steady state once per worker instead of being
/// reallocated per compile. Every member is (re)initialized at its use site
/// — beginRegion, assign, clear, reset — so reuse never leaks state from a
/// previous compile; the trace-twin equivalence tests and golden schedule
/// hashes pin that.
struct TraceScratch {
  DepDAGBuilder Builder;
  BalancedWeightsBuilder WB;
  Arena A;
  std::vector<const Instr *> Ptrs;
  std::vector<std::vector<Instr>> Segs;
  std::vector<unsigned> Crossed;
  std::vector<int> OffPreds;
  std::vector<std::vector<int>> PredList;
};

class TraceScheduler {
public:
  TraceScheduler(Module &M, const InterpResult &Profile, SchedulerKind Kind,
                 BalanceOptions Opts, TraceScratch &S)
      : M(M), Profile(Profile), Kind(Kind), Opts(Opts), Builder(S.Builder),
        WB(S.WB), A(S.A), Ptrs(S.Ptrs), Segs(S.Segs), Crossed(S.Crossed),
        OffPreds(S.OffPreds), PredList(S.PredList) {}

  TraceStats run() {
    Liveness L = computeLiveness(M.Fn);
    auto T0 = std::chrono::steady_clock::now();
    std::vector<Trace> Traces = formTraces(M.Fn, Profile);
    buildPredLists();
    Stats.FormNs = nsSince(T0);
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

  /// Region state recycled across traces, single blocks, and (via the
  /// thread-local TraceScratch) whole batches of compiles.
  DepDAGBuilder &Builder;
  BalancedWeightsBuilder &WB;
  Arena &A;
  std::vector<const Instr *> &Ptrs;
  std::vector<std::vector<Instr>> &Segs;
  std::vector<unsigned> &Crossed;
  std::vector<int> &OffPreds;

  /// Per-block predecessor ids, one entry per in-edge, in (block id,
  /// successor slot) order — the exact contents Function::predecessors
  /// would return, maintained incrementally as compensation retargets
  /// edges (instead of an O(blocks) rescan per join).
  std::vector<std::vector<int>> &PredList;

  /// Balanced weights for the current region in Ptrs via the recycled
  /// incremental builder (one extension step per entry of \p Boundaries, or
  /// a single whole-region step when none are given). Routes to the
  /// reference algorithm when the scheduler twin is selected, and charges
  /// the time to the WeightsNs phase timer either way.
  std::vector<double>
  builderBalancedWeights(const DepDAG &G,
                         const unsigned *Boundaries = nullptr, // terminator ids
                         size_t NumBoundaries = 0) {
    auto T0 = std::chrono::steady_clock::now();
    std::vector<double> W;
    if (Opts.Impl == SchedImpl::Reference) {
      W = balancedWeights(G, Ptrs, Opts);
    } else {
      WB.begin(Opts);
      for (size_t I = 0; I != NumBoundaries; ++I)
        WB.extend(G, Ptrs, Boundaries[I] + 1); // cover through this term
      WB.extend(G, Ptrs);
      W = WB.weights(Ptrs);
    }
    Stats.WeightsNs += nsSince(T0);
    return W;
  }

  void buildPredLists() {
    const Function &F = M.Fn;
    PredList.assign(F.Blocks.size(), {});
    for (const BasicBlock &B : F.Blocks)
      for (int S : B.successors())
        PredList[S].push_back(B.Id);
  }

  void scheduleSingleBlock(int B) {
    BasicBlock &BB = M.Fn.Blocks[B];
    if (BB.Instrs.size() <= 2)
      return;
    auto T0 = std::chrono::steady_clock::now();
    // sched::scheduleRegion with the recycled incremental builder; the
    // install moves instructions instead of copying them (the source
    // vector stays alive until the final assignment).
    Ptrs.clear();
    Ptrs.reserve(BB.Instrs.size());
    Builder.beginRegion(static_cast<unsigned>(BB.Instrs.size()));
    for (const Instr &I : BB.Instrs) {
      Ptrs.push_back(&I);
      Builder.append(&I);
    }
    DepDAG &G = Builder.finalize();
    addBlockControlEdges(G, Ptrs);
    SchedulerKind RegionKind = effectiveKind(Kind, Ptrs, Opts);
    std::vector<double> W = RegionKind == SchedulerKind::Balanced
                                ? builderBalancedWeights(G)
                                : traditionalWeights(Ptrs);
    std::vector<unsigned> Order = listSchedule(G, W, Ptrs,
                                               Opts.PressureThreshold,
                                               Opts.Impl);
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size());
    for (unsigned I : Order)
      NewInstrs.push_back(std::move(BB.Instrs[I]));
    BB.Instrs = std::move(NewInstrs);
    Stats.CompactNs += nsSince(T0);
  }

  void scheduleTrace(const Trace &T, const Liveness &L) {
    auto T0 = std::chrono::steady_clock::now();
    Function &F = M.Fn;
    size_t K = T.size();
    A.reset();

    size_t Total = 0;
    for (int B : T)
      Total += F.Blocks[B].Instrs.size();

    // Region = concatenated instruction pointers into the trace blocks (no
    // copies); the cross-block DAG is extended incrementally as each block
    // joins the region. Home positions and terminator node ids live in the
    // per-trace arena.
    int *Home = A.alloc<int>(Total);
    unsigned *TermNode = A.alloc<unsigned>(K);
    Ptrs.clear();
    Ptrs.reserve(Total);
    Builder.beginRegion(static_cast<unsigned>(Total));
    for (size_t Pos = 0; Pos != K; ++Pos) {
      for (const Instr &I : F.Blocks[T[Pos]].Instrs) {
        Home[Ptrs.size()] = static_cast<int>(Pos);
        Ptrs.push_back(&I);
        Builder.append(&I);
      }
      TermNode[Pos] = static_cast<unsigned>(Ptrs.size()) - 1;
    }
    DepDAG &G = Builder.finalize();

    // Control constraints.
    // (a) Branches keep their relative order.
    for (size_t Pos = 1; Pos != K; ++Pos)
      G.addEdge(TermNode[Pos - 1], TermNode[Pos]);
    // (b) No downward motion past the home block's terminator.
    for (unsigned I = 0; I != Total; ++I)
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
      for (unsigned I = 0; I != Total; ++I) {
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
      for (int P : PredList[T[Mm]])
        if (P != T[Mm - 1])
          OffFlow += edgeFlow(P, T[Mm]);
      if (OffFlow == 0 || 2 * OffFlow < OnFlow)
        continue; // joins with negligible off-trace flow stay free
      for (unsigned I = 0; I != Total; ++I)
        if (Home[I] >= static_cast<int>(Mm))
          G.addEdge(TermNode[Mm - 1], I);
    }

    // Weights + list scheduling over the whole trace ("as though the trace
    // were a single basic block"). Balanced weights extend block by block:
    // each constituent block is one incremental step of the builder, so the
    // reachability rows of an already-covered prefix are reused rather than
    // reswept (the weights come out bit-identical to a one-shot pass).
    SchedulerKind RegionKind = effectiveKind(Kind, Ptrs, Opts);
    std::vector<double> W = RegionKind == SchedulerKind::Balanced
                                ? builderBalancedWeights(G, TermNode, K - 1)
                                : traditionalWeights(Ptrs);
    std::vector<unsigned> Order = listSchedule(G, W, Ptrs,
                                               Opts.PressureThreshold,
                                               Opts.Impl);

    // --- Reconstruction --------------------------------------------------
    // Cut the schedule at the terminators; segment Pos replaces trace block
    // T[Pos], so every external edge keeps its target. Order doubles as the
    // segment concatenation: SegOff[Pos] is segment Pos's start position.
    size_t *SegOff = A.alloc<size_t>(K + 1);
    size_t *PosOf = A.alloc<size_t>(Total);
    int *SegOfNode = A.alloc<int>(Total);
    {
      size_t Seg = 0;
      SegOff[0] = 0;
      for (size_t P = 0; P != Order.size(); ++P) {
        unsigned Node = Order[P];
        assert(Seg < K && "instructions scheduled after the last terminator");
        PosOf[Node] = P;
        SegOfNode[Node] = static_cast<int>(Seg);
        if (Ptrs[Node]->isTerminator()) {
          ++Seg;
          SegOff[Seg] = P + 1;
        }
      }
      assert(Seg == K && "terminator count mismatch");
    }

    // Install by moving: stage EVERY segment before assigning ANY block, so
    // later segments still read live source buffers (the assignment below
    // frees them). Swapping (rather than moving) the staged vectors in
    // recycles both allocations across traces.
    if (Segs.size() < K)
      Segs.resize(K);
    for (size_t Pos = 0; Pos != K; ++Pos) {
      std::vector<Instr> &S = Segs[Pos];
      S.clear();
      S.reserve(SegOff[Pos + 1] - SegOff[Pos]);
      for (size_t P = SegOff[Pos]; P != SegOff[Pos + 1]; ++P)
        S.push_back(std::move(const_cast<Instr &>(*Ptrs[Order[P]])));
    }
    for (size_t Pos = 0; Pos != K; ++Pos)
      std::swap(F.Blocks[T[Pos]].Instrs, Segs[Pos]);
    Stats.CompactNs += nsSince(T0);

    // Compensation: for each join (off-trace edge entering T[m], m > 0),
    // copy every instruction whose home is below the join but which was
    // scheduled above it (i.e. before term_{m-1}). The originals were moved
    // into their scheduled slots above; node I now lives in segment
    // SegOfNode[I] at offset PosOf[I] - SegOff[SegOfNode[I]], and installed
    // non-terminators are never modified afterwards (retargeting only
    // touches terminators), so copying the installed instruction is
    // copying the original.
    auto T1 = std::chrono::steady_clock::now();
    for (size_t Mm = 1; Mm != K; ++Mm) {
      OffPreds.clear();
      for (int P : PredList[T[Mm]])
        if (P != T[Mm - 1])
          OffPreds.push_back(P);
      if (OffPreds.empty())
        continue;
      Crossed.clear();
      for (unsigned I = 0; I != Total; ++I)
        if (Home[I] >= static_cast<int>(Mm) &&
            PosOf[I] < PosOf[TermNode[Mm - 1]])
          Crossed.push_back(I); // Already in original order by construction.
      if (Crossed.empty())
        continue;

      int Comp = F.makeBlock();
      assert(static_cast<size_t>(Comp) == PredList.size() &&
             "predecessor lists out of step with block creation");
      PredList.emplace_back();
      ++Stats.CompensationBlocks;
      F.Blocks[Comp].Instrs.reserve(Crossed.size() + 1);
      for (unsigned I : Crossed) {
        size_t S = static_cast<size_t>(SegOfNode[I]);
        F.Blocks[Comp].Instrs.push_back(
            F.Blocks[T[S]].Instrs[PosOf[I] - SegOff[S]]);
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

      // Incremental predecessor maintenance: the off-trace in-edges of
      // T[Mm] now enter Comp (same relative order), and Comp's jump enters
      // T[Mm]. Comp's id is the global maximum, so appending it keeps the
      // list in Function::predecessors' (id, slot) order.
      std::vector<int> &JoinPreds = PredList[T[Mm]];
      std::vector<int> &CompPreds = PredList[static_cast<size_t>(Comp)];
      size_t Keep = 0;
      for (size_t E = 0; E != JoinPreds.size(); ++E) {
        if (JoinPreds[E] == T[Mm - 1])
          JoinPreds[Keep++] = JoinPreds[E];
        else
          CompPreds.push_back(JoinPreds[E]);
      }
      JoinPreds.resize(Keep);
      JoinPreds.push_back(Comp);
    }
    Stats.CompensationNs += nsSince(T1);
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

TraceStats trace::traceScheduleFunction(Module &M, const InterpResult &Profile,
                                        SchedulerKind Kind,
                                        BalanceOptions Opts, TraceImpl Impl) {
  if (Impl == TraceImpl::Reference)
    return reference::traceScheduleFunction(M, Profile, Kind, Opts);
  // One scratch per thread: a pool worker compiling a batch of jobs reuses
  // the same arena chunks and vector capacities for every compile it runs.
  static thread_local TraceScratch Scratch;
  return TraceScheduler(M, Profile, Kind, Opts, Scratch).run();
}
