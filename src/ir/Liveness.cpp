//===- ir/Liveness.cpp - Global register liveness -------------------------===//

#include "ir/Liveness.h"

#include <algorithm>
#include <cstring>

using namespace bsched;
using namespace bsched::ir;

Liveness ir::computeLiveness(const Function &F) {
  LivenessTracker T;
  T.compute(F);
  size_t NumBlocks = T.numBlocks(), W = T.words();
  Liveness L;
  L.LiveIn.assign(NumBlocks, BitVec(F.numRegs()));
  L.LiveOut.assign(NumBlocks, BitVec(F.numRegs()));
  for (size_t B = 0; W != 0 && B != NumBlocks; ++B) {
    std::memcpy(L.LiveIn[B].words().data(), T.liveInRow(static_cast<int>(B)),
                W * sizeof(uint64_t));
    std::memcpy(L.LiveOut[B].words().data(), T.liveOutRow(static_cast<int>(B)),
                W * sizeof(uint64_t));
  }
  return L;
}

//===----------------------------------------------------------------------===//
// LivenessTracker
//===----------------------------------------------------------------------===//

void LivenessTracker::rebuildGenKill(const Function &F, int Block) {
  uint64_t *UseB = Use.data() + size_t(Block) * W;
  uint64_t *DefB = Def.data() + size_t(Block) * W;
  std::memset(UseB, 0, W * sizeof(uint64_t));
  std::memset(DefB, 0, W * sizeof(uint64_t));
  for (const Instr &I : F.Blocks[Block].Instrs) {
    UsesScratch.clear();
    I.appendUses(UsesScratch);
    for (Reg R : UsesScratch)
      if (!testBit(DefB, R.Id))
        UseB[R.Id / 64] |= 1ull << (R.Id % 64);
    // CMov-style partial writes already appear in the uses; a definition
    // after that still kills downward exposure.
    if (Reg D = I.def(); D.isValid())
      DefB[D.Id / 64] |= 1ull << (D.Id % 64);
  }
}

/// Round-robin fixpoint restricted to \p Blocks, which arrive sorted by
/// Rank. Out rows of successors outside \p Blocks are read but never
/// written — they hold the still-valid remainder of the solution.
void LivenessTracker::solveRegion(const std::vector<int> &Blocks) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int BI : Blocks) {
      ++BlocksResolved;
      uint64_t *OutB = Out.data() + size_t(BI) * W;
      uint64_t *InB = In.data() + size_t(BI) * W;
      std::memset(Scratch.data(), 0, W * sizeof(uint64_t));
      for (int SI = SuccStart[BI]; SI != SuccStart[BI + 1]; ++SI) {
        const uint64_t *InS = In.data() + size_t(Succs[SI]) * W;
        for (size_t I = 0; I != W; ++I)
          Scratch[I] |= InS[I];
      }
      const uint64_t *UseB = Use.data() + size_t(BI) * W;
      const uint64_t *DefB = Def.data() + size_t(BI) * W;
      for (size_t I = 0; I != W; ++I) {
        uint64_t O = Scratch[I];
        uint64_t N = (O & ~DefB[I]) | UseB[I];
        Changed |= O != OutB[I] || N != InB[I];
        OutB[I] = O;
        InB[I] = N;
      }
    }
  }
}

/// Ranks the blocks in DFS postorder over the successor CSR and leaves that
/// order in Region. The DFS starts at the entry, then at each block still
/// unvisited in id order, so unreachable blocks rank after every reachable
/// one. In postorder a block follows its successors except along back
/// edges, so each sweep carries liveness up to the next back edge: a
/// reducible CFG settles in (loop depth + 1) sweeps plus one that confirms.
void LivenessTracker::rankBlocks() {
  Rank.assign(NumBlocks, -1);
  Region.clear();
  std::vector<int> Next(SuccStart.begin(), SuccStart.end() - 1);
  for (size_t Root = 0; Root != NumBlocks; ++Root) {
    if (Rank[Root] != -1)
      continue;
    Rank[Root] = 0; // visited; the real rank is set when the block finishes
    Stack.assign(1, static_cast<int>(Root));
    while (!Stack.empty()) {
      int B = Stack.back();
      if (Next[B] != SuccStart[B + 1]) {
        int S = Succs[Next[B]++];
        if (Rank[S] == -1) {
          Rank[S] = 0;
          Stack.push_back(S);
        }
        continue;
      }
      Stack.pop_back();
      Rank[B] = static_cast<int>(Region.size());
      Region.push_back(B);
    }
  }
}

void LivenessTracker::compute(const Function &F) {
  ++FullComputes;
  NumBlocks = F.Blocks.size();
  W = (F.numRegs() + 63) / 64;

  Use.assign(NumBlocks * W, 0);
  Def.assign(NumBlocks * W, 0);
  In.assign(NumBlocks * W, 0);
  Out.assign(NumBlocks * W, 0);
  Scratch.assign(W, 0);
  DirtyMark.assign(NumBlocks, 0);
  InRegion.assign(NumBlocks, 0);
  RowVersion.assign(NumBlocks, 1);
  DirtyList.clear();

  // Successor and predecessor CSR; the CFG is static for the tracker's
  // lifetime (cleanup rewrites operands, never terminator targets).
  SuccStart.assign(NumBlocks + 1, 0);
  PredStart.assign(NumBlocks + 1, 0);
  Succs.clear();
  Preds.clear();
  for (size_t B = 0; B != NumBlocks; ++B) {
    SuccStart[B] = static_cast<int>(Succs.size());
    for (int S : F.Blocks[B].successors()) {
      Succs.push_back(S);
      ++PredStart[S + 1];
    }
  }
  SuccStart[NumBlocks] = static_cast<int>(Succs.size());
  for (size_t B = 0; B != NumBlocks; ++B)
    PredStart[B + 1] += PredStart[B];
  Preds.resize(Succs.size());
  {
    std::vector<int> Cursor(PredStart.begin(), PredStart.end() - 1);
    for (size_t B = 0; B != NumBlocks; ++B)
      for (int SI = SuccStart[B]; SI != SuccStart[B + 1]; ++SI)
        Preds[Cursor[Succs[SI]]++] = static_cast<int>(B);
  }

  for (size_t B = 0; B != NumBlocks; ++B)
    rebuildGenKill(F, static_cast<int>(B));

  rankBlocks();
  solveRegion(Region);
  Valid = true;
}

void LivenessTracker::markDirty(int Block) {
  if (!Valid)
    return; // the next compute() covers everything anyway
  if (!DirtyMark[Block]) {
    DirtyMark[Block] = 1;
    DirtyList.push_back(Block);
  }
}

void LivenessTracker::refresh(const Function &F) {
  if (!Valid) {
    compute(F);
    return;
  }
  if (DirtyList.empty())
    return;
  ++IncrementalUpdates;

  // New gen/kill sets for the edited blocks.
  for (int B : DirtyList)
    rebuildGenKill(F, B);

  // Affected region: every block from which a dirty block is reachable —
  // liveness flows backward, so only those blocks' In/Out can differ in the
  // new least fixpoint. Collected by BFS over predecessor edges.
  Region.clear();
  Stack.clear();
  for (int B : DirtyList) {
    InRegion[B] = 1;
    Region.push_back(B);
    Stack.push_back(B);
  }
  while (!Stack.empty()) {
    int B = Stack.back();
    Stack.pop_back();
    for (int PI = PredStart[B]; PI != PredStart[B + 1]; ++PI) {
      int P = Preds[PI];
      if (!InRegion[P]) {
        InRegion[P] = 1;
        Region.push_back(P);
        Stack.push_back(P);
      }
    }
  }

  // Zero the region's rows and re-solve from below: re-iterating from the
  // stale solution is unsound after deletions (stale bits around a CFG
  // cycle can sustain each other above the least fixpoint), while a
  // from-zero solve against the frozen boundary converges to exactly the
  // global least fixpoint's restriction.
  for (int B : Region) {
    std::memset(In.data() + size_t(B) * W, 0, W * sizeof(uint64_t));
    std::memset(Out.data() + size_t(B) * W, 0, W * sizeof(uint64_t));
    ++RowVersion[B]; // rows in the region may move (conservative)
  }
  std::sort(Region.begin(), Region.end(),
            [this](int A, int B) { return Rank[A] < Rank[B]; });
  solveRegion(Region);

  for (int B : Region)
    InRegion[B] = 0;
  for (int B : DirtyList)
    DirtyMark[B] = 0;
  DirtyList.clear();
}
