//===- ir/Liveness.h - Global register liveness -----------------*- C++ -*-===//
///
/// \file
/// Classic backward dataflow liveness over the whole register id space
/// (physical + virtual). Consumed by the register allocator (live intervals),
/// by the trace scheduler (speculation is illegal when an instruction's
/// destination is live into the off-trace path, section 3.2), by the cleanup
/// passes and by the verifiers.
///
/// One solver, LivenessTracker, sweeps the blocks in DFS postorder from the
/// entry until nothing changes; computeLiveness is a one-shot solve copied
/// into per-block BitVec rows. Consumers that edit the function (the cleanup
/// fixpoint) keep a tracker, mark exactly the blocks they touched, and
/// refresh() then re-solves only the blocks whose solution can actually
/// change — the dirty blocks plus every block that can reach one along CFG
/// edges — against the frozen solution of the rest. Liveness has a unique
/// least fixpoint, so the result is exactly equal to a fresh solve
/// (cleanup_test checks both against a naive solve, under randomized edits).
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_IR_LIVENESS_H
#define BALSCHED_IR_LIVENESS_H

#include "ir/IR.h"
#include "support/BitVec.h"

#include <cstdint>
#include <vector>

namespace bsched {
namespace ir {

struct Liveness {
  /// One bit set per register id, per block.
  std::vector<BitVec> LiveIn, LiveOut;

  bool isLiveIn(int Block, Reg R) const { return LiveIn[Block].test(R.Id); }
  bool isLiveOut(int Block, Reg R) const { return LiveOut[Block].test(R.Id); }
};

/// Computes liveness for \p F: LivenessTracker::compute, copied into rows.
Liveness computeLiveness(const Function &F);

/// Incrementally-updatable liveness over a function whose CFG is static
/// (blocks and terminator targets unchanged) while instruction lists mutate.
/// All state is flat word storage recycled across compute/update cycles —
/// no per-block BitVec allocation. Register capacity is fixed at the first
/// compute(); instruction edits may only use register ids that existed then
/// (true for every cleanup pass: they never create registers).
class LivenessTracker {
public:
  /// Full solve for \p F; (re)builds the successor/predecessor CSR and the
  /// postorder rank every later solve sweeps in.
  void compute(const Function &F);

  /// Records that \p Block's instruction list may have changed. Cheap and
  /// idempotent; a no-op when the tracker has never computed.
  void markDirty(int Block);

  /// Re-solves the affected region (dirty blocks plus all blocks that reach
  /// one) so the solution again equals a fresh compute(F). Falls
  /// back to compute() when no solution exists yet. No-op when clean.
  void refresh(const Function &F);

  bool valid() const { return Valid; }
  void invalidate() {
    Valid = false;
    DirtyList.clear();
  }

  bool isLiveIn(int Block, Reg R) const {
    return testBit(In.data() + size_t(Block) * W, R.Id);
  }
  bool isLiveOut(int Block, Reg R) const {
    return testBit(Out.data() + size_t(Block) * W, R.Id);
  }
  /// Raw live-out row of \p Block (W words); valid until the next refresh.
  const uint64_t *liveOutRow(int Block) const {
    return Out.data() + size_t(Block) * W;
  }
  const uint64_t *liveInRow(int Block) const {
    return In.data() + size_t(Block) * W;
  }
  size_t words() const { return W; }
  size_t numBlocks() const { return NumBlocks; }

  /// Monotonic per-block solution version: bumped whenever \p Block's
  /// In/Out rows may have changed (conservatively: whenever the block lands
  /// in a refresh's affected region). Consumers can cache the version to
  /// recognize blocks whose liveness provably did not move between solves.
  uint64_t rowVersion(int Block) const { return RowVersion[Block]; }

  /// How many full solves vs. incremental region updates this tracker ran
  /// (cleanup reports them as CleanupStats fields), and how many block
  /// solutions all its sweeps visited in total (cleanup_test bounds it to
  /// guard the sweep order).
  int FullComputes = 0;
  int IncrementalUpdates = 0;
  int BlocksResolved = 0;

private:
  static bool testBit(const uint64_t *Row, uint32_t I) {
    return (Row[I / 64] >> (I % 64)) & 1;
  }
  void rebuildGenKill(const Function &F, int Block);
  void rankBlocks();
  void solveRegion(const std::vector<int> &Blocks);

  bool Valid = false;
  size_t NumBlocks = 0;
  size_t W = 0; ///< words per row, fixed at compute().
  std::vector<uint64_t> Use, Def, In, Out; ///< NumBlocks x W each.

  // CFG in CSR form (static across the tracker's lifetime within a cleanup).
  std::vector<int> SuccStart, Succs, PredStart, Preds;

  std::vector<uint8_t> DirtyMark, InRegion;
  std::vector<uint64_t> RowVersion;
  std::vector<int> Rank; ///< postorder position per block, set by compute().
  std::vector<int> DirtyList, Region, Stack;
  std::vector<uint64_t> Scratch;
  std::vector<Reg> UsesScratch;
};

} // namespace ir
} // namespace bsched

#endif // BALSCHED_IR_LIVENESS_H
