//===- tests/NaiveLiveness.h - Reference liveness for tests -----*- C++ -*-===//
//
// A deliberately naive liveness solve that shares no code with
// ir::LivenessTracker: per-block use/def BitVecs built straight from
// Instr::appendUses and Instr::def(), then LiveOut/LiveIn iterated over the
// blocks in id order until nothing changes. Every block is visited in every
// sweep, reachable or not. computeLiveness and the tracker are both checked
// against it, so a bug in the one production solver cannot hide behind a
// comparison of that solver with itself.
//
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_TESTS_NAIVELIVENESS_H
#define BALSCHED_TESTS_NAIVELIVENESS_H

#include "ir/Liveness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bsched {
namespace test {

inline ir::Liveness naiveLiveness(const ir::Function &F) {
  size_t N = F.Blocks.size();
  unsigned NumRegs = F.numRegs();
  std::vector<BitVec> Use(N, BitVec(NumRegs)), Def(N, BitVec(NumRegs));
  std::vector<ir::Reg> Uses;
  for (size_t B = 0; B != N; ++B)
    for (const ir::Instr &I : F.Blocks[B].Instrs) {
      Uses.clear();
      I.appendUses(Uses);
      for (ir::Reg R : Uses)
        if (!Def[B].test(R.Id))
          Use[B].set(R.Id);
      if (ir::Reg D = I.def(); D.isValid())
        Def[B].set(D.Id);
    }

  ir::Liveness L;
  L.LiveIn.assign(N, BitVec(NumRegs));
  L.LiveOut.assign(N, BitVec(NumRegs));
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t B = 0; B != N; ++B) {
      for (int S : F.Blocks[B].successors())
        Changed |= L.LiveOut[B].orWith(L.LiveIn[S]);
      BitVec In = L.LiveOut[B];
      In.subtract(Def[B]);
      In.orWith(Use[B]);
      Changed |= L.LiveIn[B].orWith(In);
    }
  }
  return L;
}

/// Requires \p Got (computeLiveness, or a tracker's rows via \p In/\p Out)
/// to equal the naive solve of \p F, bit for bit.
template <typename InFn, typename OutFn>
void expectMatchesNaive(const ir::Function &F, InFn In, OutFn Out,
                        const std::string &What) {
  ir::Liveness Ref = naiveLiveness(F);
  for (size_t B = 0; B != F.Blocks.size(); ++B)
    for (uint32_t R = 0; R != F.numRegs(); ++R) {
      int Blk = static_cast<int>(B);
      ASSERT_EQ(In(Blk, ir::Reg(R)), Ref.LiveIn[B].test(R))
          << What << ": LiveIn mismatch at block " << B << " reg " << R;
      ASSERT_EQ(Out(Blk, ir::Reg(R)), Ref.LiveOut[B].test(R))
          << What << ": LiveOut mismatch at block " << B << " reg " << R;
    }
}

inline void expectMatchesNaive(const ir::Liveness &L, const ir::Function &F,
                               const std::string &What) {
  ASSERT_EQ(L.LiveIn.size(), F.Blocks.size()) << What;
  ASSERT_EQ(L.LiveOut.size(), F.Blocks.size()) << What;
  expectMatchesNaive(
      F, [&](int B, ir::Reg R) { return L.isLiveIn(B, R); },
      [&](int B, ir::Reg R) { return L.isLiveOut(B, R); }, What);
}

inline void expectMatchesNaive(const ir::LivenessTracker &T,
                               const ir::Function &F,
                               const std::string &What) {
  ASSERT_EQ(T.numBlocks(), F.Blocks.size()) << What;
  expectMatchesNaive(
      F, [&](int B, ir::Reg R) { return T.isLiveIn(B, R); },
      [&](int B, ir::Reg R) { return T.isLiveOut(B, R); }, What);
}

} // namespace test
} // namespace bsched

#endif // BALSCHED_TESTS_NAIVELIVENESS_H
