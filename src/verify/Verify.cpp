//===- verify/Verify.cpp - Static schedule/codegen verifier ----------------===//

#include "verify/Verify.h"

#include "ir/Liveness.h"
#include "regalloc/LinearScan.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

using namespace bsched;
using namespace bsched::verify;
using namespace bsched::ir;

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

const char *verify::checkName(Check C) {
  switch (C) {
  case Check::Structure:
    return "structure";
  case Check::Schedule:
    return "schedule";
  case Check::Compensation:
    return "compensation";
  case Check::RegAlloc:
    return "regalloc";
  case Check::Locality:
    return "locality";
  }
  return "?";
}

std::string verify::toString(const Diagnostic &D) {
  std::string S;
  if (D.Block >= 0) {
    S += "b" + std::to_string(D.Block);
    if (D.Instr >= 0)
      S += "[" + std::to_string(D.Instr) + "]";
    S += ": ";
  }
  S += D.Message;
  S += std::string(" [") + checkName(D.Kind) + "]";
  return S;
}

std::string VerifyResult::report() const {
  std::string S;
  for (const Diagnostic &D : Diags)
    S += toString(D) + "\n";
  return S;
}

namespace {

/// Cap on diagnostics of one kind per region, so a badly broken module does
/// not produce quadratically many messages.
constexpr int MaxDiagsPerRegion = 8;

std::string regName(Reg R) {
  if (!R.isValid())
    return "<none>";
  if (R.Id < NumPhysPerClass)
    return "r" + std::to_string(R.Id);
  if (R.Id < NumPhysTotal)
    return "f" + std::to_string(R.Id - NumPhysPerClass);
  return "v" + std::to_string(R.Id - NumPhysTotal);
}

//===----------------------------------------------------------------------===//
// Instruction identity (for permutation matching)
//===----------------------------------------------------------------------===//

bool sameMemRef(const MemRef &A, const MemRef &B) {
  return A.ArrayId == B.ArrayId && A.HasForm == B.HasForm &&
         A.Terms == B.Terms && A.Const == B.Const && A.Size == B.Size;
}

/// Maps an After-side branch target back into Before block ids: compensation
/// blocks stand for the join block they jump to. Null = identity.
int contractTarget(int T, const std::vector<int> *Contract) {
  if (Contract && T >= 0 && T < static_cast<int>(Contract->size()))
    return (*Contract)[T];
  return T;
}

/// Field-exact identity of an After instruction \p A with a Before
/// instruction \p B, modulo compensation-block target contraction.
bool sameInstr(const Instr &A, const Instr &B,
               const std::vector<int> *Contract) {
  return A.Op == B.Op && A.Dst == B.Dst && A.SrcA == B.SrcA &&
         A.SrcB == B.SrcB && A.SrcC == B.SrcC && A.Imm == B.Imm &&
         A.HasImm == B.HasImm && A.Base == B.Base && A.Offset == B.Offset &&
         sameMemRef(A.Mem, B.Mem) && A.HM == B.HM &&
         A.LocalityGroup == B.LocalityGroup && A.IsSpill == B.IsSpill &&
         A.IsRestore == B.IsRestore && A.IsRemat == B.IsRemat &&
         contractTarget(A.Target0, Contract) == B.Target0 &&
         contractTarget(A.Target1, Contract) == B.Target1;
}

/// A mix of the fields sameInstr compares as they are, so identical
/// instructions share it; a mismatch rules a candidate out without touching
/// the instruction.
uint64_t shapeKey(const Instr &I) {
  uint64_t K = static_cast<uint64_t>(I.Op);
  for (uint64_t V :
       {uint64_t{I.Dst.Id}, uint64_t{I.SrcA.Id}, uint64_t{I.SrcB.Id},
        uint64_t{I.SrcC.Id}, uint64_t{I.Base.Id}, static_cast<uint64_t>(I.Imm),
        static_cast<uint64_t>(I.Offset)})
    K = (K ^ V) * 0x9e3779b97f4a7c15ull;
  return K;
}

//===----------------------------------------------------------------------===//
// Independent dependence recomputation
//===----------------------------------------------------------------------===//

/// Per-instruction facts for conflict testing, derived from the Before
/// region only. Epoch stamps mirror the lowering-time MemRef contract: two
/// linear forms are comparable only when their term registers carry equal
/// definition counts at the respective program points.
struct InstrFacts {
  std::array<Reg, 5> UseRegs; ///< Instr::appendUses: at most 5.
  uint8_t NumUses = 0;
  Reg Def;
  bool IsMem = false, IsStore = false;
  const MemRef *Mem = nullptr;
  /// First of this access's epoch stamps in RegionFacts::Epochs, one per
  /// Mem->Terms entry.
  uint32_t Epoch = 0;

  std::span<const Reg> uses() const { return {UseRegs.data(), NumUses}; }
};

/// The facts of one region in Before order, with their epoch stamps in one
/// array.
struct RegionFacts {
  std::vector<InstrFacts> Instrs;
  std::vector<uint32_t> Epochs;

  /// True when the two memory accesses certainly touch disjoint bytes.
  bool memDisjoint(const InstrFacts &A, const InstrFacts &B) const {
    const MemRef &MA = *A.Mem;
    const MemRef &MB = *B.Mem;
    if (MA.ArrayId >= 0 && MB.ArrayId >= 0 && MA.ArrayId != MB.ArrayId)
      return true;
    if (!MA.sameLinearForm(MB))
      return false;
    const uint32_t *EA = Epochs.data() + A.Epoch;
    const uint32_t *EB = Epochs.data() + B.Epoch;
    if (!std::equal(EA, EA + MA.Terms.size(), EB, EB + MB.Terms.size()))
      return false;
    int64_t Delta = MA.Const - MB.Const;
    if (Delta < 0)
      Delta = -Delta;
    return Delta >= std::max(MA.Size, MB.Size);
  }

  /// Dependence between \p A and \p B where A precedes B in original
  /// order: true/anti/output register dependences plus memory dependences
  /// for pairs involving a store that are not provably disjoint.
  bool conflictsWith(const InstrFacts &A, const InstrFacts &B) const {
    if (A.Def.isValid()) {
      for (Reg R : B.uses())
        if (R == A.Def)
          return true; // true dependence
      if (B.Def.isValid() && B.Def == A.Def)
        return true; // output dependence
    }
    if (B.Def.isValid())
      for (Reg R : A.uses())
        if (R == B.Def)
          return true; // anti dependence
    if (A.IsMem && B.IsMem && (A.IsStore || B.IsStore) && !memDisjoint(A, B))
      return true;
    return false;
  }
};

/// Tables indexed by register id, sized once per verified function. Each
/// user leaves them as it found them, so regions share them without a
/// clear.
struct RegScratch {
  std::vector<uint32_t> DefCount;       ///< all 0 (computeFacts).
  std::vector<int> LastDef, LastAccess; ///< all -1 (hasInversion).

  explicit RegScratch(unsigned NumRegs)
      : DefCount(NumRegs, 0), LastDef(NumRegs, -1), LastAccess(NumRegs, -1) {}
};

RegionFacts computeFacts(const std::vector<const Instr *> &Region,
                         RegScratch &S) {
  std::vector<uint32_t> &DefCount = S.DefCount;
  RegionFacts F;
  F.Instrs.resize(Region.size());
  std::vector<Reg> Uses;
  for (size_t I = 0; I != Region.size(); ++I) {
    const Instr &In = *Region[I];
    InstrFacts &X = F.Instrs[I];
    Uses.clear();
    In.appendUses(Uses);
    std::copy(Uses.begin(), Uses.end(), X.UseRegs.begin());
    X.NumUses = static_cast<uint8_t>(Uses.size());
    X.Def = In.def();
    if (X.Def.isValid())
      ++DefCount[X.Def.Id];
    if (In.isMem()) {
      X.IsMem = true;
      X.IsStore = In.isStore();
      X.Mem = &In.Mem;
      X.Epoch = static_cast<uint32_t>(F.Epochs.size());
      for (const MemRef::Term &T : In.Mem.Terms)
        F.Epochs.push_back(T.RegId < DefCount.size() ? DefCount[T.RegId] : 0);
    }
  }
  for (const InstrFacts &X : F.Instrs)
    if (X.Def.isValid())
      DefCount[X.Def.Id] = 0;
  return F;
}

//===----------------------------------------------------------------------===//
// Region permutation matching
//===----------------------------------------------------------------------===//

/// One instruction of the After region, labelled for diagnostics.
struct AfterInstr {
  const Instr *I = nullptr;
  int Block = -1; ///< After block id.
  int Index = -1; ///< index within that block.
};

/// Greedily matches every After instruction to the earliest identical
/// unmatched Before instruction (identical Before instructions therefore
/// keep their relative order, so no spurious inversions are introduced).
/// Returns the permutation After position -> Before index, or an empty
/// vector when the After region is not a permutation of the Before region.
std::vector<int> matchRegion(const std::vector<const Instr *> &BeforeR,
                             const std::vector<int> &BeforeBlockOf,
                             const std::vector<AfterInstr> &AfterR,
                             const std::vector<int> *Contract,
                             const char *What, VerifyResult &R) {
  std::vector<int> Perm(AfterR.size(), -1);
  std::vector<bool> Used(BeforeR.size(), false);
  std::vector<uint64_t> Keys(BeforeR.size());
  for (size_t I = 0; I != BeforeR.size(); ++I)
    Keys[I] = shapeKey(*BeforeR[I]);
  size_t NextUnused = 0;
  bool OK = true;
  for (size_t P = 0; P != AfterR.size(); ++P) {
    const uint64_t Key = shapeKey(*AfterR[P].I);
    int Found = -1;
    for (size_t I = NextUnused; I != BeforeR.size(); ++I)
      if (Keys[I] == Key && !Used[I] &&
          sameInstr(*AfterR[P].I, *BeforeR[I], Contract)) {
        Found = static_cast<int>(I);
        break;
      }
    if (Found < 0) {
      R.add(Check::Schedule, AfterR[P].Block, AfterR[P].Index,
            "instruction '" + printInstr(*AfterR[P].I) +
                "' was not present in the " + What + " before scheduling");
      OK = false;
    } else {
      Used[Found] = true;
      Perm[P] = Found;
      while (NextUnused != BeforeR.size() && Used[NextUnused])
        ++NextUnused;
    }
  }
  for (size_t I = 0; I != BeforeR.size(); ++I)
    if (!Used[I]) {
      R.add(Check::Schedule, BeforeBlockOf[I], -1,
            "instruction '" + printInstr(*BeforeR[I]) +
                "' was dropped from the " + What);
      OK = false;
    }
  if (!OK)
    Perm.clear();
  return Perm;
}

/// True when the schedule (\p InvPos: Before index -> After position)
/// inverts some pair that conflictsWith: exactly when checkOrder reports.
/// Register dependences take one pass in Before order that keeps, per
/// register, the latest After position of an earlier definition and of an
/// earlier access; memory dependences take a pair scan over the memory
/// operations only.
bool hasInversion(const RegionFacts &Facts, const std::vector<int> &InvPos,
                  RegScratch &S) {
  const std::vector<InstrFacts> &F = Facts.Instrs;
  bool Found = false;
  for (size_t J = 0; J != F.size(); ++J) {
    const InstrFacts &Y = F[J];
    const int Pos = InvPos[J];
    for (Reg U : Y.uses())
      Found |= S.LastDef[U.Id] > Pos; // true dependence
    if (Y.Def.isValid())
      Found |= S.LastAccess[Y.Def.Id] > Pos; // output or anti dependence
    for (Reg U : Y.uses())
      S.LastAccess[U.Id] = std::max(S.LastAccess[U.Id], Pos);
    if (Y.Def.isValid()) {
      S.LastDef[Y.Def.Id] = std::max(S.LastDef[Y.Def.Id], Pos);
      S.LastAccess[Y.Def.Id] = std::max(S.LastAccess[Y.Def.Id], Pos);
    }
  }
  std::vector<size_t> Mem;
  for (size_t J = 0; J != F.size(); ++J) {
    for (Reg U : F[J].uses())
      S.LastAccess[U.Id] = -1;
    if (F[J].Def.isValid())
      S.LastDef[F[J].Def.Id] = S.LastAccess[F[J].Def.Id] = -1;
    if (F[J].IsMem)
      Mem.push_back(J);
  }
  for (size_t B = 0; B != Mem.size() && !Found; ++B)
    for (size_t A = 0; A != B && !Found; ++A) {
      const InstrFacts &X = F[Mem[A]], &Y = F[Mem[B]];
      Found = InvPos[Mem[A]] > InvPos[Mem[B]] && (X.IsStore || Y.IsStore) &&
              !Facts.memDisjoint(X, Y);
    }
  return Found;
}

/// Flags every After-order inversion of a Before-order dependence. A legal
/// schedule has none, which hasInversion proves without this pair scan over
/// the whole region; the scan runs only to word the diagnostics.
void checkOrder(const std::vector<const Instr *> &BeforeR,
                const RegionFacts &Facts,
                const std::vector<AfterInstr> &AfterR,
                const std::vector<int> &Perm, const std::vector<int> &InvPos,
                RegScratch &S, VerifyResult &R) {
  if (!hasInversion(Facts, InvPos, S))
    return;
  int Reported = 0;
  for (size_t Q = 0; Q != AfterR.size(); ++Q) {
    for (size_t P = 0; P != Q; ++P) {
      int BI = Perm[P], BJ = Perm[Q];
      if (BI <= BJ)
        continue;
      if (!Facts.conflictsWith(Facts.Instrs[BJ], Facts.Instrs[BI]))
        continue;
      R.add(Check::Schedule, AfterR[P].Block, AfterR[P].Index,
            "'" + printInstr(*BeforeR[BI]) + "' was scheduled above '" +
                printInstr(*BeforeR[BJ]) + "' despite a dependence");
      if (++Reported == MaxDiagsPerRegion)
        return;
    }
  }
}

/// A hit load that originally followed a miss of its locality group must
/// keep at least one of those misses above it: the miss->hit arcs are what
/// makes the hit annotation a latency statement rather than a semantic one.
void checkLocalityOrder(const std::vector<const Instr *> &BeforeR,
                        const std::vector<AfterInstr> &AfterR,
                        const std::vector<int> &Perm,
                        const std::vector<int> &InvPos, VerifyResult &R) {
  std::map<int, std::vector<int>> MissIdx; // group -> before indices, sorted.
  for (size_t I = 0; I != BeforeR.size(); ++I) {
    const Instr &In = *BeforeR[I];
    if (In.isLoad() && In.HM == HitMiss::Miss && In.LocalityGroup >= 0)
      MissIdx[In.LocalityGroup].push_back(static_cast<int>(I));
  }
  if (MissIdx.empty())
    return;
  int Reported = 0;
  for (size_t Q = 0; Q != AfterR.size(); ++Q) {
    int I = Perm[Q];
    const Instr &In = *BeforeR[I];
    if (!In.isLoad() || In.HM != HitMiss::Hit || In.LocalityGroup < 0)
      continue;
    auto It = MissIdx.find(In.LocalityGroup);
    if (It == MissIdx.end())
      continue;
    bool HadPrior = false, KeptPrior = false;
    for (int K : It->second) {
      if (K >= I)
        break;
      HadPrior = true;
      if (InvPos[K] < static_cast<int>(Q)) {
        KeptPrior = true;
        break;
      }
    }
    if (HadPrior && !KeptPrior) {
      R.add(Check::Locality, AfterR[Q].Block, AfterR[Q].Index,
            "hit load '" + printInstr(In) +
                "' floated above every preceding miss of its locality group");
      if (++Reported == MaxDiagsPerRegion)
        return;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// verifySchedule
//===----------------------------------------------------------------------===//

VerifyResult verify::verifySchedule(const Module &Before,
                                    const Module &After) {
  VerifyResult R;
  const Function &BF = Before.Fn;
  const Function &AF = After.Fn;
  if (BF.Blocks.size() != AF.Blocks.size()) {
    R.add(Check::Schedule, -1, -1,
          "block-local scheduling changed the block count from " +
              std::to_string(BF.Blocks.size()) + " to " +
              std::to_string(AF.Blocks.size()));
    return R;
  }
  RegScratch Scratch(BF.numRegs());
  for (size_t B = 0; B != BF.Blocks.size(); ++B) {
    const std::vector<Instr> &BIns = BF.Blocks[B].Instrs;
    const std::vector<Instr> &AIns = AF.Blocks[B].Instrs;
    std::vector<const Instr *> BeforeR;
    std::vector<int> BeforeBlockOf(BIns.size(), static_cast<int>(B));
    BeforeR.reserve(BIns.size());
    for (const Instr &I : BIns)
      BeforeR.push_back(&I);
    std::vector<AfterInstr> AfterR;
    AfterR.reserve(AIns.size());
    for (size_t K = 0; K != AIns.size(); ++K)
      AfterR.push_back({&AIns[K], static_cast<int>(B), static_cast<int>(K)});

    std::vector<int> Perm =
        matchRegion(BeforeR, BeforeBlockOf, AfterR, nullptr, "block", R);
    if (Perm.empty())
      continue;
    if (!Perm.empty() && Perm.back() != static_cast<int>(BeforeR.size()) - 1)
      R.add(Check::Schedule, static_cast<int>(B),
            static_cast<int>(AfterR.size()) - 1,
            "the block terminator is no longer the last instruction");
    RegionFacts Facts = computeFacts(BeforeR, Scratch);
    std::vector<int> InvPos(BeforeR.size(), -1);
    for (size_t P = 0; P != Perm.size(); ++P)
      InvPos[Perm[P]] = static_cast<int>(P);
    checkOrder(BeforeR, Facts, AfterR, Perm, InvPos, Scratch, R);
    checkLocalityOrder(BeforeR, AfterR, Perm, InvPos, R);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// verifyTraceSchedule
//===----------------------------------------------------------------------===//

VerifyResult
verify::verifyTraceSchedule(const Module &Before, const Module &After,
                            const std::vector<std::vector<int>> &Traces) {
  VerifyResult R;
  const Function &BF = Before.Fn;
  const Function &AF = After.Fn;
  const int NB = static_cast<int>(BF.Blocks.size());
  const int NA = static_cast<int>(AF.Blocks.size());

  // --- Certificate validation: the traces must partition Before's blocks. --
  std::vector<bool> Seen(static_cast<size_t>(NB), false);
  for (const std::vector<int> &T : Traces)
    for (int B : T) {
      if (B < 0 || B >= NB || Seen[static_cast<size_t>(B)]) {
        R.add(Check::Compensation, B, -1,
              "trace certificate is not a partition of the function's blocks");
        return R;
      }
      Seen[static_cast<size_t>(B)] = true;
    }
  for (int B = 0; B != NB; ++B)
    if (!Seen[static_cast<size_t>(B)]) {
      R.add(Check::Compensation, B, -1,
            "trace certificate does not cover every block");
      return R;
    }
  if (NA < NB) {
    R.add(Check::Compensation, -1, -1, "trace scheduling removed blocks");
    return R;
  }

  // --- Compensation blocks: every appended block must jump to an original
  // block; Contract maps it onto that join target for identity matching. ---
  std::vector<int> Contract(static_cast<size_t>(NA));
  std::vector<bool> CompOK(static_cast<size_t>(NA), false);
  std::vector<bool> CompRef(static_cast<size_t>(NA), false);
  for (int C = 0; C != NA; ++C)
    Contract[static_cast<size_t>(C)] = C;
  for (int C = NB; C != NA; ++C) {
    const BasicBlock &B = AF.Blocks[static_cast<size_t>(C)];
    if (B.Instrs.empty() || B.Instrs.back().Op != Opcode::Jmp ||
        B.Instrs.back().Target0 < 0 || B.Instrs.back().Target0 >= NB) {
      R.add(Check::Compensation, C, -1,
            "compensation block must end in a jump to an original block");
      Contract[static_cast<size_t>(C)] = -2; // matches no Before target.
    } else {
      Contract[static_cast<size_t>(C)] = B.Instrs.back().Target0;
      CompOK[static_cast<size_t>(C)] = true;
    }
  }

  Liveness L = computeLiveness(BF);
  RegScratch Scratch(BF.numRegs());

  for (const std::vector<int> &T : Traces) {
    const size_t K = T.size();
    // Consecutive trace blocks must be CFG-connected in Before.
    bool Connected = true;
    for (size_t P = 0; P + 1 != K && Connected; ++P) {
      std::vector<int> Succs = BF.Blocks[static_cast<size_t>(T[P])].successors();
      if (std::find(Succs.begin(), Succs.end(), T[P + 1]) == Succs.end()) {
        R.add(Check::Compensation, T[P], -1,
              "trace certificate links b" + std::to_string(T[P]) + " to b" +
                  std::to_string(T[P + 1]) + " without a CFG edge");
        Connected = false;
      }
    }
    if (!Connected)
      continue;

    // Concatenated Before region with home positions and terminator indices.
    std::vector<const Instr *> BeforeR;
    std::vector<int> BeforeBlockOf;
    std::vector<int> Home;
    std::vector<int> TermIdx(K, -1);
    for (size_t Pos = 0; Pos != K; ++Pos) {
      const BasicBlock &B = BF.Blocks[static_cast<size_t>(T[Pos])];
      for (const Instr &I : B.Instrs) {
        BeforeR.push_back(&I);
        BeforeBlockOf.push_back(T[Pos]);
        Home.push_back(static_cast<int>(Pos));
      }
      TermIdx[Pos] = static_cast<int>(BeforeR.size()) - 1;
    }

    // Concatenated After region over the same block list.
    std::vector<AfterInstr> AfterR;
    std::vector<int> Seg; ///< trace position of each After region entry.
    std::vector<int> SegLastPos(K, -1);
    for (size_t Pos = 0; Pos != K; ++Pos) {
      const BasicBlock &B = AF.Blocks[static_cast<size_t>(T[Pos])];
      for (size_t I = 0; I != B.Instrs.size(); ++I) {
        AfterR.push_back({&B.Instrs[I], T[Pos], static_cast<int>(I)});
        Seg.push_back(static_cast<int>(Pos));
      }
      SegLastPos[Pos] = static_cast<int>(AfterR.size()) - 1;
    }

    std::vector<int> Perm =
        matchRegion(BeforeR, BeforeBlockOf, AfterR, &Contract, "trace", R);
    if (Perm.empty())
      continue;
    std::vector<int> InvPos(BeforeR.size(), -1);
    for (size_t P = 0; P != Perm.size(); ++P)
      InvPos[Perm[P]] = static_cast<int>(P);

    RegionFacts Facts = computeFacts(BeforeR, Scratch);
    checkOrder(BeforeR, Facts, AfterR, Perm, InvPos, Scratch, R);
    checkLocalityOrder(BeforeR, AfterR, Perm, InvPos, R);

    // Each segment must end with the terminator of the block it replaces:
    // only then does every external edge into T[Pos] keep its semantics.
    for (size_t Pos = 0; Pos != K; ++Pos)
      if (Perm[static_cast<size_t>(SegLastPos[Pos])] != TermIdx[Pos])
        R.add(Check::Compensation, T[Pos],
              AfterR[static_cast<size_t>(SegLastPos[Pos])].Index,
              "segment does not end with its home block's terminator");

    // Downward-motion and speculation-safety audit.
    int Reported = 0;
    for (size_t I = 0; I != BeforeR.size() && Reported < MaxDiagsPerRegion;
         ++I) {
      if (BeforeR[I]->isTerminator())
        continue;
      const int H = Home[I];
      const int S = Seg[static_cast<size_t>(InvPos[I])];
      const AfterInstr &Where = AfterR[static_cast<size_t>(InvPos[I])];
      if (S > H) {
        R.add(Check::Compensation, Where.Block, Where.Index,
              "'" + printInstr(*BeforeR[I]) +
                  "' moved below its home block's terminator");
        ++Reported;
        continue;
      }
      for (int Sp = S; Sp != H && Reported < MaxDiagsPerRegion; ++Sp) {
        // Crossing the terminator of T[Sp] is speculative iff that branch
        // has an off-trace arm.
        const Instr &Term =
            BF.Blocks[static_cast<size_t>(T[static_cast<size_t>(Sp)])]
                .terminator();
        if (Term.Op != Opcode::Br)
          continue;
        int OnTrace = T[static_cast<size_t>(Sp) + 1];
        for (int Off : {Term.Target0, Term.Target1}) {
          if (Off == OnTrace)
            continue;
          if (BeforeR[I]->isStore()) {
            R.add(Check::Compensation, Where.Block, Where.Index,
                  "store '" + printInstr(*BeforeR[I]) +
                      "' speculated above the split in b" +
                      std::to_string(T[static_cast<size_t>(Sp)]));
            ++Reported;
          } else if (Reg D = BeforeR[I]->def();
                     D.isValid() && L.isLiveIn(Off, D)) {
            R.add(Check::Compensation, Where.Block, Where.Index,
                  "'" + printInstr(*BeforeR[I]) + "' clobbers " + regName(D) +
                      ", live into off-trace b" + std::to_string(Off) +
                      ", above the split in b" +
                      std::to_string(T[static_cast<size_t>(Sp)]));
            ++Reported;
          }
          break; // at most one distinct off-trace arm per split.
        }
      }
    }

    // Join audit: every off-trace edge into T[m] must carry compensation
    // copies of exactly the instructions that crossed the join.
    for (size_t Mm = 1; Mm != K; ++Mm) {
      const int Join = T[Mm];
      const int TermPos = InvPos[static_cast<size_t>(TermIdx[Mm - 1])];
      std::vector<int> Crossed;
      for (size_t I = 0; I != BeforeR.size(); ++I)
        if (!BeforeR[I]->isTerminator() && Home[I] >= static_cast<int>(Mm) &&
            InvPos[I] < TermPos)
          Crossed.push_back(static_cast<int>(I));

      for (int P : BF.predecessors(Join)) {
        if (P == T[Mm - 1])
          continue;
        const Instr &BT = BF.Blocks[static_cast<size_t>(P)].terminator();
        const Instr &AT = AF.Blocks[static_cast<size_t>(P)].terminator();
        if (AT.Op != BT.Op) {
          R.add(Check::Compensation, P, -1,
                "off-trace predecessor's terminator changed opcode");
          continue;
        }
        auto CheckSlot = [&](int BTgt, int ATgt) {
          if (BTgt != Join)
            return;
          if (Crossed.empty()) {
            if (ATgt != Join)
              R.add(Check::Compensation, P, -1,
                    "edge to b" + std::to_string(Join) +
                        " was rerouted although nothing crossed the join");
            return;
          }
          if (ATgt < NB || ATgt >= NA) {
            R.add(Check::Compensation, P, -1,
                  "edge to b" + std::to_string(Join) + " must pass through a " +
                      "compensation block (" +
                      std::to_string(Crossed.size()) +
                      " instructions crossed the join)");
            return;
          }
          CompRef[static_cast<size_t>(ATgt)] = true;
          if (!CompOK[static_cast<size_t>(ATgt)])
            return; // already diagnosed above.
          const std::vector<Instr> &CIns =
              AF.Blocks[static_cast<size_t>(ATgt)].Instrs;
          if (CIns.back().Target0 != Join)
            R.add(Check::Compensation, ATgt,
                  static_cast<int>(CIns.size()) - 1,
                  "compensation block jumps to b" +
                      std::to_string(CIns.back().Target0) +
                      " instead of the join block b" + std::to_string(Join));
          if (CIns.size() != Crossed.size() + 1)
            R.add(Check::Compensation, ATgt, -1,
                  "compensation block holds " +
                      std::to_string(CIns.size() - 1) +
                      " instructions but " + std::to_string(Crossed.size()) +
                      " crossed the join");
          size_t N = std::min(CIns.size() - 1, Crossed.size());
          for (size_t I = 0; I != N; ++I)
            if (!sameInstr(CIns[I], *BeforeR[static_cast<size_t>(Crossed[I])],
                           nullptr))
              R.add(Check::Compensation, ATgt, static_cast<int>(I),
                    "compensation copy differs from the crossed original '" +
                        printInstr(*BeforeR[static_cast<size_t>(Crossed[I])]) +
                        "'");
        };
        CheckSlot(BT.Target0, AT.Target0);
        if (BT.Op == Opcode::Br)
          CheckSlot(BT.Target1, AT.Target1);
      }
    }
  }

  for (int C = NB; C != NA; ++C)
    if (CompOK[static_cast<size_t>(C)] && !CompRef[static_cast<size_t>(C)])
      R.add(Check::Compensation, C, -1,
            "compensation block is not reached by any off-trace edge");
  return R;
}

//===----------------------------------------------------------------------===//
// verifyRegAlloc
//===----------------------------------------------------------------------===//

namespace {

class RegAllocVerifier {
public:
  RegAllocVerifier(const Module &Before, const Module &After,
                   unsigned Allocatable)
      : Before(Before), After(After), Allocatable(Allocatable) {}

  VerifyResult run() {
    const Function &BF = Before.Fn;
    const Function &AF = After.Fn;
    if (BF.Blocks.size() != AF.Blocks.size()) {
      R.add(Check::RegAlloc, -1, -1,
            "register allocation changed the block count");
      return R;
    }
    if (After.SpillArrayId < 0 ||
        After.SpillArrayId >= static_cast<int>(After.Arrays.size())) {
      R.add(Check::RegAlloc, -1, -1, "module has no spill area");
      return R;
    }
    SpillBytes =
        After.Arrays[static_cast<size_t>(After.SpillArrayId)].sizeBytes();
    Assign.assign(BF.numRegs(), Reg::InvalidId);
    UniqueConstDef.assign(BF.numRegs(), nullptr);
    collectRematCandidates();
    for (size_t B = 0; B != BF.Blocks.size(); ++B)
      walkBlock(static_cast<int>(B));
    resolveClaims();
    checkInterference();
    sweepForVirtuals();
    return R;
  }

private:
  const Module &Before;
  const Module &After;
  unsigned Allocatable;
  VerifyResult R;
  int64_t SpillBytes = 0;

  /// Before register id -> physical register id of the non-scratch
  /// assignment observed, or Reg::InvalidId.
  std::vector<uint32_t> Assign;
  /// vreg id <-> spill-slot byte offset, from spill stores at definitions.
  std::map<uint32_t, int64_t> SlotOfVReg;
  std::map<int64_t, uint32_t> VRegOfSlot;
  /// Before register id -> its unique LdI/FLdI definition, or null.
  std::vector<const Instr *> UniqueConstDef;
  /// The current instruction's restore/remat preamble by physical register
  /// id: the load into that scratch register and its index. Only scratch
  /// entries are ever written, and walkBlock nulls them per instruction.
  std::array<const Instr *, NumPhysTotal> Pre{};
  std::array<int, NumPhysTotal> PreIdx{};

  struct RestoreClaim {
    uint32_t VReg;
    int64_t Slot;
    int Block, Idx;
  };
  struct RematClaim {
    uint32_t VReg;
    const Instr *Remat;
    int Block, Idx;
  };
  struct NoSpillClaim {
    uint32_t VReg;
    int Block, Idx;
  };
  std::vector<RestoreClaim> RestoreClaims;
  std::vector<RematClaim> RematClaims;
  std::vector<NoSpillClaim> NoSpillClaims;

  static bool isScratch(Reg P) {
    unsigned Local = P.Id % NumPhysPerClass;
    for (unsigned S : regalloc::SpillScratchRegs)
      if (Local == S)
        return true;
    return false;
  }
  static bool isFrameBase(Reg P) {
    return P == physIntReg(regalloc::FrameBaseReg);
  }

  void collectRematCandidates() {
    std::vector<int> DefCount(Before.Fn.numRegs(), 0);
    for (const BasicBlock &B : Before.Fn.Blocks)
      for (const Instr &In : B.Instrs)
        if (Reg D = In.def(); D.isVirtual())
          UniqueConstDef[D.Id] =
              ++DefCount[D.Id] == 1 &&
                      (In.Op == Opcode::LdI || In.Op == Opcode::FLdI)
                  ? &In
                  : nullptr;
  }

  /// Records that virtual \p V lives in physical \p P; a second, different
  /// register for the same value is a diagnostic.
  void assign(Reg V, Reg P, int B, int Idx) {
    uint32_t &A = Assign[V.Id];
    if (A == Reg::InvalidId)
      A = P.Id;
    else if (A != P.Id)
      R.add(Check::RegAlloc, B, Idx,
            regName(V) + " was assigned both " + regName(Reg(A)) + " and " +
                regName(P));
  }

  /// Checks that a spill or restore addresses a real slot of the spill area
  /// through the frame base.
  void checkSlotAccess(const Instr &In, int B, int Idx) {
    if (!(In.Base == physIntReg(regalloc::FrameBaseReg)))
      R.add(Check::RegAlloc, B, Idx,
            "spill traffic must address through the frame base register");
    if (In.Mem.ArrayId != After.SpillArrayId || !In.Mem.HasForm ||
        In.Mem.Const != In.Offset)
      R.add(Check::RegAlloc, B, Idx,
            "spill traffic must carry an exact spill-area memory reference");
    if (In.Offset < 0 || In.Offset % 8 != 0 || In.Offset + 8 > SpillBytes)
      R.add(Check::RegAlloc, B, Idx, "spill slot offset out of range");
  }

  /// Everything that must match between a pre-allocation instruction and
  /// its rewritten form, registers aside. The affine memory form may be
  /// dropped (a spilled symbol loses the form) but never invented.
  bool shapeMatches(const Instr &BI, const Instr &AI) const {
    if (BI.Op != AI.Op || BI.Imm != AI.Imm || BI.HasImm != AI.HasImm ||
        BI.Offset != AI.Offset || BI.Target0 != AI.Target0 ||
        BI.Target1 != AI.Target1 || BI.HM != AI.HM ||
        BI.LocalityGroup != AI.LocalityGroup || AI.IsSpill || AI.IsRestore ||
        AI.IsRemat)
      return false;
    if (BI.Mem.ArrayId != AI.Mem.ArrayId || BI.Mem.Size != AI.Mem.Size)
      return false;
    if (AI.Mem.HasForm) {
      if (!BI.Mem.HasForm || AI.Mem.Const != BI.Mem.Const ||
          AI.Mem.Terms.size() != BI.Mem.Terms.size())
        return false;
      for (size_t K = 0; K != AI.Mem.Terms.size(); ++K)
        if (AI.Mem.Terms[K].Coeff != BI.Mem.Terms[K].Coeff ||
            !Reg(AI.Mem.Terms[K].RegId).isPhys())
          return false;
    }
    return true;
  }

  /// Records the claims made by mapping virtual \p BR to physical \p AR at
  /// a use site; a scratch \p AR must be loaded by this instruction's
  /// preamble (Pre).
  void mapUse(Reg BR, Reg AR, int B, int Idx) {
    if (!BR.isValid()) {
      if (AR.isValid())
        R.add(Check::RegAlloc, B, Idx, "operand appeared out of nowhere");
      return;
    }
    if (!AR.isValid()) {
      R.add(Check::RegAlloc, B, Idx, "operand disappeared");
      return;
    }
    if (BR.isPhys()) {
      if (AR != BR)
        R.add(Check::RegAlloc, B, Idx, "physical operand was rewritten");
      return;
    }
    if (!AR.isPhys()) {
      R.add(Check::RegAlloc, B, Idx,
            regName(AR) + " is still virtual after allocation");
      return;
    }
    if (Before.Fn.regClass(BR) != After.Fn.regClass(AR)) {
      R.add(Check::RegAlloc, B, Idx,
            "register class changed for " + regName(BR));
      return;
    }
    if (isScratch(AR)) {
      const Instr *P = Pre[AR.Id];
      if (!P) {
        R.add(Check::RegAlloc, B, Idx,
              "use of spilled " + regName(BR) +
                  " without a restore in this instruction's preamble");
        return;
      }
      if (P->IsRemat)
        RematClaims.push_back({BR.Id, P, B, PreIdx[AR.Id]});
      else
        RestoreClaims.push_back({BR.Id, P->Offset, B, PreIdx[AR.Id]});
      return;
    }
    if (isFrameBase(AR)) {
      R.add(Check::RegAlloc, B, Idx,
            "frame base register allocated to " + regName(BR));
      return;
    }
    if (AR.Id % NumPhysPerClass >= Allocatable) {
      R.add(Check::RegAlloc, B, Idx,
            regName(AR) + " is outside the allocatable range");
      return;
    }
    assign(BR, AR, B, Idx);
  }

  void walkBlock(int B) {
    const std::vector<Instr> &BIns =
        Before.Fn.Blocks[static_cast<size_t>(B)].Instrs;
    const std::vector<Instr> &AIns =
        After.Fn.Blocks[static_cast<size_t>(B)].Instrs;
    size_t J = 0;

    if (B == 0) {
      // The allocator unconditionally materializes the frame base on entry.
      if (AIns.empty() || AIns[0].Op != Opcode::LdI ||
          !(AIns[0].Dst == physIntReg(regalloc::FrameBaseReg))) {
        R.add(Check::RegAlloc, 0, 0,
              "entry block must initialize the frame base register");
      } else {
        int64_t Base = static_cast<int64_t>(
            After.Arrays[static_cast<size_t>(After.SpillArrayId)].Base);
        if (AIns[0].Imm != Base)
          R.add(Check::RegAlloc, 0, 0,
                "frame base initialized off the spill area base");
        J = 1;
      }
    }

    bool Broken = false;
    for (size_t I = 0; I != BIns.size() && !Broken; ++I) {
      const Instr &BI = BIns[I];

      // Restore/remat preamble: loads of spilled values into scratches.
      for (unsigned S : regalloc::SpillScratchRegs) {
        Pre[S] = nullptr;
        Pre[NumPhysPerClass + S] = nullptr;
      }
      while (J != AIns.size() && (AIns[J].IsRestore || AIns[J].IsRemat)) {
        const Instr &P = AIns[J];
        if (!P.Dst.isPhys() || !isScratch(P.Dst)) {
          R.add(Check::RegAlloc, B, static_cast<int>(J),
                "restore/remat must target a reserved scratch register");
        } else {
          Pre[P.Dst.Id] = &P;
          PreIdx[P.Dst.Id] = static_cast<int>(J);
        }
        if (P.IsRestore) {
          if (!P.isLoad())
            R.add(Check::RegAlloc, B, static_cast<int>(J),
                  "restore flag on a non-load instruction");
          else
            checkSlotAccess(P, B, static_cast<int>(J));
        }
        ++J;
      }
      if (J == AIns.size()) {
        R.add(Check::RegAlloc, B, -1,
              "allocated block ends before covering '" + printInstr(BI) +
                  "'");
        Broken = true;
        break;
      }

      const Instr &AI = AIns[J];
      const int APos = static_cast<int>(J);
      ++J;
      if (!shapeMatches(BI, AI)) {
        R.add(Check::RegAlloc, B, APos,
              "'" + printInstr(AI) + "' does not line up with '" +
                  printInstr(BI) + "' from before allocation");
        Broken = true;
        break;
      }

      mapUse(BI.SrcA, AI.SrcA, B, APos);
      mapUse(BI.SrcB, AI.SrcB, B, APos);
      mapUse(BI.SrcC, AI.SrcC, B, APos);
      mapUse(BI.Base, AI.Base, B, APos);

      // Destination mapping. Conditional moves also read the old value, so
      // a spilled CMov destination must have been restored in the preamble.
      bool ReadsDst = BI.Op == Opcode::CMov || BI.Op == Opcode::FCMov;
      bool SpilledDef = false;
      uint32_t DefV = Reg::InvalidId;
      if (Reg BD = BI.def(); BD.isValid()) {
        if (BD.isVirtual()) {
          Reg AD = AI.Dst;
          if (!AD.isPhys()) {
            R.add(Check::RegAlloc, B, APos,
                  "definition of " + regName(BD) + " still virtual");
          } else if (Before.Fn.regClass(BD) != After.Fn.regClass(AD)) {
            R.add(Check::RegAlloc, B, APos,
                  "register class changed for " + regName(BD));
          } else if (isScratch(AD)) {
            SpilledDef = true;
            DefV = BD.Id;
            if (ReadsDst)
              mapUse(BD, AD, B, APos);
          } else if (isFrameBase(AD)) {
            R.add(Check::RegAlloc, B, APos,
                  "frame base register clobbered by a definition");
          } else if (AD.Id % NumPhysPerClass >= Allocatable) {
            R.add(Check::RegAlloc, B, APos,
                  regName(AD) + " is outside the allocatable range");
          } else {
            assign(BD, AD, B, APos);
          }
        } else if (!(AI.Dst == BD)) {
          R.add(Check::RegAlloc, B, APos, "physical destination rewritten");
        }
      }

      // Spill postamble: a spilled definition must be stored to its slot
      // immediately, unless the value is rematerialized at its uses.
      if (J != AIns.size() && AIns[J].IsSpill) {
        const Instr &S = AIns[J];
        const int SPos = static_cast<int>(J);
        ++J;
        if (!S.isStore())
          R.add(Check::RegAlloc, B, SPos,
                "spill flag on a non-store instruction");
        else
          checkSlotAccess(S, B, SPos);
        if (!SpilledDef) {
          R.add(Check::RegAlloc, B, SPos,
                "spill store after a register-resident definition");
        } else {
          if (!(S.SrcA == AI.Dst))
            R.add(Check::RegAlloc, B, SPos,
                  "spill stores " + regName(S.SrcA) +
                      " but the definition landed in " + regName(AI.Dst));
          auto [It, Inserted] = SlotOfVReg.try_emplace(DefV, S.Offset);
          if (!Inserted && It->second != S.Offset)
            R.add(Check::RegAlloc, B, SPos,
                  regName(Reg(DefV)) + " spilled to two different slots");
          auto [It2, Inserted2] = VRegOfSlot.try_emplace(S.Offset, DefV);
          if (!Inserted2 && It2->second != DefV)
            R.add(Check::RegAlloc, B, SPos,
                  "spill slot " + std::to_string(S.Offset) +
                      " shared by " + regName(Reg(It2->second)) + " and " +
                      regName(Reg(DefV)));
        }
      } else if (SpilledDef) {
        NoSpillClaims.push_back({DefV, B, APos});
      }
    }

    if (!Broken)
      for (; J != AIns.size(); ++J)
        R.add(Check::RegAlloc, B, static_cast<int>(J),
              "unexpected trailing instruction '" + printInstr(AIns[J]) +
                  "'");
  }

  void resolveClaims() {
    for (const RestoreClaim &C : RestoreClaims) {
      auto It = SlotOfVReg.find(C.VReg);
      if (It == SlotOfVReg.end())
        R.add(Check::RegAlloc, C.Block, C.Idx,
              "restore of " + regName(Reg(C.VReg)) +
                  " from a slot no spill ever wrote");
      else if (It->second != C.Slot)
        R.add(Check::RegAlloc, C.Block, C.Idx,
              "restore of " + regName(Reg(C.VReg)) + " reads slot " +
                  std::to_string(C.Slot) + " but it was spilled to slot " +
                  std::to_string(It->second));
    }
    for (const RematClaim &C : RematClaims) {
      const Instr *Def = UniqueConstDef[C.VReg];
      if (!Def) {
        R.add(Check::RegAlloc, C.Block, C.Idx,
              "rematerialization of " + regName(Reg(C.VReg)) +
                  ", which is not a uniquely-defined constant");
      } else if (C.Remat->Op != Def->Op || C.Remat->Imm != Def->Imm) {
        R.add(Check::RegAlloc, C.Block, C.Idx,
              "rematerialized value differs from the defining '" +
                  printInstr(*Def) + "'");
      }
    }
    for (const NoSpillClaim &C : NoSpillClaims)
      if (!UniqueConstDef[C.VReg])
        R.add(Check::RegAlloc, C.Block, C.Idx,
              "spilled definition of " + regName(Reg(C.VReg)) +
                  " has no spill store and is not rematerializable");
  }

  /// Precise per-point liveness over the Before code: at every definition,
  /// no other live virtual register may share the defined register's
  /// physical assignment. Precise liveness is a subset of the allocator's
  /// interval hulls, so a correct allocation can never be flagged.
  ///
  /// LiveOn counts the live values per physical register, so a definition
  /// whose register holds no other live value costs O(1); only a conflict
  /// scans the live set, to word its diagnostics.
  void checkInterference() {
    const Function &BF = Before.Fn;
    Liveness L = computeLiveness(BF);
    std::set<std::pair<uint32_t, uint32_t>> Seen;
    std::vector<Reg> Uses;
    BitVec Live;
    std::array<int, NumPhysTotal> LiveOn;
    auto Count = [&](unsigned U, int Delta) {
      if (Assign[U] != Reg::InvalidId)
        LiveOn[Assign[U]] += Delta;
    };
    for (const BasicBlock &B : BF.Blocks) {
      Live = L.LiveOut[B.Id];
      LiveOn.fill(0);
      Live.forEach([&](unsigned U) { Count(U, 1); });
      for (size_t I = B.Instrs.size(); I-- > 0;) {
        const Instr &In = B.Instrs[I];
        Reg D = In.def();
        if (D.isVirtual() && Assign[D.Id] != Reg::InvalidId &&
            LiveOn[Assign[D.Id]] > (Live.test(D.Id) ? 1 : 0)) {
          const uint32_t P = Assign[D.Id];
          Live.forEach([&](unsigned U) {
            if (U == D.Id || !Reg(U).isVirtual() || Assign[U] != P)
              return;
            auto Key = std::minmax(D.Id, U);
            if (Seen.insert({Key.first, Key.second}).second)
              R.add(Check::RegAlloc, B.Id, static_cast<int>(I),
                    regName(D) + " and " + regName(Reg(U)) +
                        " are simultaneously live but share " +
                        regName(Reg(P)));
          });
        }
        if (D.isValid() && D.Id < Live.size() && Live.test(D.Id)) {
          Live.reset(D.Id);
          Count(D.Id, -1);
        }
        Uses.clear();
        In.appendUses(Uses);
        for (Reg U : Uses)
          if (U.Id < Live.size() && !Live.test(U.Id)) {
            Live.set(U.Id);
            Count(U.Id, 1);
          }
      }
    }
  }

  void sweepForVirtuals() {
    std::vector<Reg> Uses;
    for (const BasicBlock &B : After.Fn.Blocks)
      for (size_t I = 0; I != B.Instrs.size(); ++I) {
        const Instr &In = B.Instrs[I];
        Uses.clear();
        In.appendUses(Uses);
        if (Reg D = In.def(); D.isValid())
          Uses.push_back(D);
        for (Reg U : Uses)
          if (U.isVirtual()) {
            R.add(Check::RegAlloc, B.Id, static_cast<int>(I),
                  regName(U) + " survived register allocation");
            break;
          }
      }
  }
};

} // namespace

VerifyResult verify::verifyRegAlloc(const Module &Before, const Module &After,
                                    unsigned AllocatablePerClass) {
  return RegAllocVerifier(Before, After, AllocatablePerClass).run();
}

//===----------------------------------------------------------------------===//
// verifyModule
//===----------------------------------------------------------------------===//

VerifyResult verify::verifyModule(const Module &M) {
  VerifyResult R;
  if (std::string E = ir::verify(M); !E.empty())
    R.add(Check::Structure, -1, -1, E);
  for (const BasicBlock &B : M.Fn.Blocks)
    for (size_t I = 0; I != B.Instrs.size(); ++I) {
      const Instr &In = B.Instrs[I];
      if (!In.isLoad() &&
          (In.HM != HitMiss::Unknown || In.LocalityGroup >= 0))
        R.add(Check::Locality, B.Id, static_cast<int>(I),
              "locality annotation on a non-load instruction");
    }
  return R;
}
