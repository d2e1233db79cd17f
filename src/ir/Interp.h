//===- ir/Interp.h - Functional IR interpreter ------------------*- C++ -*-===//
///
/// \file
/// A functional (untimed) executor for IR modules. It serves three roles:
///  - reference oracle: every optimization/scheduling configuration must
///    produce a program whose output checksum matches the interpreter's run
///    of the unoptimized module;
///  - profiler: block and edge execution counts guide trace selection
///    (section 4.2: "we first profiled the programs to determine basic block
///    execution frequencies");
///  - dynamic-instruction counter for sanity checks.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_IR_INTERP_H
#define BALSCHED_IR_INTERP_H

#include "ir/IR.h"
#include "support/ZeroBuffer.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace bsched {
namespace ir {

/// Result of one interpreter run.
struct InterpResult {
  bool Finished = false; ///< false = budget exhausted, or Error is set.
  std::string Error;     ///< non-empty when a store left the memory image.
  uint64_t DynInstrs = 0;
  uint64_t Checksum = 0; ///< FNV-1a over the output arrays' bytes.
  /// Executions per block.
  std::vector<uint64_t> BlockCounts;
  /// Edge counts per block: [0] = taken/jump target, [1] = fallthrough.
  std::vector<std::array<uint64_t, 2>> EdgeCounts;
};

/// Executes \p M from its entry block until Ret (or until \p MaxInstrs
/// instructions have run, or until the terminator of a block in which a
/// store left the memory image; see ExecState::storeWord). The module must
/// have been laid out. Predecodes every instruction into a compact micro-op
/// once, then runs the flat micro-op stream — the IR's Instr is large
/// (memory instructions carry a symbolic address-term vector) and walking
/// it per dynamic instruction dominates profiling time.
InterpResult interpret(const Module &M, uint64_t MaxInstrs = 1000000000ull);

/// The original executor: walks the IR instruction-by-instruction through
/// executeInstr with no predecoding. Produces results identical to
/// interpret(); kept as the compile-throughput baseline and as a
/// differential-testing oracle for the predecoder.
InterpResult interpretByInstr(const Module &M,
                              uint64_t MaxInstrs = 1000000000ull);

/// Checks that \p R is a flow-conserving profile of \p F: every block's
/// incoming edge flow (plus \p EntryUnits injected at the entry block) equals
/// its BlockCounts entry, and every block with successors pushes exactly its
/// count back out over its edges (Ret blocks absorb their flow). Finished
/// interpreter profiles conserve with EntryUnits == 1; the static estimator
/// (trace/EstimateProfile) conserves with EntryUnits ==
/// trace::EstimateEntryCount. Returns "" when conserving, otherwise a
/// description of the first violation.
std::string checkProfileConservation(const Function &F, const InterpResult &R,
                                     uint64_t EntryUnits);

/// The error that ends a run whose store wrote 8 bytes at \p Addr into a
/// memory image of \p MemSize bytes: the interpreters and both simulator
/// cores report it in the same words.
std::string storeFaultError(uint64_t Addr, uint64_t MemSize);

/// Architectural state (register file + memory image) shared by the
/// functional interpreter and the timing simulator.
class ExecState {
public:
  explicit ExecState(const Module &M);

  int64_t readInt(Reg R) const { return static_cast<int64_t>(Regs[R.Id]); }
  double readFp(Reg R) const {
    double V;
    std::memcpy(&V, &Regs[R.Id], sizeof(double));
    return V;
  }
  void writeInt(Reg R, int64_t V) { Regs[R.Id] = static_cast<uint64_t>(V); }
  void writeFp(Reg R, double V) {
    std::memcpy(&Regs[R.Id], &V, sizeof(double));
  }

  /// Reads a 64-bit word. Non-faulting: trace scheduling may hoist a load
  /// above the branch guarding it (section 3.2 permits speculating
  /// instructions that do not write memory and whose destination is dead
  /// off-trace). On the misspeculated path the address can be arbitrary, so
  /// out-of-range reads return deterministic garbage instead of faulting —
  /// the value is dead by the speculation-safety rule. interpret() repeats
  /// this rule in its own load handler; the checksum checks (see the
  /// micro-op notes below) keep the two copies in agreement.
  uint64_t loadWord(uint64_t Addr) const {
    if (Addr + 8 > Memory.size() || Addr + 8 < Addr)
      return 0xdeadbeefdeadbeefull ^ Addr;
    uint64_t V;
    std::memcpy(&V, &Memory[Addr], 8);
    return V;
  }
  /// Writes a 64-bit word. An out-of-range store is a program bug (no
  /// speculation rule permits one): it writes nothing and records the first
  /// such address. The execution loops test storeFaulted() at each block's
  /// terminator, off the per-op path, and end the run with storeFault().
  void storeWord(uint64_t Addr, uint64_t V) {
    if (Addr + 8 > Memory.size() || Addr + 8 < Addr) [[unlikely]] {
      if (!Faulted)
        FaultAddr = Addr;
      Faulted = true;
      return;
    }
    std::memcpy(&Memory[Addr], &V, 8);
  }
  bool storeFaulted() const { return Faulted; }
  /// The error text of the first out-of-range store.
  std::string storeFault() const {
    return storeFaultError(FaultAddr, Memory.size());
  }

  /// Effective address of a memory instruction under the current registers.
  uint64_t effectiveAddress(const Instr &I) const {
    return static_cast<uint64_t>(readInt(I.Base) + I.Offset);
  }

  /// Raw state access for the predecoded execution loops: the register file
  /// and memory image are separate allocations, so hot loops may hold
  /// restrict-qualified pointers to both without reloading them across
  /// stores (the encapsulated accessors above defeat that analysis).
  uint64_t *regsData() { return Regs.data(); }
  uint8_t *memData() { return Memory.data(); }
  size_t memSize() const { return Memory.size(); }

  /// FNV-1a checksum over the module's output arrays.
  uint64_t outputChecksum(const Module &M) const;

private:
  std::vector<uint64_t> Regs;
  ZeroBuffer<uint8_t> Memory;
  bool Faulted = false;
  uint64_t FaultAddr = 0;
};

/// Architecturally executes one non-terminator instruction (terminators are
/// control decisions for the caller). Timing is the caller's concern.
void executeInstr(ExecState &S, const Instr &I);

//===----------------------------------------------------------------------===//
// Predecoded micro-ops
//===----------------------------------------------------------------------===//
//
// Instr is heavy — memory instructions carry a symbolic address-term vector,
// so walking Instr per dynamic instruction dominates any execution loop. The
// predecoder flattens each instruction once into a compact micro-op with the
// operand form resolved (reg-or-literal opcodes split into explicit register
// and immediate variants). The fast timing simulator (sim::SimImpl::Fast)
// runs execMicro on this form; the profiling interpreter (interpret) runs its
// own handlers over a packed copy of it. The two share the decoder, not the
// executor, so what keeps them in agreement is a check: every job compares
// its simulated checksum with the AST oracle's, and the fuzzer compares the
// interpreter's checksum with the same oracle.

enum class MicroKind : uint8_t {
  LdI, FLdI, Mov, FMov, ItoF, FtoI,
  IAddR, IAddI, ISubR, ISubI, IMulR, IMulI,
  SllR, SllI, SrlR, SrlI, AndR, AndI, OrR, OrI, XorR, XorI,
  CmpEqR, CmpEqI, CmpLtR, CmpLtI, CmpLeR, CmpLeI,
  FAdd, FSub, FMul, FDiv, FCmpEq, FCmpLt, FCmpLe,
  CMov, FCMov, Load, FLoad, Store, FStore,
};

/// One predecoded non-terminator instruction. For memory kinds, B is the
/// address base register, Imm the byte offset, and A the stored value
/// register (stores only).
struct MicroOp {
  MicroKind K;
  Reg Dst, A, B;
  int64_t Imm; ///< ALU literal, memory offset, or FLdI bit pattern.
};

/// Predecodes one non-terminator instruction (asserts on terminators).
MicroOp decodeMicro(const Instr &I);

/// Executes one micro-op; behaviour is bit-identical to executeInstr on the
/// instruction it was decoded from. Forced inline: GCC otherwise leaves it
/// out of line in the simulator's issue loop, and the call costs more than
/// most of its handlers.
[[gnu::always_inline]] inline void execMicro(ExecState &S, const MicroOp &O) {
  switch (O.K) {
  case MicroKind::LdI: S.writeInt(O.Dst, O.Imm); break;
  case MicroKind::FLdI: {
    double V;
    std::memcpy(&V, &O.Imm, sizeof(double));
    S.writeFp(O.Dst, V);
    break;
  }
  case MicroKind::Mov: S.writeInt(O.Dst, S.readInt(O.A)); break;
  case MicroKind::FMov: S.writeFp(O.Dst, S.readFp(O.A)); break;
  case MicroKind::ItoF:
    S.writeFp(O.Dst, static_cast<double>(S.readInt(O.A)));
    break;
  case MicroKind::FtoI:
    S.writeInt(O.Dst, static_cast<int64_t>(S.readFp(O.A)));
    break;
  case MicroKind::IAddR:
    S.writeInt(O.Dst, S.readInt(O.A) + S.readInt(O.B));
    break;
  case MicroKind::IAddI:
    S.writeInt(O.Dst, S.readInt(O.A) + O.Imm);
    break;
  case MicroKind::ISubR:
    S.writeInt(O.Dst, S.readInt(O.A) - S.readInt(O.B));
    break;
  case MicroKind::ISubI:
    S.writeInt(O.Dst, S.readInt(O.A) - O.Imm);
    break;
  case MicroKind::IMulR:
    S.writeInt(O.Dst, S.readInt(O.A) * S.readInt(O.B));
    break;
  case MicroKind::IMulI:
    S.writeInt(O.Dst, S.readInt(O.A) * O.Imm);
    break;
  case MicroKind::SllR:
    S.writeInt(O.Dst, S.readInt(O.A) << (S.readInt(O.B) & 63));
    break;
  case MicroKind::SllI:
    S.writeInt(O.Dst, S.readInt(O.A) << (O.Imm & 63));
    break;
  case MicroKind::SrlR:
    S.writeInt(O.Dst, static_cast<int64_t>(
                          static_cast<uint64_t>(S.readInt(O.A)) >>
                          (S.readInt(O.B) & 63)));
    break;
  case MicroKind::SrlI:
    S.writeInt(O.Dst, static_cast<int64_t>(
                          static_cast<uint64_t>(S.readInt(O.A)) >>
                          (O.Imm & 63)));
    break;
  case MicroKind::AndR:
    S.writeInt(O.Dst, S.readInt(O.A) & S.readInt(O.B));
    break;
  case MicroKind::AndI:
    S.writeInt(O.Dst, S.readInt(O.A) & O.Imm);
    break;
  case MicroKind::OrR:
    S.writeInt(O.Dst, S.readInt(O.A) | S.readInt(O.B));
    break;
  case MicroKind::OrI:
    S.writeInt(O.Dst, S.readInt(O.A) | O.Imm);
    break;
  case MicroKind::XorR:
    S.writeInt(O.Dst, S.readInt(O.A) ^ S.readInt(O.B));
    break;
  case MicroKind::XorI:
    S.writeInt(O.Dst, S.readInt(O.A) ^ O.Imm);
    break;
  case MicroKind::CmpEqR:
    S.writeInt(O.Dst, S.readInt(O.A) == S.readInt(O.B) ? 1 : 0);
    break;
  case MicroKind::CmpEqI:
    S.writeInt(O.Dst, S.readInt(O.A) == O.Imm ? 1 : 0);
    break;
  case MicroKind::CmpLtR:
    S.writeInt(O.Dst, S.readInt(O.A) < S.readInt(O.B) ? 1 : 0);
    break;
  case MicroKind::CmpLtI:
    S.writeInt(O.Dst, S.readInt(O.A) < O.Imm ? 1 : 0);
    break;
  case MicroKind::CmpLeR:
    S.writeInt(O.Dst, S.readInt(O.A) <= S.readInt(O.B) ? 1 : 0);
    break;
  case MicroKind::CmpLeI:
    S.writeInt(O.Dst, S.readInt(O.A) <= O.Imm ? 1 : 0);
    break;
  case MicroKind::FAdd:
    S.writeFp(O.Dst, S.readFp(O.A) + S.readFp(O.B));
    break;
  case MicroKind::FSub:
    S.writeFp(O.Dst, S.readFp(O.A) - S.readFp(O.B));
    break;
  case MicroKind::FMul:
    S.writeFp(O.Dst, S.readFp(O.A) * S.readFp(O.B));
    break;
  case MicroKind::FDiv:
    S.writeFp(O.Dst, S.readFp(O.A) / S.readFp(O.B));
    break;
  case MicroKind::FCmpEq:
    S.writeInt(O.Dst, S.readFp(O.A) == S.readFp(O.B) ? 1 : 0);
    break;
  case MicroKind::FCmpLt:
    S.writeInt(O.Dst, S.readFp(O.A) < S.readFp(O.B) ? 1 : 0);
    break;
  case MicroKind::FCmpLe:
    S.writeInt(O.Dst, S.readFp(O.A) <= S.readFp(O.B) ? 1 : 0);
    break;
  case MicroKind::CMov:
    if (S.readInt(O.A) != 0)
      S.writeInt(O.Dst, S.readInt(O.B));
    break;
  case MicroKind::FCMov:
    if (S.readInt(O.A) != 0)
      S.writeFp(O.Dst, S.readFp(O.B));
    break;
  case MicroKind::Load:
    S.writeInt(O.Dst, static_cast<int64_t>(S.loadWord(
                          static_cast<uint64_t>(S.readInt(O.B) + O.Imm))));
    break;
  case MicroKind::FLoad: {
    uint64_t Bits =
        S.loadWord(static_cast<uint64_t>(S.readInt(O.B) + O.Imm));
    double V;
    std::memcpy(&V, &Bits, 8);
    S.writeFp(O.Dst, V);
    break;
  }
  case MicroKind::Store:
    S.storeWord(static_cast<uint64_t>(S.readInt(O.B) + O.Imm),
                static_cast<uint64_t>(S.readInt(O.A)));
    break;
  case MicroKind::FStore: {
    double V = S.readFp(O.A);
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    S.storeWord(static_cast<uint64_t>(S.readInt(O.B) + O.Imm), Bits);
    break;
  }
  }
}

} // namespace ir
} // namespace bsched

#endif // BALSCHED_IR_INTERP_H
