//===- driver/Artifacts.cpp - Binary codecs for pipeline results -----------===//

#include "driver/Artifacts.h"

#include "driver/JobFields.h"

using namespace bsched;
using namespace bsched::driver;

namespace {

// Decoded enums are range-checked before the static_cast: an enum value a
// newer (or corrupted) file invented must fail the decode, not materialize
// as an out-of-range enumerator that downstream switch statements trust.
constexpr uint8_t lastEnumerator(verify::Check) {
  return static_cast<uint8_t>(verify::Check::Locality);
}
constexpr uint8_t lastEnumerator(ir::Opcode) {
  return static_cast<uint8_t>(ir::Opcode::Ret);
}
constexpr uint8_t lastEnumerator(ir::HitMiss) {
  return static_cast<uint8_t>(ir::HitMiss::Miss);
}
constexpr uint8_t lastEnumerator(ir::RegClass) {
  return static_cast<uint8_t>(ir::RegClass::Fp);
}

template <typename EnumT> bool decodeEnum(ByteReader &R, EnumT &Out) {
  static_assert(sizeof(EnumT) == 1, "enums encode as one byte");
  uint8_t V = R.u8();
  if (!R.ok() || V > lastEnumerator(Out))
    return false;
  Out = static_cast<EnumT>(V);
  return true;
}

//===----------------------------------------------------------------------===//
// Result structs, generated from their field lists (driver/JobFields.h)
//===----------------------------------------------------------------------===//

// One rule per leaf type, applied to every leaf in list order: bool as one
// byte, enums as u8, signed integers as i64, unsigned ones as u64, floats
// by bit pattern, strings and vectors as a u64 count and their contents,
// arrays as their elements, and modules through the module codec below.

template <typename V> void put(ByteWriter &W, const V &X) {
  if constexpr (Listed<V>)
    forEachLeaf([&W](const FieldPath &, const auto &L) { put(W, L); }, X);
  else if constexpr (std::is_same_v<V, ir::Module>)
    encode(W, X);
  else if constexpr (IsVector<V>) {
    W.u64(X.size());
    for (const auto &E : X)
      put(W, E);
  } else if constexpr (IsArray<V>) {
    for (const auto &E : X)
      put(W, E);
  } else if constexpr (std::is_same_v<V, std::string>)
    W.str(X);
  else if constexpr (std::is_same_v<V, bool>)
    W.b(X);
  else if constexpr (std::is_enum_v<V>)
    W.u8(static_cast<uint8_t>(X));
  else if constexpr (std::is_floating_point_v<V>)
    W.d(X);
  else if constexpr (std::is_signed_v<V>)
    W.i64(X);
  else
    W.u64(X);
}

/// The fewest bytes one encoded E takes, so the canHold floor for a count of
/// E: the size of a default E, whose strings and vectors are empty.
template <typename E> uint64_t minEncodedBytes() {
  static const uint64_t Bytes = [] {
    ByteWriter W;
    put(W, E{});
    return W.buffer().size();
  }();
  return Bytes;
}

template <typename V> bool get(ByteReader &R, V &X) {
  if constexpr (Listed<V>) {
    bool Ok = true;
    forEachLeaf([&](const FieldPath &, auto &L) { Ok = Ok && get(R, L); }, X);
    return Ok;
  } else if constexpr (std::is_same_v<V, ir::Module>)
    return decode(R, X);
  else if constexpr (IsVector<V>) {
    using E = typename V::value_type;
    uint64_t N = R.u64();
    if (!R.canHold(N, minEncodedBytes<E>()))
      return false;
    X.clear();
    X.reserve(N);
    for (uint64_t I = 0; I != N; ++I) {
      E Elem{};
      if (!get(R, Elem))
        return false;
      X.push_back(std::move(Elem));
    }
  } else if constexpr (IsArray<V>) {
    for (auto &E : X)
      if (!get(R, E))
        return false;
  } else if constexpr (std::is_same_v<V, std::string>)
    X = R.str();
  else if constexpr (std::is_same_v<V, bool>)
    X = R.b();
  else if constexpr (std::is_enum_v<V>)
    return decodeEnum(R, X);
  else if constexpr (std::is_floating_point_v<V>)
    X = R.d();
  else if constexpr (std::is_signed_v<V>)
    X = static_cast<V>(R.i64());
  else
    X = static_cast<V>(R.u64());
  return R.ok();
}

/// Decodes into a reset \p Out, so a failed decode never leaves a merge of
/// old and new fields.
template <typename T> bool getFresh(ByteReader &R, T &Out) {
  Out = T();
  return get(R, Out);
}

//===----------------------------------------------------------------------===//
// IR
//===----------------------------------------------------------------------===//

void encodeMemRef(ByteWriter &W, const ir::MemRef &M) {
  W.i64(M.ArrayId);
  W.b(M.HasForm);
  W.u64(M.Terms.size());
  for (const ir::MemRef::Term &T : M.Terms) {
    W.u32(T.RegId);
    W.i64(T.Coeff);
  }
  W.i64(M.Const);
  W.i64(M.Size);
}
bool decodeMemRef(ByteReader &R, ir::MemRef &M) {
  M.ArrayId = static_cast<int>(R.i64());
  M.HasForm = R.b();
  uint64_t NumTerms = R.u64();
  if (!R.canHold(NumTerms, 12))
    return false;
  M.Terms.clear();
  M.Terms.reserve(NumTerms);
  for (uint64_t I = 0; I != NumTerms; ++I) {
    ir::MemRef::Term T;
    T.RegId = R.u32();
    T.Coeff = R.i64();
    M.Terms.push_back(T);
  }
  M.Const = R.i64();
  M.Size = static_cast<int>(R.i64());
  return R.ok();
}

void encodeInstr(ByteWriter &W, const ir::Instr &I) {
  W.u8(static_cast<uint8_t>(I.Op));
  W.u32(I.Dst.Id);
  W.u32(I.SrcA.Id);
  W.u32(I.SrcB.Id);
  W.u32(I.SrcC.Id);
  W.i64(I.Imm);
  W.b(I.HasImm);
  W.u32(I.Base.Id);
  W.i64(I.Offset);
  encodeMemRef(W, I.Mem);
  W.u8(static_cast<uint8_t>(I.HM));
  W.i64(I.LocalityGroup);
  W.b(I.IsSpill);
  W.b(I.IsRestore);
  W.b(I.IsRemat);
  W.i64(I.Target0);
  W.i64(I.Target1);
}
bool decodeInstr(ByteReader &R, ir::Instr &I) {
  if (!decodeEnum(R, I.Op))
    return false;
  I.Dst = ir::Reg(R.u32());
  I.SrcA = ir::Reg(R.u32());
  I.SrcB = ir::Reg(R.u32());
  I.SrcC = ir::Reg(R.u32());
  I.Imm = R.i64();
  I.HasImm = R.b();
  I.Base = ir::Reg(R.u32());
  I.Offset = R.i64();
  if (!decodeMemRef(R, I.Mem))
    return false;
  if (!decodeEnum(R, I.HM))
    return false;
  I.LocalityGroup = static_cast<int>(R.i64());
  I.IsSpill = R.b();
  I.IsRestore = R.b();
  I.IsRemat = R.b();
  I.Target0 = static_cast<int>(R.i64());
  I.Target1 = static_cast<int>(R.i64());
  return R.ok();
}

void encodeArray(ByteWriter &W, const ir::ArrayInfo &A) {
  W.str(A.Name);
  W.u64(A.Dims.size());
  for (int64_t D : A.Dims)
    W.i64(D);
  W.i64(A.ElemSize);
  W.b(A.RowMajor);
  W.b(A.IsOutput);
  W.u64(A.Base);
}
bool decodeArray(ByteReader &R, ir::ArrayInfo &A) {
  A.Name = R.str();
  uint64_t NumDims = R.u64();
  if (!R.canHold(NumDims, 8))
    return false;
  A.Dims.clear();
  A.Dims.reserve(NumDims);
  for (uint64_t I = 0; I != NumDims; ++I)
    A.Dims.push_back(R.i64());
  A.ElemSize = static_cast<int>(R.i64());
  A.RowMajor = R.b();
  A.IsOutput = R.b();
  A.Base = R.u64();
  return R.ok();
}

} // namespace

//===----------------------------------------------------------------------===//
// Public codecs
//===----------------------------------------------------------------------===//

void driver::encode(ByteWriter &W, const sim::SimResult &R) { put(W, R); }
bool driver::decode(ByteReader &R, sim::SimResult &Out) {
  return getFresh(R, Out);
}

void driver::encode(ByteWriter &W, const ir::InterpResult &R) { put(W, R); }
bool driver::decode(ByteReader &R, ir::InterpResult &Out) {
  return getFresh(R, Out);
}

void driver::encode(ByteWriter &W, const ir::Module &M) {
  W.u64(M.Arrays.size());
  for (const ir::ArrayInfo &A : M.Arrays)
    encodeArray(W, A);
  W.str(M.Fn.Name);
  W.u64(M.Fn.RegClasses.size());
  for (ir::RegClass C : M.Fn.RegClasses)
    W.u8(static_cast<uint8_t>(C));
  W.u64(M.Fn.Blocks.size());
  for (const ir::BasicBlock &B : M.Fn.Blocks) {
    W.i64(B.Id);
    W.i64(B.ExactTripCount);
    W.u64(B.Instrs.size());
    for (const ir::Instr &I : B.Instrs)
      encodeInstr(W, I);
  }
  W.u64(M.MemorySize);
  W.i64(M.SpillArrayId);
}

bool driver::decode(ByteReader &R, ir::Module &Out) {
  Out = ir::Module();
  uint64_t NumArrays = R.u64();
  if (!R.canHold(NumArrays, 8))
    return false;
  Out.Arrays.reserve(NumArrays);
  for (uint64_t I = 0; I != NumArrays; ++I) {
    ir::ArrayInfo A;
    if (!decodeArray(R, A))
      return false;
    Out.Arrays.push_back(std::move(A));
  }
  Out.Fn.Name = R.str();
  uint64_t NumRegs = R.u64();
  if (!R.canHold(NumRegs, 1))
    return false;
  // Function() pre-seeds the physical registers; rebuild the class table
  // from the encoded one wholesale (it covers the physical ids too).
  Out.Fn.RegClasses.clear();
  Out.Fn.RegClasses.reserve(NumRegs);
  for (uint64_t I = 0; I != NumRegs; ++I) {
    ir::RegClass C;
    if (!decodeEnum(R, C))
      return false;
    Out.Fn.RegClasses.push_back(C);
  }
  uint64_t NumBlocks = R.u64();
  if (!R.canHold(NumBlocks, 16))
    return false;
  Out.Fn.Blocks.clear();
  Out.Fn.Blocks.reserve(NumBlocks);
  for (uint64_t I = 0; I != NumBlocks; ++I) {
    ir::BasicBlock B;
    B.Id = static_cast<int>(R.i64());
    B.ExactTripCount = R.i64();
    uint64_t NumInstrs = R.u64();
    // An Instr encodes to well over 64 bytes; 16 is a safe floor that still
    // rejects absurd counts before the reserve.
    if (!R.canHold(NumInstrs, 16))
      return false;
    B.Instrs.reserve(NumInstrs);
    for (uint64_t J = 0; J != NumInstrs; ++J) {
      ir::Instr Ins;
      if (!decodeInstr(R, Ins))
        return false;
      B.Instrs.push_back(std::move(Ins));
    }
    Out.Fn.Blocks.push_back(std::move(B));
  }
  Out.MemorySize = R.u64();
  Out.SpillArrayId = static_cast<int>(R.i64());
  return R.ok();
}

void driver::encode(ByteWriter &W, const CompileResult &C) { put(W, C); }
bool driver::decode(ByteReader &R, CompileResult &Out) {
  return getFresh(R, Out);
}

void driver::encode(ByteWriter &W, const RunResult &R) { put(W, R); }
bool driver::decode(ByteReader &R, RunResult &Out) { return getFresh(R, Out); }
