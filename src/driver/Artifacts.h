//===- driver/Artifacts.h - Binary codecs for pipeline results --*- C++ -*-===//
///
/// \file
/// Versioned binary serialization for the result types the experiment
/// pipeline produces: simulated statistics (sim::SimResult), profiles
/// (ir::InterpResult), whole compiled modules with their per-pass statistics
/// (driver::CompileResult), and the memoized experiment cell
/// (driver::RunResult) that driver::ArtifactStore persists across processes.
///
/// Contract: encode/decode are exact inverses — every field round-trips
/// bit-exactly (doubles by bit pattern), so a decoded artifact is
/// indistinguishable from the freshly computed value. The result codecs are
/// generated from the field lists of driver/JobFields.h, so they cover every
/// field; only the module codec is written by hand. tests/serialize_test
/// round-trips a dense value of each type and pins its bytes, and the golden
/// tests hash decoded artifacts.
///
/// The decoders run on bytes that may come from a truncated, corrupted or
/// foreign file, so they never trust the input: all reads go through the
/// bounds-checked ByteReader, claimed element counts are validated against
/// the bytes remaining before any allocation, and the caller observes one
/// bool — decode succeeded and consumed a well-formed record, or the
/// artifact is rejected (ArtifactStore treats rejection as a cache miss).
///
/// ArtifactSchemaVersion salts every persisted key: bumping it (required
/// whenever any encoded layout or any serialized struct changes) strands the
/// old on-disk entries as misses instead of letting a new binary misparse
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_ARTIFACTS_H
#define BALSCHED_DRIVER_ARTIFACTS_H

#include "driver/Compiler.h"
#include "driver/Experiment.h"
#include "ir/Interp.h"
#include "sim/Machine.h"
#include "support/Serialize.h"

namespace bsched {
namespace driver {

/// Bump on ANY change to the encoded layout of ANY type below (field added,
/// removed, reordered, or re-typed). The store embeds it in both the content
/// key and the file header, so stale entries of either polarity read as
/// misses, never as garbage values.
constexpr uint32_t ArtifactSchemaVersion = 2;

// Simulation / profile artifacts.
void encode(ByteWriter &W, const sim::SimResult &R);
bool decode(ByteReader &R, sim::SimResult &Out);
void encode(ByteWriter &W, const ir::InterpResult &R);
bool decode(ByteReader &R, ir::InterpResult &Out);

// Whole compiled modules (instruction streams included: a decoded
// CompileResult re-produces its golden schedule hash).
void encode(ByteWriter &W, const ir::Module &M);
bool decode(ByteReader &R, ir::Module &Out);
void encode(ByteWriter &W, const CompileResult &C);
bool decode(ByteReader &R, CompileResult &Out);

// The memoized experiment cell runCached persists.
void encode(ByteWriter &W, const RunResult &R);
bool decode(ByteReader &R, RunResult &Out);

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_ARTIFACTS_H
