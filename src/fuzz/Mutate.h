//===- fuzz/Mutate.h - Structured AST mutator -------------------*- C++ -*-===//
///
/// \file
/// Structured mutation over lang::Program ASTs, layered on the generator:
/// where lang::generateProgram samples whole programs, the mutator makes one
/// local, validity-preserving edit — statement insertion/deletion/swaps,
/// affine-subscript perturbation, loop-bound and conditional rewrites, and
/// array-geometry changes — so the coverage-guided fuzzer can walk outward
/// from corpus entries instead of resampling from scratch.
///
/// Every mutation is validated before it is accepted: the mutant must pass
/// lang::checkProgram (which also re-inserts implicit conversions), survive a
/// print -> parse round trip, and evaluate cleanly under the AST oracle
/// within a statement budget (which rejects out-of-bounds subscripts and
/// runaway loops). Invalid candidates are rolled back and another mutation
/// kind is tried, so mutateProgram either returns a valid mutant or leaves
/// the input untouched.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_FUZZ_MUTATE_H
#define BALSCHED_FUZZ_MUTATE_H

#include "lang/AST.h"
#include "support/RNG.h"

#include <cstdint>
#include <optional>

namespace bsched {
namespace fuzz {

enum class MutationKind : uint8_t {
  InsertAssign,     ///< new scalar/array store built from in-scope names.
  InsertLoop,       ///< new small counted loop around a fresh assignment.
  DeleteStmt,       ///< remove one statement.
  SwapStmts,        ///< swap two adjacent statements in a block.
  PerturbSubscript, ///< rewrite one array-subscript dimension.
  RewriteLoopBounds,///< change a literal trip count or the step.
  RewriteCond,      ///< flip/negate a conditional or swap its branches.
  ResizeArray,      ///< grow or shrink one array dimension.
  ToggleLayout,     ///< flip row-major/column-major on one array.
  ToggleOutput,     ///< flip checksum participation of a non-primary array.
};
constexpr int NumMutationKinds = 10;

const char *mutationKindName(MutationKind K);

/// Per-kind accept/reject bookkeeping (diagnostics for the fuzzer log).
struct MutationCounts {
  uint64_t Applied[NumMutationKinds] = {};
  uint64_t Rejected = 0;
};

/// Applies one valid mutation to \p P in place, drawing randomness from
/// \p Rng. Returns the mutation kind applied, or std::nullopt if none of 24
/// candidate mutations was valid (P is then unchanged).
std::optional<MutationKind> mutateProgram(lang::Program &P, RNG &Rng,
                                          MutationCounts *Counts = nullptr);

/// The validity gate mutateProgram enforces; exposed so tests and the
/// reducer can apply the same contract. Returns an empty string when \p P
/// checks, reparses and evaluates in bounds within 2,000,000 statements,
/// otherwise the first diagnostic.
std::string validateProgram(const lang::Program &P);

} // namespace fuzz
} // namespace bsched

#endif // BALSCHED_FUZZ_MUTATE_H
