//===- fuzz/Reduce.h - Automatic test-case reduction ------------*- C++ -*-===//
///
/// \file
/// Delta debugging over kernel-language programs and compile options: given
/// a failing input and a predicate that re-checks the failure, shrink the
/// program with semantics-preserving-enough structural passes (statement
/// deletion, loop/conditional flattening, trip-count shrinking, expression
/// and declaration simplification) until no pass makes progress, then strip
/// compile-option flags the failure does not need. Every candidate must be a
/// valid program (checks, reparses, evaluates in bounds) *and* still satisfy
/// the predicate; anything else is rolled back, so the reducer can never
/// turn one bug into another.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_FUZZ_REDUCE_H
#define BALSCHED_FUZZ_REDUCE_H

#include "driver/Compiler.h"
#include "lang/AST.h"

#include <functional>

namespace bsched {
namespace fuzz {

/// Returns true when the candidate still exhibits the failure being reduced.
using Predicate = std::function<bool(const lang::Program &)>;

/// Predicate over (program, options) for the option-stripping phase.
using OptionsPredicate =
    std::function<bool(const lang::Program &, const driver::CompileOptions &)>;

struct ReduceStats {
  int CandidatesTried = 0;
  int CandidatesAccepted = 0;
  int Passes = 0;
};

/// Shrinks \p Input while \p StillFails holds. \p Input itself is assumed to
/// fail; the result always satisfies the predicate (it is \p Input itself if
/// nothing smaller does). The passes run to a fixpoint, at most 10 rounds
/// over the pass list and 4000 predicate calls; when either budget runs out
/// the best program so far is returned.
lang::Program reduceProgram(const lang::Program &Input,
                            const Predicate &StillFails,
                            ReduceStats *Stats = nullptr);

/// Strips compile-option flags (unrolling, trace scheduling, locality,
/// estimated profile, non-default lowering/regalloc/balance settings) that
/// the failure does not need, returning the simplest options under which
/// \p StillFails still holds for \p P.
driver::CompileOptions reduceCompileOptions(const lang::Program &P,
                                            driver::CompileOptions Opts,
                                            const OptionsPredicate &StillFails,
                                            ReduceStats *Stats = nullptr);

} // namespace fuzz
} // namespace bsched

#endif // BALSCHED_FUZZ_REDUCE_H
