//===- lang/Generate.h - Random kernel-program generator --------*- C++ -*-===//
///
/// \file
/// Deterministic random generator of well-formed kernel-language programs,
/// used for property-based differential testing: any generated program must
/// compile under every configuration to code whose simulated output matches
/// the AST evaluator's, bit for bit.
///
/// Generated programs are constructed to terminate quickly (bounded loop
/// nests with literal-bounded trip counts) and to stay in bounds (subscripts
/// are clamped affine forms of the loop variables or reads of index arrays
/// filled with in-range values).
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_LANG_GENERATE_H
#define BALSCHED_LANG_GENERATE_H

#include "lang/AST.h"

#include <cstdint>

namespace bsched {
namespace lang {

/// Generates a checked program from \p Seed. Same seed, same program.
Program generateProgram(uint64_t Seed);

} // namespace lang
} // namespace bsched

#endif // BALSCHED_LANG_GENERATE_H
