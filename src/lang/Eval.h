//===- lang/Eval.h - Reference AST evaluator --------------------*- C++ -*-===//
///
/// \file
/// Reference evaluator for kernel-language programs. It is the independent
/// oracle for the whole pipeline: lowering, every ILP transform, trace
/// scheduling and register allocation must all preserve the program
/// checksum this evaluator computes (it matches ir::interpret bit for bit:
/// same zero-initialized memory, same FNV-1a over the output arrays).
///
/// Each call binds the program's names once, into a flat register code of
/// its own, and then runs that code. It shares nothing with lower/, the IR
/// interpreter or the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_LANG_EVAL_H
#define BALSCHED_LANG_EVAL_H

#include "lang/AST.h"

#include <cstdint>
#include <string>

namespace bsched {
namespace lang {

struct EvalResult {
  uint64_t Checksum = 0;
  /// Statements executed (loop-iteration proxy); a `for` or `if` counts
  /// once, plus its body's statements each time they run. Defined only when
  /// ok().
  uint64_t StmtCount = 0;
  std::string Error; ///< empty on success.

  bool ok() const { return Error.empty(); }
};

/// Evaluates \p P (which must have passed checkProgram) with zero-initialized
/// arrays and returns the output-array checksum. Fails if the arrays are too
/// large (checkArraySizes), else with the first error in execution order:
/// an out-of-bounds subscript, an unknown name (only an unchecked program
/// has one, and it fails only if executed), or running more than
/// \p MaxStmts statements. The right-hand side of an assignment
/// runs before its subscripts, subscripts run left to right, and `&&` and
/// `||` evaluate both operands.
EvalResult evalProgram(const Program &P, uint64_t MaxStmts = 500000000ull);

} // namespace lang
} // namespace bsched

#endif // BALSCHED_LANG_EVAL_H
