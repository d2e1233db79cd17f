//===- driver/Workloads.h - The Table-1 workload analogues ------*- C++ -*-===//
///
/// \file
/// Seventeen synthetic kernels standing in for the paper's Perfect Club and
/// SPEC92 programs (Table 1). The originals are proprietary Fortran/C codes;
/// each analogue is written in the kernel language and engineered to exhibit
/// the behaviour the paper reports for its namesake — which loops unroll,
/// where register pressure bites, which programs are dominated by fixed
/// latency interlocks, where locality analysis applies, and so on. See
/// DESIGN.md section 4 for the per-kernel intent.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_WORKLOADS_H
#define BALSCHED_DRIVER_WORKLOADS_H

#include "lang/AST.h"

#include <string>
#include <vector>

namespace bsched {
namespace driver {

struct Workload {
  const char *Name;        ///< the paper benchmark this one mirrors.
  const char *Language;    ///< the original's language ("Fortran" / "C").
  const char *Description; ///< Table-1 description of the original.
  const char *Behaviour;   ///< what the analogue is engineered to do.
  const char *Source;      ///< kernel-language text.
};

/// The full 17-kernel workload, in the paper's Table-1 order.
const std::vector<Workload> &workloads();

/// Looks a workload up by name; nullptr if unknown.
const Workload *findWorkload(const std::string &Name);

/// Parses and checks a workload's source (aborts the process on error —
/// workload sources are compiled-in constants validated by the test suite).
lang::Program parseWorkload(const Workload &W);

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_WORKLOADS_H
