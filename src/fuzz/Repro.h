//===- fuzz/Repro.h - Reduced-failure repro files ---------------*- C++ -*-===//
///
/// \file
/// The on-disk exchange format between the fuzzer and the regression suite:
/// one self-contained text file holding the failure classification, the
/// compile options, the machine-model tag (for simulator failures) and the
/// reduced kernel-language source. bsched-fuzz writes these into its corpus
/// directory; files promoted into tests/corpus/ are replayed by
/// corpus_test.cpp as ordinary gtests, so every reduced bug becomes a
/// permanent regression test by a `cp`.
///
/// Format (line-oriented, '#' comments ignored):
///
///   kind: sim-twin-divergence
///   machine: starved
///   detail: MshrStallCycles fast=12 ref=13
///   option unroll 8
///   option trace 1
///   ---
///   array a0[16] output;
///   ...
///
/// The `machine:` tag must be one fuzz::machineByTag() knows. There is
/// one `option <name> <value>` line per CompileOptions field that differs
/// from its default. The names and the field order come from the field lists
/// in driver/JobFields.h, which cover every field:
///
///   scheduler unroll trace estprofile locality cleanup stopbeforeregalloc
///   verify weightcap respecthits pressure balancefixed impl exactnodes
///   exactexpansions exactloadlatency ifconv strengthred allocatable
///   traceimpl
///
/// Values: `scheduler` is traditional|balanced|hybrid, `impl` is
/// fast|reference|exact, `traceimpl` is fast|reference, switches are 0|1,
/// and numbers are written in the shortest form that reads back exactly.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_FUZZ_REPRO_H
#define BALSCHED_FUZZ_REPRO_H

#include "driver/Compiler.h"

#include <string>

namespace bsched {
namespace fuzz {

struct Repro {
  std::string Kind;       ///< failureKindName() of the original failure.
  std::string Detail;     ///< free-text: first differing field, etc.
  std::string MachineTag; ///< machineByTag() name; "" = compile-side repro.
  driver::CompileOptions Options;
  std::string Source;     ///< kernel-language text.
};

/// Serializes \p R (only non-default options are written).
std::string writeRepro(const Repro &R);

/// Parses \p Text. Returns true on success; on failure \p Err names the
/// offending line.
bool parseRepro(const std::string &Text, Repro &Out, std::string &Err);

} // namespace fuzz
} // namespace bsched

#endif // BALSCHED_FUZZ_REPRO_H
