//===- perfbench/Compose.h - A job composed layer by layer ------*- C++ -*-===//
///
/// \file
/// The traced run does not time driver::runWorkload from inside; it calls
/// the same layer functions in the same order from here and wraps each call
/// in a span. The composition is only worth its numbers while it stays the
/// real pipeline, so every composed result is encoded and compared byte for
/// byte against the RunResult the driver produced for the same job (the
/// drift guard); any difference fails the run. Equal bytes do not prove
/// equal work, so main.cpp also compares the traced and untraced job phases.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMPOSE_H
#define PERFBENCH_COMPOSE_H

#include "Spans.h"

#include "driver/Experiment.h"

#include <string>

namespace perfbench {

/// driver::runWorkload(W, Opts, Machine), one span per layer call.
bsched::driver::RunResult
composeJob(const bsched::driver::Workload &W,
           const bsched::driver::CompileOptions &Opts,
           const bsched::sim::MachineConfig &Machine, JobTrace &T);

/// The disk tier of driver::runCached for \p Key: loadArtifact, then decode.
/// Returns false if the store did not yield a decodable artifact.
bool composeStoredJob(const std::string &Key, bsched::driver::RunResult &Out,
                      JobTrace &T);

/// driver::encode of \p R with the trace core's wall-clock phase timers
/// zeroed: those four fields time the run rather than describe its result,
/// so two correct runs of one job differ only there.
std::string normalizedBytes(const bsched::driver::RunResult &R);

} // namespace perfbench

#endif // PERFBENCH_COMPOSE_H
