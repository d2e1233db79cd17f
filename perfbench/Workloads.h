//===- perfbench/Workloads.h - The benchmark's job lists --------*- C++ -*-===//
///
/// \file
/// Inputs of the three workloads: the paper suite's deduplicated job grid
/// and table emitters (the same ones bsched-suite runs), and seeded
/// generated programs under a frozen list of compile configurations.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Suite.h"

#include "driver/Experiment.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Every suite table in canonical order, or only those named in \p Only.
/// Returns false (with \p Error set) on an unknown name.
bool suiteTables(const std::vector<std::string> &Only,
                 std::vector<bsched::bench::SuiteTable> &Out,
                 std::string &Error);

/// The tables' job grids deduplicated by resultKey in first-seen order (the
/// order bsched-suite dispatches); \p TotalJobs receives the grid size.
std::vector<bsched::driver::ExperimentJob>
uniqueSuiteJobs(const std::vector<bsched::bench::SuiteTable> &Tables,
                size_t &TotalJobs);

/// Runs \p Fn with stdout redirected into \p Out (fd level, so the tables'
/// C stdio is included). Unlike bench::captureStdout, which spools through
/// a file under /tmp, the bytes go to a memfd: the benchmark reads and
/// writes nothing outside its checkout. Returns false if the redirection
/// could not be set up.
bool captureStdout(int (*Fn)(), std::string &Out, int &ExitCode);

/// Pinned output FNV per table, read from lines "<table> <16 hex digits>".
bool readPins(const std::string &Path, std::map<std::string, uint64_t> &Out,
              std::string &Error);

/// The 14 compile configurations fuzz::differentialCompileConfigs()
/// returned when this benchmark was defined, frozen so that gen_verify's
/// load does not move when the fuzzer's list does.
std::vector<bsched::driver::CompileOptions> genCompileConfigs();

/// One generated program, printed to kernel-language text so the driver
/// parses it like any workload, with its oracle checksum.
struct GenProgram {
  std::string Name;
  std::string Source;
  uint64_t Checksum = 0;
  uint64_t Stmts = 0; ///< statements the oracle executed.
};

/// Generator seeds are drawn from [0, GenUniverse), a range checked once
/// with every config; the seeds on which some config crashed the compiler
/// at the time are listed in a skip file (perfbench/gen_skip.txt).
constexpr uint64_t GenUniverse = 9000;

/// Reads the skip file: one generator seed per line, '#' starts a comment.
bool readSkips(const std::string &Path, std::set<uint64_t> &Out,
               std::string &Error);

/// Takes \p Count generator seeds from (\p Window x \p Count) mod
/// GenUniverse upwards (wrapping, skipping \p Skip), generates each with
/// lang::generateProgram, prints it, re-parses and evaluates it, on
/// \p Threads pool workers. \p GenerateNs receives the time spent in
/// generateProgram alone, summed over the programs. Returns false (with
/// \p Error set) if any program does not survive the round trip.
bool makeGenPrograms(uint64_t Window, unsigned Count,
                     const std::set<uint64_t> &Skip, unsigned Threads,
                     std::vector<GenProgram> &Out, uint64_t &GenerateNs,
                     std::string &Error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
