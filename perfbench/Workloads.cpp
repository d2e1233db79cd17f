//===- perfbench/Workloads.cpp - The benchmark's job lists ----------------===//

#include "Workloads.h"

#include "Spans.h"

#include "lang/Eval.h"
#include "lang/Generate.h"
#include "lang/Parser.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include <sys/mman.h>
#include <unistd.h>

using namespace bsched;
using namespace bsched::driver;
using namespace perfbench;

BSCHED_SUITE_ALL_TABLES(BSCHED_SUITE_DECLARE)

bool perfbench::suiteTables(const std::vector<std::string> &Only,
                            std::vector<bench::SuiteTable> &Out,
                            std::string &Error) {
  std::vector<bench::SuiteTable> All;
#define PERFBENCH_COLLECT(NAME) All.push_back(bsched_suite_table_##NAME());
  BSCHED_SUITE_ALL_TABLES(PERFBENCH_COLLECT)
#undef PERFBENCH_COLLECT
  if (Only.empty()) {
    Out = std::move(All);
    return true;
  }
  Out.clear();
  for (const std::string &Name : Only) {
    bool Found = false;
    for (const bench::SuiteTable &T : All)
      if (T.Name == Name) {
        Out.push_back(T);
        Found = true;
      }
    if (!Found) {
      Error = "unknown table: " + Name;
      return false;
    }
  }
  return true;
}

std::vector<ExperimentJob>
perfbench::uniqueSuiteJobs(const std::vector<bench::SuiteTable> &Tables,
                           size_t &TotalJobs) {
  std::vector<ExperimentJob> Unique;
  std::unordered_set<std::string> Seen;
  TotalJobs = 0;
  for (const bench::SuiteTable &T : Tables) {
    std::vector<ExperimentJob> Jobs = T.Jobs();
    TotalJobs += Jobs.size();
    for (ExperimentJob &J : Jobs)
      if (Seen.insert(resultKey(*J.W, J.Opts, J.Machine)).second)
        Unique.push_back(std::move(J));
  }
  return Unique;
}

bool perfbench::captureStdout(int (*Fn)(), std::string &Out, int &ExitCode) {
  Out.clear();
  std::fflush(stdout);
  int Mem = ::memfd_create("perfbench-capture", 0);
  if (Mem < 0)
    return false;
  int Saved = ::dup(STDOUT_FILENO);
  if (Saved < 0 || ::dup2(Mem, STDOUT_FILENO) < 0) {
    if (Saved >= 0)
      ::close(Saved);
    ::close(Mem);
    return false;
  }
  ExitCode = Fn();
  std::fflush(stdout);
  ::dup2(Saved, STDOUT_FILENO);
  ::close(Saved);

  off_t Len = ::lseek(Mem, 0, SEEK_END);
  bool Ok = Len >= 0;
  if (Ok && Len > 0) {
    Out.resize(static_cast<size_t>(Len));
    Ok = ::pread(Mem, Out.data(), Out.size(), 0) == static_cast<ssize_t>(Len);
  }
  ::close(Mem);
  return Ok;
}

bool perfbench::readPins(const std::string &Path,
                         std::map<std::string, uint64_t> &Out,
                         std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Name, Hex;
    if (!(Fields >> Name >> Hex) || Hex.size() != 16 ||
        Hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      Error = Path + ": malformed line: " + Line;
      return false;
    }
    Out[Name] = std::stoull(Hex, nullptr, 16);
  }
  return true;
}

std::vector<CompileOptions> perfbench::genCompileConfigs() {
  std::vector<CompileOptions> Cs;
  for (auto Kind : {sched::SchedulerKind::Traditional,
                    sched::SchedulerKind::Balanced}) {
    auto Add = [&](int LU, bool TrS, bool LA) {
      CompileOptions O;
      O.Scheduler = Kind;
      O.UnrollFactor = LU;
      O.TraceScheduling = TrS;
      O.LocalityAnalysis = LA;
      Cs.push_back(O);
    };
    Add(1, false, false);
    Add(4, false, false);
    Add(8, true, true);
  }
  CompileOptions Est;
  Est.TraceScheduling = true;
  Est.UseEstimatedProfile = true;
  Est.UnrollFactor = 4;
  Cs.push_back(Est);
  CompileOptions Hy;
  Hy.Scheduler = sched::SchedulerKind::Hybrid;
  Cs.push_back(Hy);
  CompileOptions Plain;
  Plain.Lower.StrengthReduction = false;
  Plain.Lower.IfConversion = false;
  Cs.push_back(Plain);
  CompileOptions Tight;
  Tight.UnrollFactor = 4;
  Tight.RegAlloc.AllocatablePerClass = 6;
  Cs.push_back(Tight);
  CompileOptions Spill;
  Spill.UnrollFactor = 8;
  Spill.TraceScheduling = true;
  Spill.RegAlloc.AllocatablePerClass = 4;
  Cs.push_back(Spill);
  CompileOptions Big;
  Big.UnrollFactor = 8;
  Big.TraceScheduling = true;
  Big.Balance.BalanceFixedOps = true;
  Cs.push_back(Big);
  CompileOptions TraceHostile;
  TraceHostile.TraceScheduling = true;
  TraceHostile.Lower.IfConversion = false;
  Cs.push_back(TraceHostile);
  CompileOptions CompactHostile;
  CompactHostile.UnrollFactor = 8;
  CompactHostile.TraceScheduling = true;
  CompactHostile.Lower.IfConversion = true;
  CompactHostile.Balance.BalanceFixedOps = true;
  CompactHostile.Balance.PressureThreshold = 0;
  Cs.push_back(CompactHostile);
  // Every entry keeps the CompileOptions default VerifyPasses = true.
  return Cs;
}

bool perfbench::readSkips(const std::string &Path, std::set<uint64_t> &Out,
                          std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line.substr(0, Line.find('#')));
    uint64_t Seed;
    if (Fields >> Seed)
      Out.insert(Seed);
  }
  return true;
}

bool perfbench::makeGenPrograms(uint64_t Window, unsigned Count,
                                const std::set<uint64_t> &Skip,
                                unsigned Threads, std::vector<GenProgram> &Out,
                                uint64_t &GenerateNs, std::string &Error) {
  if (Count + Skip.size() > GenUniverse) {
    Error = "more generated programs than the seed universe holds";
    return false;
  }
  std::vector<uint64_t> Seeds(Count);
  uint64_t Seed = (Window % GenUniverse) * Count % GenUniverse;
  for (uint64_t &S : Seeds) {
    while (Skip.count(Seed))
      Seed = (Seed + 1) % GenUniverse;
    S = Seed;
    Seed = (Seed + 1) % GenUniverse;
  }

  Out.assign(Count, GenProgram());
  std::vector<uint64_t> GenNs(Count);
  std::vector<std::string> Errors(Count);
  ThreadPool::parallelForChunked(Threads, Count, [&](size_t I) {
    GenProgram &G = Out[I];
    G.Name = "gen" + std::to_string(Seeds[I]);
    uint64_t T0 = nowNs();
    lang::Program P = lang::generateProgram(Seeds[I]);
    GenNs[I] = nowNs() - T0;
    G.Source = lang::printProgram(P);
    lang::ParseResult PR = lang::parseProgram(G.Source, G.Name);
    std::string E = PR.ok() ? lang::checkProgram(PR.Prog) : PR.Error;
    lang::EvalResult Ev;
    if (E.empty()) {
      Ev = lang::evalProgram(PR.Prog);
      E = Ev.Error;
    }
    if (!E.empty())
      Errors[I] = G.Name + ": " + E;
    G.Checksum = Ev.Checksum;
    G.Stmts = Ev.StmtCount;
  });

  GenerateNs = 0;
  for (uint64_t Ns : GenNs)
    GenerateNs += Ns;
  for (const std::string &E : Errors)
    if (!E.empty()) {
      Error = E;
      return false;
    }
  return true;
}
