//===- bench/Suite.cpp - Suite registry and BENCH JSON support --------------===//

#include "Suite.h"

#include "BenchCommon.h"
#include "support/CodeVersion.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

using namespace bsched;
using namespace bsched::bench;

int bench::captureStdout(int (*Fn)(), std::string &Captured) {
  Captured.clear();
  std::fflush(stdout);
  int SavedFd = ::dup(STDOUT_FILENO);
  if (SavedFd < 0)
    return 1;

  std::string Path = "/tmp/bsched-suite-capture." +
                     std::to_string(static_cast<unsigned long>(::getpid()));
  std::FILE *Tmp = std::fopen(Path.c_str(), "w+");
  if (!Tmp) {
    ::close(SavedFd);
    return 1;
  }
  // Unlink immediately: the fd keeps the bytes alive, nothing leaks on any
  // exit path.
  ::unlink(Path.c_str());
  if (::dup2(::fileno(Tmp), STDOUT_FILENO) < 0) {
    std::fclose(Tmp);
    ::close(SavedFd);
    return 1;
  }

  int Rc = Fn();

  std::fflush(stdout);
  ::dup2(SavedFd, STDOUT_FILENO);
  ::close(SavedFd);

  std::fseek(Tmp, 0, SEEK_END);
  long Len = std::ftell(Tmp);
  if (Len > 0) {
    Captured.resize(static_cast<size_t>(Len));
    std::fseek(Tmp, 0, SEEK_SET);
    size_t Read = std::fread(Captured.data(), 1, Captured.size(), Tmp);
    Captured.resize(Read);
  }
  std::fclose(Tmp);
  return Rc;
}

std::string bench::benchJsonHead(const char *Schema, unsigned Threads) {
  return std::string("{\n  \"schema\": \"") + Schema + "\",\n" +
         "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n" +
         "  \"threads\": " + std::to_string(Threads) + ",\n" +
         "  \"build_type\": \"" + BSCHED_BUILD_TYPE + "\",\n" +
         "  \"code_version\": \"" + std::string(codeVersion()) + "\",\n";
}

bool bench::writeBenchJson(const std::string &Path, const std::string &Json) {
  std::ofstream Out(Path);
  Out << Json;
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", Path.c_str());
    return false;
  }
  std::printf("wrote %s\n", Path.c_str());
  return true;
}

std::string bench::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n') {
      Out += "\\n";
      continue;
    }
    Out += C;
  }
  return Out;
}

std::vector<std::pair<std::string, double>>
bench::readBaseline(const std::string &Path) {
  std::vector<std::pair<std::string, double>> Entries;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "FATAL: cannot read baseline %s\n", Path.c_str());
    std::exit(1);
  }
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Q0 = Line.find('"');
    if (Q0 == std::string::npos)
      continue;
    size_t Q1 = Line.find('"', Q0 + 1);
    size_t Colon = Line.find(':', Q1);
    if (Q1 == std::string::npos || Colon == std::string::npos)
      continue;
    double V = std::atof(Line.c_str() + Colon + 1);
    if (V > 0)
      Entries.emplace_back(Line.substr(Q0 + 1, Q1 - Q0 - 1), V);
  }
  return Entries;
}
