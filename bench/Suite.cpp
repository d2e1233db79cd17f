//===- bench/Suite.cpp - Suite registry support -----------------------------===//

#include "Suite.h"

#include <cstdio>
#include <string>

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
