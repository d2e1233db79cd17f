//===- support/ThreadPool.cpp - The guided parallel loop ------------------===//

#include "support/ThreadPool.h"

using namespace bsched;

unsigned ThreadPool::workersFor(unsigned NumThreads, size_t Count) {
  size_t Threads = NumThreads;
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::clamp<size_t>(Count, 1, Threads));
}
