//===- support/ThreadPool.cpp - Minimal fixed-size thread pool --------------===//

#include "support/ThreadPool.h"

#include <algorithm>

using namespace bsched;

static unsigned resolveThreads(unsigned NumThreads) {
  return NumThreads ? NumThreads
                    : std::max(1u, std::thread::hardware_concurrency());
}

unsigned ThreadPool::workersFor(unsigned NumThreads, size_t Count) {
  size_t Threads = resolveThreads(NumThreads);
  return static_cast<unsigned>(std::clamp<size_t>(Count, 1, Threads));
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  NumThreads = resolveThreads(NumThreads);
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
    ++Outstanding;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Outstanding == 0; });
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      if (--Outstanding == 0)
        AllDone.notify_all();
    }
  }
}
