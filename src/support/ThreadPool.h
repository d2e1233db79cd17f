//===- support/ThreadPool.h - Minimal fixed-size thread pool ----*- C++ -*-===//
///
/// \file
/// A small fixed-size worker pool for the parallel compilation pipeline:
/// submit() enqueues a task, wait() blocks until every submitted task has
/// finished. Tasks must be independent — the pool provides no ordering
/// between them — and determinism is the *tasks'* job: every compile in this
/// codebase is a pure function of its inputs (per-compile RNG streams,
/// no shared mutable state), so results are identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_THREADPOOL_H
#define BALSCHED_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bsched {

/// How parallelForChunked carves an index range into per-worker batches.
///
/// Static hands every worker one contiguous slice up front (lowest dispatch
/// cost, best when iterations are uniform); Guided hands out shrinking
/// chunks from a shared cursor (remaining / 2T, never below a small
/// minimum), so early imbalance is absorbed by later, smaller grabs — the
/// trade-off analyzed in "OpenMP Loop Scheduling Revisited". Either way an
/// index is executed exactly once, and callers that write results by index
/// get output independent of the policy and the worker count.
enum class ChunkPolicy { Static, Guided };

class ThreadPool {
public:
  /// Creates \p NumThreads workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned NumThreads = 0);
  /// Waits for pending tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

  /// The workers parallelFor and parallelForChunked (the calling thread
  /// among them) use for \p Count indices on \p NumThreads threads (0 = one
  /// per hardware thread): never more than there are indices, so a large
  /// request costs no idle threads.
  static unsigned workersFor(unsigned NumThreads, size_t Count);

  /// Enqueues \p Task. Safe to call from any thread, including from inside
  /// a running task.
  void submit(std::function<void()> Task);

  /// Blocks until every task submitted so far has completed.
  void wait();

  /// Runs Fn(0) .. Fn(Count-1) on \p NumThreads workers (at most Count) and
  /// waits for all of them. Convenience for the "compile every job of an
  /// experiment" pattern; with NumThreads == 1 the work still flows through
  /// a single worker, so code paths match the parallel case exactly.
  template <typename FnT>
  static void parallelFor(unsigned NumThreads, size_t Count, FnT Fn) {
    if (Count == 0)
      return;
    ThreadPool Pool(workersFor(NumThreads, Count));
    for (size_t I = 0; I != Count; ++I)
      Pool.submit([Fn, I] { Fn(I); });
    Pool.wait();
  }

  /// Runs Fn(0) .. Fn(Count-1) on \p NumThreads threads (at most Count),
  /// each draining chunks of the index range per \p Policy, and waits for
  /// all of them. The calling thread is worker 0 and starts on its share at
  /// once; the other workers are threads started with their share already
  /// assigned. No index waits on a task queue or on waking a sleeping
  /// worker, and all scheduling after the start is a relaxed fetch_add on
  /// the chunk cursor: for microsecond iterations (a memoized lookup, a
  /// store load) such hand-offs would be much of the loop's time. Each
  /// worker calls its own copy of \p Fn. With one worker the loop runs
  /// inline, and a PhaseRecorder active on the calling thread records
  /// worker 0's share.
  template <typename FnT>
  static void parallelForChunked(unsigned NumThreads, size_t Count, FnT Fn,
                                 ChunkPolicy Policy = ChunkPolicy::Guided) {
    if (Count == 0)
      return;
    unsigned T = workersFor(NumThreads, Count);
    std::atomic<size_t> Cursor{0};
    auto Work = [Fn, Policy, Count, T, Next = &Cursor](unsigned W) {
      if (Policy == ChunkPolicy::Static) {
        // Balanced contiguous slices: the first Count % T workers take one
        // extra index, so slice sizes differ by at most one (and, as T <=
        // Count, none is empty).
        size_t Base = Count / T, Extra = Count % T;
        size_t Start = W * Base + std::min<size_t>(W, Extra);
        size_t End = Start + Base + (W < Extra ? 1 : 0);
        for (size_t I = Start; I != End; ++I)
          Fn(I);
        return;
      }
      // Guided: shrinking grabs from a shared cursor. The chunk size is
      // computed from a possibly-stale remaining count, which is harmless:
      // the fetch_add is the only claim, and the tail clamps to Count.
      for (;;) {
        size_t Seen = Next->load(std::memory_order_relaxed);
        if (Seen >= Count)
          return;
        size_t Chunk = std::max<size_t>(1, (Count - Seen) / (2 * T));
        size_t Start = Next->fetch_add(Chunk, std::memory_order_relaxed);
        if (Start >= Count)
          return;
        size_t End = std::min(Count, Start + Chunk);
        for (size_t I = Start; I != End; ++I)
          Fn(I);
      }
    };
    std::vector<std::thread> Helpers;
    Helpers.reserve(T - 1);
    for (unsigned W = 1; W != T; ++W)
      Helpers.emplace_back(Work, W); // the thread keeps a copy of Work.
    Work(0);
    for (std::thread &H : Helpers)
      H.join();
  }

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable; ///< signalled on submit/stop.
  std::condition_variable AllDone;       ///< signalled when Outstanding hits 0.
  size_t Outstanding = 0;                ///< queued + currently running tasks.
  bool Stopping = false;
};

} // namespace bsched

#endif // BALSCHED_SUPPORT_THREADPOOL_H
