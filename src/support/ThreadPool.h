//===- support/ThreadPool.h - The guided parallel loop ----------*- C++ -*-===//
///
/// \file
/// The project's one parallel loop: parallelForChunked runs Fn(0) ..
/// Fn(Count-1) on a few threads, its caller among them, each draining
/// shrinking chunks of the index range from a shared cursor (guided
/// self-scheduling, chunk size remaining / 2T), so early imbalance is
/// absorbed by later, smaller grabs. Iterations must be independent — the
/// loop provides no ordering between them — and determinism is the
/// iterations' job: every compile in this codebase is a pure function of its
/// inputs (per-compile RNG streams, no shared mutable state), and callers
/// write results by index, so results are identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_THREADPOOL_H
#define BALSCHED_SUPPORT_THREADPOOL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace bsched {

struct ThreadPool {
  ThreadPool() = delete;

  /// The most threads a command-line `--threads` flag may ask for.
  static constexpr unsigned MaxThreads = 1024;

  /// The workers parallelForChunked (the calling thread among them) uses for
  /// \p Count indices on \p NumThreads threads (0 = one per hardware
  /// thread): never more than there are indices, so a large request costs
  /// no idle threads.
  static unsigned workersFor(unsigned NumThreads, size_t Count);

  /// Runs Fn(0) .. Fn(Count-1) on \p NumThreads threads (at most Count) and
  /// waits for all of them. The calling thread is worker 0 and starts on its
  /// share at once; the other workers are threads started with their share
  /// already assigned. No index waits on a task queue or on waking a
  /// sleeping worker, and all scheduling after the start is a relaxed
  /// fetch_add on the chunk cursor: for microsecond iterations (a memoized
  /// lookup, a store load) such hand-offs would be much of the loop's time.
  /// Each worker calls its own copy of \p Fn. With one worker the loop runs
  /// inline, and a PhaseRecorder active on the calling thread records
  /// worker 0's share.
  template <typename FnT>
  static void parallelForChunked(unsigned NumThreads, size_t Count, FnT Fn) {
    if (Count == 0)
      return;
    unsigned T = workersFor(NumThreads, Count);
    std::atomic<size_t> Cursor{0};
    // The chunk size is computed from a possibly-stale remaining count,
    // which is harmless: the fetch_add is the only claim, and the tail
    // clamps to Count.
    auto Work = [Fn, Count, T, Next = &Cursor] {
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
    // jthreads join on destruction, so the helpers are joined before Cursor
    // goes away even if worker 0's share throws.
    std::vector<std::jthread> Helpers;
    Helpers.reserve(T - 1);
    for (unsigned W = 1; W != T; ++W)
      Helpers.emplace_back(Work); // the thread keeps a copy of Work.
    Work();
  }
};

} // namespace bsched

#endif // BALSCHED_SUPPORT_THREADPOOL_H
