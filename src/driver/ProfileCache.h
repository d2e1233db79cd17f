//===- driver/ProfileCache.h - Memoized profiling runs ----------*- C++ -*-===//
///
/// \file
/// Content-keyed memoization of the profiling interpreter. The profile that
/// guides trace scheduling depends only on the laid-out module — not on the
/// scheduler, balance options, or machine model — yet every experiment sweep
/// (and every benchmark repetition) recompiles the same workload under many
/// scheduler configurations, re-running the same multi-million-instruction
/// profiling interpretation each time. This cache keys the InterpResult on a
/// hash of exactly the module state the interpreter reads (opcodes, operand
/// registers, immediates, memory operands, control-flow targets, the memory
/// layout, and the output arrays that feed the checksum), so a recompile of
/// an unchanged module reuses its profile bit-for-bit.
///
/// This is the same discipline as driver::runCached one layer down: results
/// are identical with or without the cache, only the time to obtain them
/// changes. The reference pipeline (sched::SchedImpl::Reference) bypasses it
/// and always re-runs the seed interpreter, so fast-vs-reference end-to-end
/// comparisons stay honest.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_PROFILECACHE_H
#define BALSCHED_DRIVER_PROFILECACHE_H

#include "ir/Interp.h"
#include "support/ShardedMemo.h"

#include <cstdint>

namespace bsched {
namespace driver {

/// Returns ir::interpret(M, MaxInstrs), memoized on the module's
/// execution-relevant content. Thread-safe; results are bit-identical to an
/// uncached run.
///
/// The cache is a bounded support/ShardedMemo: concurrent compiles of
/// unrelated modules never serialize on one lock, and the first miss on a
/// key interprets while later arrivals for the same key block on that one
/// computation instead of redundantly re-interpreting (profiling is the
/// most expensive phase of a cold trace-scheduled compile, so a thundering
/// herd on one hot module would otherwise multiply it by the worker count).
ir::InterpResult profileModule(const ir::Module &M,
                               uint64_t MaxInstrs = 1000000000ull);

/// Returns trace::estimateProfile(M.Fn), memoized alongside the interpreted
/// profiles but under a kind-salted key: an estimated profile must never be
/// served from (or stored into) a slot an interpreted profile of the same
/// module could hit, since the two disagree on counts by design. The key also
/// covers the per-block ExactTripCount annotations the estimator consumes.
ir::InterpResult estimatedProfileModule(const ir::Module &M);

/// Cache observability for benchmarks and tests, aggregated over shards.
using ProfileCacheStats = MemoStats;
ProfileCacheStats profileCacheStats();

/// Drops every cached profile and zeroes the counters (tests use this to
/// measure cold behaviour).
void clearProfileCache();

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_PROFILECACHE_H
