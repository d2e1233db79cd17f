//===- driver/JobFields.h - Field lists of a job's inputs and results -*- C++ -*-===//
///
/// \file
/// Every field of a job's inputs (compile options, machine model) and of its
/// results (the compiled module's statistics, the simulated statistics, the
/// memoized cell), listed once: one fieldList overload per struct names each
/// member and its member pointer, in declaration order. forEachLeaf refuses
/// a struct whose list misses one of its members, so a new field is one line
/// in its list and everything generated from the lists sees it:
///  - resultKey writes every input leaf as fixed-width bytes;
///  - the repro format (fuzz/Repro.h) spells every CompileOptions leaf by
///    its name, so those names are unique and stable;
///  - the artifact codec (driver/Artifacts.cpp) encodes every result leaf;
///  - firstDifference names the first result leaf two values disagree on.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_JOBFIELDS_H
#define BALSCHED_DRIVER_JOBFIELDS_H

#include "driver/Artifacts.h"

#include <array>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

namespace bsched {
namespace driver {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

template <typename F> constexpr void fieldList(CompileOptions *, F &&Field) {
  using T = CompileOptions;
  Field("scheduler", &T::Scheduler);
  Field("unroll", &T::UnrollFactor);
  Field("trace", &T::TraceScheduling);
  Field("estprofile", &T::UseEstimatedProfile);
  Field("locality", &T::LocalityAnalysis);
  Field("cleanup", &T::CleanupIR);
  Field("stopbeforeregalloc", &T::StopBeforeRegAlloc);
  Field("verify", &T::VerifyPasses);
  Field("balance", &T::Balance);
  Field("lower", &T::Lower);
  Field("regalloc", &T::RegAlloc);
  Field("traceimpl", &T::TraceImpl);
}

template <typename F>
constexpr void fieldList(sched::BalanceOptions *, F &&Field) {
  using T = sched::BalanceOptions;
  Field("weightcap", &T::WeightCap);
  Field("respecthits", &T::RespectHitAnnotations);
  Field("pressure", &T::PressureThreshold);
  Field("balancefixed", &T::BalanceFixedOps);
  Field("impl", &T::Impl);
  Field("exact", &T::Exact);
}

template <typename F>
constexpr void fieldList(sched::exact::ExactOptions *, F &&Field) {
  using T = sched::exact::ExactOptions;
  Field("exactnodes", &T::MaxNodes);
  Field("exactexpansions", &T::MaxExpansions);
  Field("exactloadlatency", &T::LoadLatency);
}

template <typename F>
constexpr void fieldList(lower::LowerOptions *, F &&Field) {
  Field("ifconv", &lower::LowerOptions::IfConversion);
  Field("strengthred", &lower::LowerOptions::StrengthReduction);
}

template <typename F>
constexpr void fieldList(regalloc::RegAllocOptions *, F &&Field) {
  Field("allocatable", &regalloc::RegAllocOptions::AllocatablePerClass);
}

template <typename F>
constexpr void fieldList(sim::MachineConfig *, F &&Field) {
  using T = sim::MachineConfig;
  Field("l1d", &T::L1D);
  Field("l1i", &T::L1I);
  Field("l2", &T::L2);
  Field("l3", &T::L3);
  Field("memlatency", &T::MemoryLatency);
  Field("mshrs", &T::NumMSHRs);
  Field("writebuffer", &T::WriteBufferEntries);
  Field("dtlb", &T::DTlbEntries);
  Field("itlb", &T::ITlbEntries);
  Field("pagesize", &T::PageSize);
  Field("tlbrefill", &T::TlbRefillLatency);
  Field("predictor", &T::BranchPredictorEntries);
  Field("mispredict", &T::BranchMispredictPenalty);
  Field("issuewidth", &T::IssueWidth);
  Field("perfectfrontend", &T::PerfectFrontEnd);
  Field("simple", &T::SimpleModel);
  Field("simplehitrate", &T::SimpleHitRate);
  Field("simplemisslatency", &T::SimpleMissLatency);
  Field("impl", &T::Impl);
}

template <typename F> constexpr void fieldList(sim::CacheConfig *, F &&Field) {
  using T = sim::CacheConfig;
  Field("size", &T::SizeBytes);
  Field("line", &T::LineSize);
  Field("assoc", &T::Assoc);
  Field("latency", &T::Latency);
}

//===----------------------------------------------------------------------===//
// Results (named as in C++, the names firstDifference reports)
//===----------------------------------------------------------------------===//

/// Marks a leaf that reads the host's clock: two runs of one job never agree
/// on it. Such a leaf stays in the struct and in the artifact bytes, but
/// firstDifference skips it. TraceStats' four phase timers are the only
/// leaves so marked: the one exemption from result equality.
constexpr bool HostClock = true;

template <typename F> constexpr void fieldList(sim::InstrCounts *, F &&Field) {
  using T = sim::InstrCounts;
  Field("ShortInt", &T::ShortInt);
  Field("LongInt", &T::LongInt);
  Field("ShortFp", &T::ShortFp);
  Field("LongFp", &T::LongFp);
  Field("Loads", &T::Loads);
  Field("Stores", &T::Stores);
  Field("Branches", &T::Branches);
  Field("Spills", &T::Spills);
  Field("Restores", &T::Restores);
}

template <typename F> constexpr void fieldList(sim::CacheStats *, F &&Field) {
  Field("Accesses", &sim::CacheStats::Accesses);
  Field("Misses", &sim::CacheStats::Misses);
}

template <typename F> constexpr void fieldList(sim::SimResult *, F &&Field) {
  using T = sim::SimResult;
  Field("Finished", &T::Finished);
  Field("Error", &T::Error);
  Field("Checksum", &T::Checksum);
  Field("Cycles", &T::Cycles);
  Field("Counts", &T::Counts);
  Field("LoadInterlockCycles", &T::LoadInterlockCycles);
  Field("FixedInterlockCycles", &T::FixedInterlockCycles);
  Field("ICacheStallCycles", &T::ICacheStallCycles);
  Field("ITlbStallCycles", &T::ITlbStallCycles);
  Field("DTlbStallCycles", &T::DTlbStallCycles);
  Field("BranchPenaltyCycles", &T::BranchPenaltyCycles);
  Field("MshrStallCycles", &T::MshrStallCycles);
  Field("WriteBufferStallCycles", &T::WriteBufferStallCycles);
  Field("L1D", &T::L1D);
  Field("L2", &T::L2);
  Field("L3", &T::L3);
  Field("L1I", &T::L1I);
  Field("DTlbMisses", &T::DTlbMisses);
  Field("ITlbMisses", &T::ITlbMisses);
  Field("BranchMispredicts", &T::BranchMispredicts);
}

template <typename F> constexpr void fieldList(ir::InterpResult *, F &&Field) {
  using T = ir::InterpResult;
  Field("Finished", &T::Finished);
  Field("Error", &T::Error);
  Field("DynInstrs", &T::DynInstrs);
  Field("Checksum", &T::Checksum);
  Field("BlockCounts", &T::BlockCounts);
  Field("EdgeCounts", &T::EdgeCounts);
}

template <typename F> constexpr void fieldList(xform::UnrollStats *, F &&Field) {
  using T = xform::UnrollStats;
  Field("LoopsConsidered", &T::LoopsConsidered);
  Field("LoopsUnrolled", &T::LoopsUnrolled);
  Field("LoopsFullyUnrolled", &T::LoopsFullyUnrolled);
  Field("LoopsSkippedBranches", &T::LoopsSkippedBranches);
  Field("LoopsSkippedSize", &T::LoopsSkippedSize);
}

template <typename F>
constexpr void fieldList(locality::LocalityStats *, F &&Field) {
  using T = locality::LocalityStats;
  Field("LoopsAnalyzed", &T::LoopsAnalyzed);
  Field("LoopsPeeled", &T::LoopsPeeled);
  Field("LoopsUnrolled", &T::LoopsUnrolled);
  Field("TemporalRefs", &T::TemporalRefs);
  Field("SpatialRefs", &T::SpatialRefs);
  Field("RefsNoInfo", &T::RefsNoInfo);
}

template <typename F> constexpr void fieldList(trace::TraceStats *, F &&Field) {
  using T = trace::TraceStats;
  Field("Traces", &T::Traces);
  Field("MultiBlockTraces", &T::MultiBlockTraces);
  Field("LongestTrace", &T::LongestTrace);
  Field("CompensationBlocks", &T::CompensationBlocks);
  Field("CompensationInstrs", &T::CompensationInstrs);
  Field("FormNs", &T::FormNs, HostClock);
  Field("CompactNs", &T::CompactNs, HostClock);
  Field("WeightsNs", &T::WeightsNs, HostClock);
  Field("CompensationNs", &T::CompensationNs, HostClock);
  Field("Formed", &T::Formed);
}

template <typename F>
constexpr void fieldList(regalloc::RegAllocStats *, F &&Field) {
  using T = regalloc::RegAllocStats;
  Field("IntRegsUsed", &T::IntRegsUsed);
  Field("FpRegsUsed", &T::FpRegsUsed);
  Field("SpilledVRegs", &T::SpilledVRegs);
  Field("SpillStores", &T::SpillStores);
  Field("RestoreLoads", &T::RestoreLoads);
  Field("Remats", &T::Remats);
  Field("Error", &T::Error);
}

template <typename F> constexpr void fieldList(opt::CleanupStats *, F &&Field) {
  using T = opt::CleanupStats;
  Field("CopiesPropagated", &T::CopiesPropagated);
  Field("ConstantsFolded", &T::ConstantsFolded);
  Field("Hoisted", &T::Hoisted);
  Field("DeadRemoved", &T::DeadRemoved);
  Field("Iterations", &T::Iterations);
  Field("LivenessFullComputes", &T::LivenessFullComputes);
  Field("LivenessIncrementalUpdates", &T::LivenessIncrementalUpdates);
  Field("BlocksSkipped", &T::BlocksSkipped);
}

template <typename F>
constexpr void fieldList(sched::exact::ExactStats *, F &&Field) {
  using T = sched::exact::ExactStats;
  Field("BlocksAttempted", &T::BlocksAttempted);
  Field("BlocksClosed", &T::BlocksClosed);
  Field("BlocksTimedOut", &T::BlocksTimedOut);
  Field("BlocksTooLarge", &T::BlocksTooLarge);
  Field("BlocksImproved", &T::BlocksImproved);
  Field("FastCycles", &T::FastCycles);
  Field("ExactCycles", &T::ExactCycles);
  Field("Expanded", &T::Expanded);
}

template <typename F> constexpr void fieldList(verify::Diagnostic *, F &&Field) {
  using T = verify::Diagnostic;
  Field("Kind", &T::Kind);
  Field("Block", &T::Block);
  Field("Instr", &T::Instr);
  Field("Message", &T::Message);
}

/// The module is one leaf: ir::Module has constructors, so it keeps its
/// hand-written codec.
template <typename F> constexpr void fieldList(CompileResult *, F &&Field) {
  using T = CompileResult;
  Field("M", &T::M);
  Field("Error", &T::Error);
  Field("Unroll", &T::Unroll);
  Field("Cleanup", &T::Cleanup);
  Field("Locality", &T::Locality);
  Field("Trace", &T::Trace);
  Field("RegAlloc", &T::RegAlloc);
  Field("Exact", &T::Exact);
  Field("VerifyDiags", &T::VerifyDiags);
}

template <typename F> constexpr void fieldList(RunResult *, F &&Field) {
  using T = RunResult;
  Field("Error", &T::Error);
  Field("Sim", &T::Sim);
  Field("Unroll", &T::Unroll);
  Field("Locality", &T::Locality);
  Field("Trace", &T::Trace);
  Field("RegAlloc", &T::RegAlloc);
}

//===----------------------------------------------------------------------===//
// The walker
//===----------------------------------------------------------------------===//

/// Where a leaf sits: its list name, the member it is nested in (null at the
/// top), and whether its list marks it HostClock.
struct FieldPath {
  const char *Name;
  const FieldPath *Outer = nullptr;
  bool HostClock = false;

  /// The names from the outermost member down, joined by dots:
  /// "L1D.Accesses".
  std::string str() const {
    return Outer ? Outer->str() + "." + Name : std::string(Name);
  }
};

namespace detail {

/// Converts to any member type: the aggregate T{AnyMember{}...} with N
/// arguments is well-formed exactly when T has at least N members.
struct AnyMember {
  template <typename M> operator M() const;
};

template <typename T, typename... Args> constexpr size_t memberCount() {
  if constexpr (requires { T{Args{}..., AnyMember{}}; })
    return memberCount<T, Args..., AnyMember>();
  else
    return sizeof...(Args);
}

struct FieldCounter {
  size_t N = 0;
  template <typename M>
  constexpr void operator()(const char *, M, bool = false) {
    ++N;
  }
};

template <typename T> constexpr size_t listedCount() {
  FieldCounter C;
  fieldList(static_cast<T *>(nullptr), C);
  return C.N;
}

} // namespace detail

/// A struct with a fieldList: the walker descends into it. Every other
/// member type is a leaf.
template <typename T>
concept Listed = requires(detail::FieldCounter &C) {
  fieldList(static_cast<T *>(nullptr), C);
};

/// A leaf resultKey can copy as raw bytes.
template <typename V>
concept FixedWidth = std::is_arithmetic_v<V> || std::is_enum_v<V>;

/// The two container leaves: a vector encodes its count, an array does not.
template <typename V> constexpr bool IsVector = false;
template <typename E, typename A>
constexpr bool IsVector<std::vector<E, A>> = true;
template <typename V> constexpr bool IsArray = false;
template <typename E, size_t N>
constexpr bool IsArray<std::array<E, N>> = true;

namespace detail {

template <typename LeafFn, typename T, typename... Ts>
constexpr void walk(const FieldPath *Outer, LeafFn &Leaf, T &Obj,
                    Ts &...Objs) {
  using S = std::remove_const_t<T>;
  static_assert(memberCount<S>() == listedCount<S>(),
                "a member of this struct is missing from its fieldList");
  fieldList(static_cast<S *>(nullptr),
            [&](const char *Name, auto Member, bool HostClock = false) {
              const FieldPath Path{Name, Outer, HostClock};
              using M = std::remove_cvref_t<decltype(Obj.*Member)>;
              if constexpr (Listed<M>)
                walk(&Path, Leaf, Obj.*Member, (Objs.*Member)...);
              else
                Leaf(Path, Obj.*Member, (Objs.*Member)...);
            });
}

} // namespace detail

/// Calls \p Leaf(Path, Objs.*Member...) for every leaf field of \p Objs (all
/// of one struct type, const or not) in list order, descending into struct
/// members through their own lists. Leaves are scalars, enums, strings,
/// vectors, arrays and modules; a consumer that takes only some of them
/// constrains its callback, so any other leaf fails the build.
template <typename LeafFn, typename T, typename... Ts>
constexpr void forEachLeaf(LeafFn &&Leaf, T &Obj, Ts &...Objs) {
  detail::walk(nullptr, Leaf, Obj, Objs...);
}

/// Summed size of \p T's leaves: the bytes resultKey spends on one T.
template <typename T> constexpr size_t leafBytes() {
  size_t Bytes = 0;
  const T Obj{};
  forEachLeaf([&Bytes](const FieldPath &,
                       const FixedWidth auto &V) { Bytes += sizeof(V); },
              Obj);
  return Bytes;
}

//===----------------------------------------------------------------------===//
// First difference
//===----------------------------------------------------------------------===//

namespace detail {

template <typename V> std::string showLeaf(const V &X) {
  if constexpr (std::is_same_v<V, std::string>)
    return "'" + X + "'";
  else if constexpr (std::is_enum_v<V>)
    return std::to_string(static_cast<long long>(X));
  else
    return std::to_string(X);
}

template <typename V>
std::string diffValues(const std::string &Path, const V &X, const V &Y,
                       const char *NameX, const char *NameY) {
  if constexpr (Listed<V>) {
    std::string D;
    forEachLeaf(
        [&](const FieldPath &F, const auto &LX, const auto &LY) {
          if (D.empty() && !F.HostClock)
            D = diffValues(Path.empty() ? F.str() : Path + "." + F.str(), LX,
                           LY, NameX, NameY);
        },
        X, Y);
    return D;
  } else if constexpr (IsVector<V> || IsArray<V>) {
    if (X.size() != Y.size())
      return Path + ".size() " + NameX + "=" + std::to_string(X.size()) +
             " " + NameY + "=" + std::to_string(Y.size());
    for (size_t I = 0; I != X.size(); ++I)
      if (std::string D = diffValues(Path + "[" + std::to_string(I) + "]",
                                     X[I], Y[I], NameX, NameY);
          !D.empty())
        return D;
    return "";
  } else if constexpr (std::is_same_v<V, ir::Module>) {
    // The module codec is canonical: equal bytes <=> equal modules.
    ByteWriter WX, WY;
    encode(WX, X);
    encode(WY, Y);
    return WX.buffer() == WY.buffer() ? "" : Path + " encodes differently";
  } else {
    return X == Y ? ""
                  : Path + " " + NameX + "=" + showLeaf(X) + " " + NameY +
                        "=" + showLeaf(Y);
  }
}

} // namespace detail

/// The first leaf (list order) on which \p X and \p Y differ, rendered as
/// "Path NameX=x NameY=y" (e.g. "L2.Misses fast=3 ref=4"), or "" when every
/// leaf agrees. Leaves marked HostClock are skipped.
template <typename T>
std::string firstDifference(const T &X, const T &Y, const char *NameX,
                            const char *NameY) {
  return detail::diffValues(std::string(), X, Y, NameX, NameY);
}

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_JOBFIELDS_H
