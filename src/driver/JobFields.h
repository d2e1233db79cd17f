//===- driver/JobFields.h - Field lists of the job inputs -------*- C++ -*-===//
///
/// \file
/// Every field of a job's compile options and machine model, listed once:
/// one fieldList overload per struct names each member and its member
/// pointer, in declaration order. resultKey writes every leaf as
/// fixed-width bytes and the repro format (fuzz/Repro.h) spells every
/// CompileOptions leaf by its name, so those names are unique and stable.
/// forEachLeaf refuses a struct whose list misses one of its members.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_DRIVER_JOBFIELDS_H
#define BALSCHED_DRIVER_JOBFIELDS_H

#include "driver/Compiler.h"
#include "sim/Machine.h"

#include <cstddef>
#include <type_traits>

namespace bsched {
namespace driver {

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
  Field("hybridcost", &T::HybridLoadCost);
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
  Field("maxint", &T::MaxIntPerCycle);
  Field("maxfp", &T::MaxFpPerCycle);
  Field("maxmem", &T::MaxMemPerCycle);
  Field("codebase", &T::CodeBase);
  Field("perfectfrontend", &T::PerfectFrontEnd);
  Field("simple", &T::SimpleModel);
  Field("simplehitrate", &T::SimpleHitRate);
  Field("simplehitlatency", &T::SimpleHitLatency);
  Field("simplemisslatency", &T::SimpleMissLatency);
  Field("simpleseed", &T::SimpleSeed);
  Field("impl", &T::Impl);
}

template <typename F> constexpr void fieldList(sim::CacheConfig *, F &&Field) {
  using T = sim::CacheConfig;
  Field("size", &T::SizeBytes);
  Field("line", &T::LineSize);
  Field("assoc", &T::Assoc);
  Field("latency", &T::Latency);
}

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

template <typename T> constexpr size_t listedCount() {
  size_t N = 0;
  fieldList(static_cast<T *>(nullptr), [&N](const char *, auto) { ++N; });
  return N;
}

} // namespace detail

/// Calls \p Leaf(Name, Objs.*Member...) for every leaf field of \p Objs (all
/// of one struct type, const or not) in list order, descending into struct
/// members through their own lists. Leaves are arithmetic types and enums.
template <typename LeafFn, typename T, typename... Ts>
constexpr void forEachLeaf(LeafFn &&Leaf, T &Obj, Ts &...Objs) {
  using S = std::remove_const_t<T>;
  static_assert(detail::memberCount<S>() == detail::listedCount<S>(),
                "a member of this struct is missing from its fieldList");
  fieldList(static_cast<S *>(nullptr), [&](const char *Name, auto Member) {
    using M = std::remove_cvref_t<decltype(Obj.*Member)>;
    if constexpr (std::is_class_v<M>) {
      forEachLeaf(Leaf, Obj.*Member, (Objs.*Member)...);
    } else {
      static_assert(std::is_arithmetic_v<M> || std::is_enum_v<M>);
      Leaf(Name, Obj.*Member, (Objs.*Member)...);
    }
  });
}

/// Summed size of \p T's leaves: the bytes resultKey spends on one T.
template <typename T> constexpr size_t leafBytes() {
  size_t Bytes = 0;
  const T Obj{};
  forEachLeaf([&Bytes](const char *, const auto &V) { Bytes += sizeof(V); },
              Obj);
  return Bytes;
}

} // namespace driver
} // namespace bsched

#endif // BALSCHED_DRIVER_JOBFIELDS_H
