//===- support/PhaseRecord.h - Per-phase job timing -------------*- C++ -*-===//
///
/// \file
/// The driver charges each step of a job to a phase (PhaseScope, inPhase).
/// A PhaseRecorder made on the same thread adds up each phase's wall time
/// and call count while it lives; with no recorder on the thread a step
/// reads no clock, so the unrecorded pipeline pays one thread-local load per
/// step. Steps never nest, so the phases of a record add up to the recorded
/// work. Recorders do nest: one made while another is active collects alone
/// and, when it dies, adds its totals to the enclosing one.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_PHASERECORD_H
#define BALSCHED_SUPPORT_PHASERECORD_H

#include <array>
#include <chrono>
#include <cstdint>

namespace bsched {

/// The phases of a job, named (phaseName) after BENCHMARK.json's per-layer
/// metrics. Parse covers parsing, the checker, and copying and freeing the
/// driver's ASTs; Verify covers ir::verify, verify:: and their module
/// snapshots.
enum class Phase : uint8_t {
  Parse, Eval, Locality, Unroll, Lower, Cleanup, Profile,
  TraceSched, Sched, Verify, RegAlloc, Sim, StoreLoad, Decode
};
constexpr unsigned NumPhases = 14;

inline const char *phaseName(Phase P) {
  static const char *const Names[NumPhases] = {
      "lang.parse",     "lang.eval",   "locality", "xform.unroll",
      "lower",          "opt.cleanup", "profile",  "trace.schedule",
      "sched.schedule", "verify",      "regalloc", "sim",
      "driver.store_load", "driver.decode"};
  return Names[static_cast<unsigned>(P)];
}

/// Collects the phases run on its thread from construction to destruction.
class PhaseRecorder {
public:
  PhaseRecorder() : Outer(Active) { Active = this; }
  ~PhaseRecorder() {
    Active = Outer;
    for (unsigned I = 0; Outer && I != NumPhases; ++I) {
      Outer->Ns[I] += Ns[I];
      Outer->Calls[I] += Calls[I];
    }
  }
  PhaseRecorder(const PhaseRecorder &) = delete;
  PhaseRecorder &operator=(const PhaseRecorder &) = delete;

  uint64_t ns(Phase P) const { return Ns[static_cast<unsigned>(P)]; }
  uint64_t calls(Phase P) const { return Calls[static_cast<unsigned>(P)]; }

private:
  friend class PhaseScope;
  static inline constinit thread_local PhaseRecorder *Active = nullptr;
  std::array<uint64_t, NumPhases> Ns{}, Calls{};
  PhaseRecorder *Outer;
};

/// Charges its lifetime to \p P in the recorder active on this thread.
class PhaseScope {
public:
  explicit PhaseScope(Phase P)
      : Rec(PhaseRecorder::Active), I(static_cast<unsigned>(P)),
        Start(Rec ? clockNs() : 0) {}
  ~PhaseScope() {
    if (Rec) {
      Rec->Ns[I] += clockNs() - Start;
      ++Rec->Calls[I];
    }
  }
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  static uint64_t clockNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  PhaseRecorder *Rec;
  unsigned I;
  uint64_t Start;
};

/// Runs \p Fn charged to \p P and returns what it returns.
template <typename FnT> auto inPhase(Phase P, FnT &&Fn) {
  PhaseScope S(P);
  return Fn();
}

} // namespace bsched

#endif // BALSCHED_SUPPORT_PHASERECORD_H
