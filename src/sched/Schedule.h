//===- sched/Schedule.h - Balanced & traditional list scheduling -*- C++ -*-===//
///
/// \file
/// The paper's core contribution, reimplemented: a top-down list scheduler
/// whose load weights come either from the architecture's optimistic L1-hit
/// latency (traditional scheduling) or from the Kerns-Eggers balanced
/// scheduling algorithm, which measures the load-level parallelism available
/// to each load and distributes it across competing loads (section 2).
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SCHED_SCHEDULE_H
#define BALSCHED_SCHED_SCHEDULE_H

#include "ir/IR.h"
#include "sched/DepDAG.h"
#include "sched/Exact.h"

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bsched {
namespace sched {

enum class SchedulerKind : uint8_t {
  Traditional, ///< all loads weigh LoadHitLatency (cache-hit assumption).
  Balanced,    ///< load weights from load-level parallelism (Kerns-Eggers).
  /// Paper section-6 future work: "heuristics to statically choose between
  /// the two schedulers on a basic block basis". Picks Balanced or
  /// Traditional per region by comparing the estimated load-latency-hiding
  /// demand against the fixed-latency demand (see effectiveKind).
  Hybrid,
};

struct BalanceOptions {
  /// Load-weight cap; the paper uses 50 (the main-memory latency) to limit
  /// register pressure (section 4.2, footnote 1).
  double WeightCap = ir::LoadWeightCap;
  /// Loads that locality analysis proved to be cache hits keep the
  /// optimistic latency so their padders are freed for miss loads
  /// (section 3.3). Disabled only by ablation studies.
  bool RespectHitAnnotations = true;
  /// List-scheduler register-pressure ceiling (see
  /// DefaultPressureThreshold); 0 disables it. Applies to both weight
  /// models.
  unsigned PressureThreshold = 24;
  /// Paper section-6 future work: "incorporating multi-cycle instructions
  /// with fixed latencies into the balanced scheduling algorithm". When set,
  /// fixed multi-cycle instructions also receive balanced weights —
  /// min(true latency, 1 + padding credit) — so scarce parallelism is
  /// shared between loads and long fixed-latency operations instead of
  /// being monopolized by loads.
  bool BalanceFixedOps = false;
  /// Scheduler-core implementation. Reference selects the original seed
  /// algorithms (sched::reference::*) end to end — DAG build, weights, and
  /// list scheduling — for golden-schedule testing and speedup measurement
  /// (byte-identical schedules to Fast). Exact refines the fast schedule
  /// with the branch-and-bound optimality oracle per region (sched/Exact.h).
  SchedImpl Impl = SchedImpl::Fast;
  /// Budgets and machine model for SchedImpl::Exact; ignored otherwise.
  exact::ExactOptions Exact;
};

/// Computes the Kerns-Eggers balanced weight for every node of \p G:
/// non-loads get their fixed Table-3 latency; each load's weight is
///
///   w(l) = max(hit latency, 1 + sum over instructions n that can run in
///              parallel with l of 1/|component of l among the loads
///              parallel to n|),  capped at Opts.WeightCap.
///
/// Independent loads each receive full credit from a shared padding
/// instruction; loads connected by a dependence path split it (Figure 1).
std::vector<double>
balancedWeights(const DepDAG &G, const std::vector<const ir::Instr *> &Instrs,
                BalanceOptions Opts = {});

/// Fixed, architecture-optimistic weights: every load LoadHitLatency, every
/// other instruction its Table-3 latency.
std::vector<double>
traditionalWeights(const std::vector<const ir::Instr *> &Instrs);

/// Incremental Kerns-Eggers balanced weights over a growing region.
///
/// The balanced-weight analysis decomposes into per-node load-reachability
/// rows (loads reachable from each node, loads reaching each node), the
/// load-to-load relatedness matrix derived from them, and a memo of
/// availability-set -> component-credit lists. All of it extends cheaply
/// when nodes are appended to the region: node ids are a topological order
/// (DepDAG edges only point forward), so once a prefix has been analysed its
/// rows over the *old* load ordinals are final — an extension only sweeps
/// the new loads' bit range through the old rows and builds full rows for
/// the new nodes, O(new nodes + affected words) instead of a from-scratch
/// O(region^2 / 64) pass per growth step.
///
/// Contract: between extend() calls the DAG may only grow — previously seen
/// nodes keep their ids and previously seen edges persist, and new edges
/// touch at least one new node (block-boundary prefixes of the trace
/// scheduler's region growth satisfy this, including its control edges).
/// weights() is bit-identical to the one-shot balancedWeights on the final
/// region: the floating-point accumulation is re-run node-major over the
/// cached credit lists every time, never delta-adjusted.
///
/// All storage is recycled across begin() cycles; the trace scheduler keeps
/// one builder per thread in its scratch state.
class BalancedWeightsBuilder {
public:
  /// Starts a new region with the given options; cached analysis state from
  /// the previous region is discarded (storage is recycled).
  void begin(const BalanceOptions &Opts);

  /// Extends the cached analysis to cover \p G's first \p UpTo nodes.
  /// \p Instrs must hold the region's instructions, one per node. Edges
  /// leaving the covered prefix are deferred: they contribute when a later
  /// extension covers their head node.
  void extend(const DepDAG &G, const std::vector<const ir::Instr *> &Instrs,
              unsigned UpTo);
  void extend(const DepDAG &G, const std::vector<const ir::Instr *> &Instrs) {
    extend(G, Instrs, G.size());
  }

  /// Balanced weights for every node covered so far; bit-identical to
  /// one-shot balancedWeights over the same DAG.
  std::vector<double> weights(const std::vector<const ir::Instr *> &Instrs);

  /// Nodes covered by extend() so far.
  unsigned size() const { return N; }

private:
  struct WordsHash {
    size_t operator()(const std::vector<uint64_t> &Ws) const {
      uint64_t H = 0xcbf29ce484222325ull;
      for (uint64_t W : Ws) {
        H ^= W;
        H *= 0x100000001b3ull;
      }
      return static_cast<size_t>(H);
    }
  };

  void relayout(size_t NewStride);

  BalanceOptions Opts;
  unsigned N = 0; ///< nodes covered so far.
  unsigned L = 0; ///< balanced candidates ("loads") among them.
  size_t Stride = 0;      ///< words per row (capacity for LW() active words).
  size_t RowsReady = 0;   ///< Fwd/Bwd rows zero-claimed this region.
  size_t RelRowsReady = 0; ///< Rel rows written this region.
  size_t WordsReady = 0;  ///< active words valid in every ready row.

  size_t LW() const { return (L + 63) / 64; } ///< active words per row.

  std::vector<unsigned> Loads; ///< candidate node ids, ascending.
  std::vector<int> LoadOrd;    ///< node id -> load ordinal, or -1.
  /// Load-ordinal bitset rows, Stride words each: loads reachable from each
  /// node (Fwd), loads reaching each node (Bwd), and the symmetric
  /// load-to-load relation (Rel, L rows).
  std::vector<uint64_t> Fwd, Bwd, Rel;

  /// Availability-set memo: full active-word key -> (load ordinal, credit)
  /// pairs. Entries stay valid across extends that do not change the active
  /// word count (their keys only cover old ordinals, whose Rel sub-matrix is
  /// final); a stride relayout clears the memo.
  std::unordered_map<std::vector<uint64_t>,
                     std::vector<std::pair<unsigned, double>>, WordsHash>
      Memo;

  // Scratch recycled across calls.
  std::vector<uint64_t> Avail, Rem, Cur, Next;
  std::vector<unsigned> Members;
  std::vector<double> Extra;
};

/// Register-pressure ceiling for the list scheduler: once the number of
/// simultaneously live values of a class in the partial schedule reaches
/// this, selection prefers instructions that do not grow that class's
/// liveness. Models the register-pressure control the Multiflow compiler's
/// integrated scheduling/allocation provides (and that the paper's
/// consumed-minus-defined tie-breaker and 50-cycle weight cap approximate).
/// 0 disables the ceiling (ablation).
constexpr unsigned DefaultPressureThreshold = 24;

/// Expected per-load latency-hiding demand (cycles) used by the Hybrid
/// chooser (effectiveKind); tuned on the workload (the fate of any static
/// heuristic of this kind): high enough that miss-prone blocks stay
/// balanced, low enough that recurrence/divide-bound blocks fall back to
/// traditional.
constexpr int HybridLoadCost = 6;


/// Top-down list scheduling of \p G with the given weights. Priority of an
/// instruction is its weight plus the maximum successor priority; ties are
/// broken by (1) largest consumed-minus-defined register count, (2) most
/// newly exposed successors, (3) original program order (section 4.2).
/// Returns a permutation of node ids (a valid topological order of G).
///
/// The default implementation precomputes the static tie-key parts,
/// maintains the exposed-successor counts incrementally, and removes
/// selected entries from the ready list in O(1) amortized; \p Impl selects
/// the original per-candidate recomputation instead (identical output).
std::vector<unsigned>
listSchedule(const DepDAG &G, const std::vector<double> &Weights,
             const std::vector<const ir::Instr *> &Instrs,
             unsigned PressureThreshold = DefaultPressureThreshold,
             SchedImpl Impl = SchedImpl::Fast);

/// Resolves the Hybrid scheduler for one region: Balanced when the loads'
/// estimated latency-hiding demand (#balanceable loads * HybridLoadCost)
/// meets or exceeds the fixed-latency demand (sum of latency-1 over
/// multi-cycle non-load instructions), else Traditional. Non-hybrid kinds
/// pass through unchanged.
SchedulerKind effectiveKind(SchedulerKind Kind,
                            const std::vector<const ir::Instr *> &Instrs,
                            const BalanceOptions &Opts = {});

/// Schedules every basic block of \p M in place with the given scheduler.
void scheduleFunction(ir::Module &M, SchedulerKind Kind,
                      BalanceOptions Opts = {});

/// Schedules one region (instruction list in program order, ending in a
/// terminator) and returns the new order. Convenience wrapper used by
/// scheduleFunction and by tests.
std::vector<unsigned>
scheduleRegion(const std::vector<const ir::Instr *> &Instrs,
               SchedulerKind Kind, BalanceOptions Opts = {});

} // namespace sched
} // namespace bsched

#endif // BALSCHED_SCHED_SCHEDULE_H
