//===- sched/Schedule.cpp - Balanced & traditional list scheduling ---------===//
//
// The optimized scheduler core. The balanced-weight analysis lives in
// BalancedWeightsBuilder: per-node load-reachability bitset rows, a
// load-to-load relation matrix, and a memo of availability-set ->
// component-credit lists, all extensible as a region grows (the trace
// scheduler extends block by block; one-shot balancedWeights is a
// begin/extend/weights cycle over a thread-local builder). listSchedule
// precomputes the static tie-key parts, maintains the exposed-successor
// counts incrementally, and removes ready entries in O(1) amortized. Both
// are byte-identical to the originals kept in Reference.cpp; the
// golden-schedule and weights_incremental tests assert it.
//
//===----------------------------------------------------------------------===//

#include "sched/Schedule.h"
#include "sched/Reference.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace bsched;
using namespace bsched::sched;
using namespace bsched::ir;

//===----------------------------------------------------------------------===//
// Weights
//===----------------------------------------------------------------------===//

std::vector<double>
sched::traditionalWeights(const std::vector<const Instr *> &Instrs) {
  std::vector<double> W(Instrs.size());
  for (size_t I = 0; I != Instrs.size(); ++I)
    W[I] = opInfo(Instrs[I]->Op).Latency;
  return W;
}

//===----------------------------------------------------------------------===//
// BalancedWeightsBuilder
//===----------------------------------------------------------------------===//

namespace {

inline void setWordBit(uint64_t *Row, unsigned I) {
  Row[I / 64] |= 1ull << (I % 64);
}

} // namespace

void BalancedWeightsBuilder::begin(const BalanceOptions &O) {
  Opts = O;
  N = 0;
  L = 0;
  Loads.clear();
  LoadOrd.clear();
  Memo.clear();
  // Row storage and stride persist across regions; rows are re-zeroed as
  // they are claimed (WordsReady/RowsReady reset below via extend()).
  RowsReady = 0;
  RelRowsReady = 0;
  WordsReady = 0;
}

/// Widens every row to \p NewStride words in place (back-to-front moves, so
/// no temporary allocation). The memo's keys are active-word vectors, not
/// strided rows, so they survive — but growing the stride means the load
/// count crossed a word boundary, which invalidates nothing by itself;
/// entries are only ever keyed on availability sets whose Rel sub-matrix is
/// final, so the memo is kept.
void BalancedWeightsBuilder::relayout(size_t NewStride) {
  auto Widen = [&](std::vector<uint64_t> &V, size_t Rows) {
    V.resize(std::max(V.size() / (Stride ? Stride : 1), Rows) * NewStride, 0);
    for (size_t R = Rows; R-- > 0;) {
      std::memmove(V.data() + R * NewStride, V.data() + R * Stride,
                   Stride * sizeof(uint64_t));
      std::memset(V.data() + R * NewStride + Stride, 0,
                  (NewStride - Stride) * sizeof(uint64_t));
    }
  };
  Widen(Fwd, RowsReady);
  Widen(Bwd, RowsReady);
  Widen(Rel, RelRowsReady);
  Stride = NewStride;
}

void BalancedWeightsBuilder::extend(const DepDAG &G,
                                    const std::vector<const Instr *> &Instrs,
                                    unsigned UpTo) {
  unsigned N1 = UpTo;
  assert(N1 <= G.size() && N1 <= Instrs.size() && "prefix out of range");
  assert(N1 >= N && "region shrank between extends");
  if (N1 == N)
    return;
  unsigned N0 = N, L0 = L;

  // Candidates for balancing among the new nodes: loads (hit-annotated
  // loads keep the optimistic weight so their would-be padders serve other
  // loads), plus — with BalanceFixedOps, the paper's future-work extension —
  // multi-cycle fixed-latency instructions, which then compete for padders
  // too. Node ids are topological, so new ordinals append at the end.
  LoadOrd.resize(N1, -1);
  for (unsigned I = N0; I != N1; ++I) {
    bool Candidate = false;
    if (Instrs[I]->isLoad())
      Candidate =
          !(Opts.RespectHitAnnotations && Instrs[I]->HM == HitMiss::Hit);
    else if (Opts.BalanceFixedOps && !Instrs[I]->isTerminator())
      Candidate = opInfo(Instrs[I]->Op).Latency > 1;
    if (!Candidate)
      continue;
    LoadOrd[I] = static_cast<int>(L);
    Loads.push_back(I);
    ++L;
  }
  N = N1;
  if (L == 0)
    return; // nothing to analyse yet; rows materialize once a load appears

  size_t NeedW = LW();
  if (NeedW > Stride)
    relayout(std::max(NeedW, Stride * 2));

  // Claim storage: widen previously-claimed rows to the new active word
  // count, then zero-claim the new rows. (Recycled memory: explicit zeroing,
  // not vector value-init, is what makes the rows valid.)
  if (Fwd.size() < size_t(N1) * Stride) {
    Fwd.resize(size_t(N1) * Stride, 0);
    Bwd.resize(size_t(N1) * Stride, 0);
  }
  if (Rel.size() < size_t(L) * Stride)
    Rel.resize(size_t(L) * Stride, 0);
  if (NeedW > WordsReady) {
    for (size_t R = 0; R != RowsReady; ++R) {
      std::memset(Fwd.data() + R * Stride + WordsReady, 0,
                  (NeedW - WordsReady) * sizeof(uint64_t));
      std::memset(Bwd.data() + R * Stride + WordsReady, 0,
                  (NeedW - WordsReady) * sizeof(uint64_t));
    }
    for (size_t R = 0; R != RelRowsReady; ++R)
      std::memset(Rel.data() + R * Stride + WordsReady, 0,
                  (NeedW - WordsReady) * sizeof(uint64_t));
  }
  for (size_t R = RowsReady; R != N1; ++R) {
    std::memset(Fwd.data() + R * Stride, 0, NeedW * sizeof(uint64_t));
    std::memset(Bwd.data() + R * Stride, 0, NeedW * sizeof(uint64_t));
  }
  RowsReady = N1;
  WordsReady = NeedW;

  // Forward rows (loads reachable from each node): edges only point to
  // higher ids, so (1) a new node can never reach an old load — old-ordinal
  // bits of new rows stay zero; (2) old-ordinal bits of old rows are final.
  // Only the new loads' bit range [L0, L) needs sweeping, over ALL nodes
  // (old nodes do reach new loads through old->new edges), reverse-id so
  // successors are finished first.
  size_t WB0 = size_t(L0) / 64; // first word holding any new ordinal
  if (L > L0) {
    for (unsigned I = N1; I-- > 0;) {
      uint64_t *Row = Fwd.data() + size_t(I) * Stride;
      for (unsigned S : G.succs(I)) {
        if (S >= N1)
          continue; // deferred until an extension covers S
        const uint64_t *SR = Fwd.data() + size_t(S) * Stride;
        for (size_t Wd = WB0; Wd != NeedW; ++Wd)
          Row[Wd] |= SR[Wd];
        if (int Ord = LoadOrd[S]; Ord >= static_cast<int>(L0))
          setWordBit(Row, static_cast<unsigned>(Ord));
      }
    }
  }

  // Backward rows (loads reaching each node): preds of an old node are old,
  // so old rows are final in full; only the new nodes need rows, over the
  // whole active span (old loads do reach new nodes).
  for (unsigned I = N0; I != N1; ++I) {
    uint64_t *Row = Bwd.data() + size_t(I) * Stride;
    for (unsigned P : G.preds(I)) {
      const uint64_t *PR = Bwd.data() + size_t(P) * Stride;
      for (size_t Wd = 0; Wd != NeedW; ++Wd)
        Row[Wd] |= PR[Wd];
      if (int Ord = LoadOrd[P]; Ord >= 0)
        setWordBit(Row, static_cast<unsigned>(Ord));
    }
  }

  // Load-to-load relatedness, Rel[A] = loads reachable from A or reaching
  // A. Old rows only gain bits for the new loads they reach (nothing new
  // can reach an old load); new rows are Fwd | Bwd of the load's node.
  if (L > L0) {
    for (unsigned LI = 0; LI != L0; ++LI) {
      uint64_t *Row = Rel.data() + size_t(LI) * Stride;
      const uint64_t *F = Fwd.data() + size_t(Loads[LI]) * Stride;
      for (size_t Wd = WB0; Wd != NeedW; ++Wd)
        Row[Wd] |= F[Wd];
    }
    for (unsigned LI = L0; LI != L; ++LI) {
      uint64_t *Row = Rel.data() + size_t(LI) * Stride;
      const uint64_t *F = Fwd.data() + size_t(Loads[LI]) * Stride;
      const uint64_t *B = Bwd.data() + size_t(Loads[LI]) * Stride;
      for (size_t Wd = 0; Wd != NeedW; ++Wd)
        Row[Wd] = F[Wd] | B[Wd];
    }
    RelRowsReady = L;
  }
}

std::vector<double>
BalancedWeightsBuilder::weights(const std::vector<const Instr *> &Instrs) {
  assert(Instrs.size() == N && "weights() before matching extend()");
  std::vector<double> W = traditionalWeights(Instrs);
  if (L == 0)
    return W;

  size_t NeedW = LW();
  Extra.assign(N, 0.0);
  Avail.resize(NeedW);
  Rem.resize(NeedW);
  Cur.resize(NeedW);
  Next.resize(NeedW);
  uint64_t TopMask = (L % 64) ? ((1ull << (L % 64)) - 1) : ~0ull;

  for (unsigned Node = 0; Node != N; ++Node) {
    // Loads that could be serviced while Node initiates execution: no
    // dependence path between Node and the load, in either direction.
    const uint64_t *F = Fwd.data() + size_t(Node) * Stride;
    const uint64_t *B = Bwd.data() + size_t(Node) * Stride;
    for (size_t Wd = 0; Wd != NeedW; ++Wd)
      Avail[Wd] = ~(F[Wd] | B[Wd]);
    Avail[NeedW - 1] &= TopMask;
    if (int Ord = LoadOrd[Node]; Ord >= 0)
      Avail[Ord / 64] &= ~(1ull << (Ord % 64));
    bool Any = false;
    for (size_t Wd = 0; Wd != NeedW; ++Wd)
      Any |= Avail[Wd] != 0;
    if (!Any)
      continue;

    auto [It, Inserted] = Memo.try_emplace(Avail);
    if (Inserted) {
      // Loads connected by a dependence path compete for Node's single
      // issue slot; loads in separate components each get full credit.
      // Component search: repeated bitset frontier expansion over Rel.
      std::vector<std::pair<unsigned, double>> &Contrib = It->second;
      std::copy(Avail.begin(), Avail.end(), Rem.begin());
      for (;;) {
        int Seed = -1;
        for (size_t Wd = 0; Wd != NeedW && Seed < 0; ++Wd)
          if (Rem[Wd])
            Seed = static_cast<int>(Wd * 64 +
                                    __builtin_ctzll(Rem[Wd]));
        if (Seed < 0)
          break;
        Members.clear();
        std::fill(Cur.begin(), Cur.end(), 0);
        setWordBit(Cur.data(), static_cast<unsigned>(Seed));
        Rem[Seed / 64] &= ~(1ull << (Seed % 64));
        for (;;) {
          bool CurAny = false;
          std::fill(Next.begin(), Next.end(), 0);
          for (size_t Wd = 0; Wd != NeedW; ++Wd) {
            uint64_t Bits = Cur[Wd];
            while (Bits) {
              unsigned I =
                  static_cast<unsigned>(Wd * 64 + __builtin_ctzll(Bits));
              Bits &= Bits - 1;
              Members.push_back(I);
              const uint64_t *RR = Rel.data() + size_t(I) * Stride;
              for (size_t V = 0; V != NeedW; ++V)
                Next[V] |= RR[V];
            }
          }
          for (size_t Wd = 0; Wd != NeedW; ++Wd) {
            Next[Wd] &= Rem[Wd];
            Rem[Wd] &= ~Next[Wd];
            CurAny |= Next[Wd] != 0;
          }
          std::swap(Cur, Next);
          if (!CurAny)
            break;
        }
        double Credit = 1.0 / static_cast<double>(Members.size());
        for (unsigned I : Members)
          Contrib.emplace_back(I, Credit);
      }
    }
    // Each available load receives exactly one credit per node, so the
    // accumulation order (node-major, as in the reference) is preserved and
    // the doubles come out bit-identical — Extra is re-accumulated from
    // scratch on every weights() call, never delta-adjusted.
    for (const auto &[LI, Credit] : It->second)
      Extra[Loads[LI]] += Credit;
  }

  for (unsigned LI = 0; LI != L; ++LI) {
    unsigned I = Loads[LI];
    double Balanced = 1.0 + Extra[I];
    if (Instrs[I]->isLoad()) {
      W[I] = std::min(std::max(Balanced,
                               static_cast<double>(LoadHitLatency)),
                      Opts.WeightCap);
    } else {
      // Fixed-latency op: its true latency is known, so never weight it
      // beyond that; when parallelism is scarce its weight shrinks and the
      // padders flow to whoever can still use them.
      W[I] = std::min(static_cast<double>(opInfo(Instrs[I]->Op).Latency),
                      std::max(Balanced, 1.0));
    }
  }
  return W;
}

std::vector<double>
sched::balancedWeights(const DepDAG &G,
                       const std::vector<const Instr *> &Instrs,
                       BalanceOptions Opts) {
  if (Opts.Impl == SchedImpl::Reference)
    return reference::balancedWeights(G, Instrs, Opts);

  // One-shot = builder with a single extension. The builder's storage is
  // recycled across regions (thread-local), which is most of the win for
  // block-sized regions — the old per-call BitVec matrices dominated the
  // runtime of small schedules.
  static thread_local BalancedWeightsBuilder Builder;
  Builder.begin(Opts);
  Builder.extend(G, Instrs);
  return Builder.weights(Instrs);
}

//===----------------------------------------------------------------------===//
// List scheduling
//===----------------------------------------------------------------------===//

namespace {

/// Tie-break key (larger wins), per section 4.2.
struct TieKey {
  int RegPressure;   ///< consumed registers minus defined registers.
  int Exposed;       ///< successors that become ready if this issues.
  int NegOrigIndex;  ///< earlier original position preferred.
};

bool tieLess(const TieKey &A, const TieKey &B) {
  if (A.RegPressure != B.RegPressure)
    return A.RegPressure < B.RegPressure;
  if (A.Exposed != B.Exposed)
    return A.Exposed < B.Exposed;
  return A.NegOrigIndex < B.NegOrigIndex;
}

} // namespace

std::vector<unsigned>
sched::listSchedule(const DepDAG &G, const std::vector<double> &Weights,
                    const std::vector<const Instr *> &Instrs,
                    unsigned PressureThreshold, SchedImpl Impl) {
  if (Impl == SchedImpl::Reference)
    return reference::listSchedule(G, Weights, Instrs, PressureThreshold);

  unsigned N = G.size();
  assert(Weights.size() == N && Instrs.size() == N && "size mismatch");
  constexpr unsigned None = ~0u;

  // Static per-node facts, gathered once: register-id space, use counts
  // (the static half of the tie key), destination class and validity.
  uint32_t NumRegs = 0;
  std::vector<int> StaticPressure(N); // consumed minus defined registers
  std::vector<uint8_t> Cls(N);        // 0 = int, 1 = fp destination
  std::vector<bool> DefValid(N);
  std::vector<Reg> Uses;
  for (unsigned I = 0; I != N; ++I) {
    Uses.clear();
    Instrs[I]->appendUses(Uses);
    for (Reg R : Uses)
      NumRegs = std::max(NumRegs, R.Id + 1);
    Reg D = Instrs[I]->def();
    if (D.isValid())
      NumRegs = std::max(NumRegs, D.Id + 1);
    DefValid[I] = D.isValid();
    Cls[I] = opInfo(Instrs[I]->Op).DstCls == 1 ? 1 : 0;
    StaticPressure[I] =
        static_cast<int>(Uses.size()) - (D.isValid() ? 1 : 0);
  }

  // Pressure bookkeeping: the producing node of every register operand, and
  // per-producer remaining-reader counts, so scheduling can track how many
  // values are live in the partial schedule. Producer dedup uses a
  // last-consumer stamp instead of rescanning the producer list.
  std::vector<std::vector<unsigned>> Producers(N); // per node, dedup'd
  std::vector<unsigned> ReadersLeft(N, 0);
  {
    std::vector<unsigned> LastDef(NumRegs, None);
    std::vector<unsigned> LastConsumer(N, None);
    for (unsigned I = 0; I != N; ++I) {
      Uses.clear();
      Instrs[I]->appendUses(Uses);
      for (Reg R : Uses) {
        unsigned P = LastDef[R.Id];
        if (P == None || LastConsumer[P] == I)
          continue;
        LastConsumer[P] = I;
        Producers[I].push_back(P);
        ++ReadersLeft[P];
      }
      if (DefValid[I])
        LastDef[Instrs[I]->def().Id] = I;
    }
  }
  unsigned Live[2] = {0, 0}; // [0]=int, [1]=fp values live right now.
  // Net liveness change of issuing Node for class C.
  auto pressureDelta = [&](unsigned Node, int C) {
    int Delta = 0;
    if (DefValid[Node] && Cls[Node] == C && ReadersLeft[Node] > 0)
      ++Delta;
    for (unsigned P : Producers[Node])
      if (ReadersLeft[P] == 1 && Cls[P] == C)
        --Delta;
    return Delta;
  };

  // Priority: weight plus maximum successor priority (critical path). Node
  // ids are a topological order, so a reverse id sweep sees successors
  // first.
  std::vector<double> Prio(N, 0.0);
  for (unsigned I = N; I-- != 0;) {
    double MaxSucc = 0.0;
    for (unsigned S : G.succs(I))
      MaxSucc = std::max(MaxSucc, Prio[S]);
    Prio[I] = Weights[I] + MaxSucc;
  }

  // Exposed[I] = number of successors that would become ready if I issued
  // (succs whose only unscheduled predecessor is I), maintained
  // incrementally as predecessors retire.
  std::vector<unsigned> PredsLeft(N);
  std::vector<int> Exposed(N, 0);
  for (unsigned I = 0; I != N; ++I)
    PredsLeft[I] = static_cast<unsigned>(G.preds(I).size());
  for (unsigned I = 0; I != N; ++I)
    for (unsigned S : G.succs(I))
      if (PredsLeft[S] == 1)
        ++Exposed[I];

  // Ready list: insertion-ordered entries with tombstoned removal, so
  // selection scans candidates in exactly the reference order while erase
  // is O(1) amortized (compaction halves the buffer when half is dead).
  constexpr unsigned Tomb = ~0u;
  std::vector<unsigned> Ready;
  unsigned LiveEntries = 0, Tombs = 0;
  std::vector<bool> Scheduled(N, false);
  for (unsigned I = 0; I != N; ++I)
    if (PredsLeft[I] == 0) {
      Ready.push_back(I);
      ++LiveEntries;
    }

  auto tieKeyOf = [&](unsigned I) {
    return TieKey{StaticPressure[I], Exposed[I], -static_cast<int>(I)};
  };

  std::vector<unsigned> Order;
  Order.reserve(N);
  constexpr double Eps = 1e-9;
  while (LiveEntries != 0) {
    // When a register class is saturated, restrict the candidates to
    // instructions that do not grow its liveness (if any exist).
    int OverClass = -1;
    if (PressureThreshold != 0) {
      if (Live[0] >= PressureThreshold)
        OverClass = 0;
      else if (Live[1] >= PressureThreshold)
        OverClass = 1;
    }
    auto admissible = [&](unsigned Node) {
      return OverClass < 0 || pressureDelta(Node, OverClass) <= 0;
    };
    bool AnyAdmissible = false;
    if (OverClass >= 0)
      for (unsigned R : Ready)
        AnyAdmissible |= R != Tomb && admissible(R);
    if (!AnyAdmissible)
      OverClass = -1; // Nothing relieves pressure: fall back to priority.

    // Select the admissible ready instruction with the highest priority,
    // breaking ties with the heuristic stack.
    size_t Best = Ready.size();
    TieKey BestKey{0, 0, 0};
    for (size_t K = 0; K != Ready.size(); ++K) {
      if (Ready[K] == Tomb || !admissible(Ready[K]))
        continue;
      if (Best == Ready.size()) {
        Best = K;
        BestKey = tieKeyOf(Ready[K]);
        continue;
      }
      double DP = Prio[Ready[K]] - Prio[Ready[Best]];
      if (DP > Eps) {
        Best = K;
        BestKey = tieKeyOf(Ready[K]);
        continue;
      }
      if (DP < -Eps)
        continue;
      TieKey Key = tieKeyOf(Ready[K]);
      if (tieLess(BestKey, Key)) {
        Best = K;
        BestKey = Key;
      }
    }
    assert(Best != Ready.size() && "no candidate selected");
    unsigned I = Ready[Best];
    Ready[Best] = Tomb;
    --LiveEntries;
    if (++Tombs > LiveEntries) {
      Ready.erase(std::remove(Ready.begin(), Ready.end(), Tomb), Ready.end());
      Tombs = 0;
    }
    Order.push_back(I);
    Scheduled[I] = true;

    // Update liveness: the consumed producers may die; our def goes live.
    for (unsigned P : Producers[I]) {
      assert(ReadersLeft[P] > 0);
      if (--ReadersLeft[P] == 0) {
        assert(Live[Cls[P]] > 0);
        --Live[Cls[P]];
      }
    }
    if (DefValid[I] && ReadersLeft[I] > 0)
      ++Live[Cls[I]];

    for (unsigned S : G.succs(I)) {
      unsigned Left = --PredsLeft[S];
      if (Left == 0) {
        Ready.push_back(S);
        ++LiveEntries;
      } else if (Left == 1) {
        // S's one remaining unscheduled predecessor now exposes it.
        for (unsigned P : G.preds(S))
          if (!Scheduled[P]) {
            ++Exposed[P];
            break;
          }
      }
    }
  }
  assert(Order.size() == N && "scheduler failed to order all instructions");
  return Order;
}

//===----------------------------------------------------------------------===//
// Function-level driver
//===----------------------------------------------------------------------===//

SchedulerKind
sched::effectiveKind(SchedulerKind Kind,
                     const std::vector<const Instr *> &Instrs,
                     const BalanceOptions &Opts) {
  if (Kind != SchedulerKind::Hybrid)
    return Kind;
  int64_t LoadDemand = 0, FixedDemand = 0;
  for (const Instr *I : Instrs) {
    if (I->isLoad()) {
      if (!(Opts.RespectHitAnnotations && I->HM == HitMiss::Hit))
        LoadDemand += HybridLoadCost;
    } else if (!I->isTerminator()) {
      FixedDemand += opInfo(I->Op).Latency - 1;
    }
  }
  return LoadDemand >= FixedDemand ? SchedulerKind::Balanced
                                   : SchedulerKind::Traditional;
}

std::vector<unsigned>
sched::scheduleRegion(const std::vector<const Instr *> &Instrs,
                      SchedulerKind Kind, BalanceOptions Opts) {
  Kind = effectiveKind(Kind, Instrs, Opts);
  DepDAG G = buildDepDAG(Instrs, Opts.Impl);
  addBlockControlEdges(G, Instrs);
  std::vector<double> W = Kind == SchedulerKind::Balanced
                              ? balancedWeights(G, Instrs, Opts)
                              : traditionalWeights(Instrs);
  std::vector<unsigned> Order =
      listSchedule(G, W, Instrs, Opts.PressureThreshold, Opts.Impl);
  if (Opts.Impl == SchedImpl::Exact) {
    // Optimality-oracle refinement: warm-start the branch-and-bound solver
    // with the list schedule (so exact can never be worse) and adopt its
    // order when the region closes within budget.
    exact::ExactResult R =
        exact::scheduleExact(G, Instrs, Opts.Exact, &Order);
    unsigned FastCycles = exact::evaluateOrder(G, Instrs, Order, Opts.Exact);
    exact::recordRegion(R, FastCycles);
    if (R.closed())
      Order = std::move(R.Order);
  }
  return Order;
}

void sched::scheduleFunction(Module &M, SchedulerKind Kind,
                             BalanceOptions Opts) {
  for (BasicBlock &B : M.Fn.Blocks) {
    if (B.Instrs.size() <= 2)
      continue;
    std::vector<const Instr *> Ptrs;
    Ptrs.reserve(B.Instrs.size());
    for (const Instr &I : B.Instrs)
      Ptrs.push_back(&I);
    std::vector<unsigned> Order = scheduleRegion(Ptrs, Kind, Opts);
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(B.Instrs.size());
    for (unsigned I : Order)
      NewInstrs.push_back(B.Instrs[I]);
    B.Instrs = std::move(NewInstrs);
  }
}
