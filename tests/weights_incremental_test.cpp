//===- tests/weights_incremental_test.cpp - Incremental balanced weights ---===//
//
// Pins sched::BalancedWeightsBuilder against the one-shot balancedWeights:
// the builder's contract is that weights() is bit-identical to a single
// from-scratch pass over the final region, no matter how the region was
// covered by extend() steps. Two layers:
//
//  * Hand regions: small IR blocks with known dependence shapes (independent
//    loads, chained loads, mixed fixed-latency work), extended at every
//    prefix granularity — including one node at a time — under several
//    BalanceOptions, with one builder instance recycled across all of them.
//  * Pipeline sweep: every trace-scheduling configuration of the canonical
//    differential list, over every workload. Each formed trace's region is
//    reassembled from the compiled module (CompileResult.Trace.Formed) with
//    the trace scheduler's control edges, and the builder must reproduce the
//    one-shot weights when extending block by block, exactly as the trace
//    compaction path does.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/Workloads.h"
#include "fuzz/Configs.h"
#include "ir/IRParser.h"
#include "sched/DepDAG.h"
#include "sched/Schedule.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::ir;
using namespace bsched::sched;

namespace {

/// Requires the builder, covering \p G through the given extension steps
/// (each entry an UpTo value; a final full extend is always appended), to
/// reproduce the one-shot balancedWeights bit for bit. \p WB is passed in so
/// callers can exercise storage recycling across begin() cycles.
void expectBuilderMatchesOneShot(BalancedWeightsBuilder &WB, const DepDAG &G,
                                 const std::vector<const Instr *> &Instrs,
                                 const std::vector<unsigned> &Steps,
                                 const BalanceOptions &Opts,
                                 const std::string &What) {
  std::vector<double> OneShot = balancedWeights(G, Instrs, Opts);
  WB.begin(Opts);
  for (unsigned UpTo : Steps)
    WB.extend(G, Instrs, UpTo);
  WB.extend(G, Instrs);
  std::vector<double> Incremental = WB.weights(Instrs);
  ASSERT_EQ(Incremental.size(), OneShot.size()) << What;
  for (size_t I = 0; I != OneShot.size(); ++I)
    EXPECT_EQ(Incremental[I], OneShot[I])
        << What << ": weight of node " << I
        << " diverged from the one-shot computation";
}

/// The BalanceOptions variants worth sweeping: the default, a tight weight
/// cap (changes the padding-credit saturation), hit annotations ignored, and
/// fixed-op balancing on (widens the candidate set beyond loads).
std::vector<std::pair<const char *, BalanceOptions>> optionVariants() {
  std::vector<std::pair<const char *, BalanceOptions>> Vs;
  Vs.push_back({"default", BalanceOptions{}});
  BalanceOptions Cap;
  Cap.WeightCap = 6.0;
  Vs.push_back({"cap6", Cap});
  BalanceOptions NoHits;
  NoHits.RespectHitAnnotations = false;
  Vs.push_back({"nohits", NoHits});
  BalanceOptions Fixed;
  Fixed.BalanceFixedOps = true;
  Vs.push_back({"fixedops", Fixed});
  return Vs;
}

Module parseIR(const char *Text) {
  ParseIRResult R = parseModule(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

/// Every prefix-step schedule worth testing for a region of \p N nodes:
/// one node at a time, every 2nd/3rd node, a single midpoint split, and the
/// degenerate no-step case (one full extend).
std::vector<std::vector<unsigned>> stepSchedules(unsigned N) {
  std::vector<std::vector<unsigned>> All;
  for (unsigned K : {1u, 2u, 3u}) {
    std::vector<unsigned> Steps;
    for (unsigned UpTo = K; UpTo < N; UpTo += K)
      Steps.push_back(UpTo);
    All.push_back(std::move(Steps));
  }
  All.push_back({N / 2});
  All.push_back({});
  return All;
}

} // namespace

//===----------------------------------------------------------------------===//
// Hand regions
//===----------------------------------------------------------------------===//

/// Figure-1-style shapes: a fan of independent loads sharing padders, a
/// dependent load chain (components split the credit), and fixed-latency
/// floating-point work interleaved between them. Every prefix granularity of
/// every shape, under every option variant, through one recycled builder.
TEST(WeightsIncremental, HandRegionsEveryPrefixGranularity) {
  const char *Shapes[] = {
      // Independent loads feeding one reduction: maximal sharing.
      R"(
array A 64
func fan
b0:
  ldi v1, 0
  fld v2, 0(v1)
  fld v3, 8(v1)
  fld v4, 16(v1)
  fld v5, 24(v1)
  fadd v6, v2, v3
  fadd v7, v4, v5
  fadd v8, v6, v7
  fst v8, 32(v1)
  ret
)",
      // A chained-load spine with side work: related loads split credit.
      R"(
array A 64
func chain
b0:
  ldi v1, 0
  ld v2, 0(v1)
  ld v3, 0(v2)
  ld v4, 8(v3)
  itof v5, v4
  fmul v6, v5, v5
  fadd v7, v6, v5
  fst v7, 16(v1)
  add v8, v2, #4
  st v8, 24(v1)
  ret
)",
      // Mixed: two independent chains plus fixed-latency dividers, the shape
      // where BalanceFixedOps changes the candidate set.
      R"(
array A 128
func mixed
b0:
  ldi v1, 0
  fld v2, 0(v1)
  fld v3, 8(v1)
  fdiv v4, v2, v3
  fld v5, 16(v1)
  fld v6, 24(v1)
  fmul v7, v5, v6
  fadd v8, v4, v7
  fld v9, 32(v1)
  fadd v10, v8, v9
  fst v10, 40(v1)
  ret
)",
  };

  BalancedWeightsBuilder WB; // one instance across everything: recycling.
  for (const char *Text : Shapes) {
    Module M = parseIR(Text);
    const BasicBlock &B = M.Fn.Blocks[0];
    std::vector<const Instr *> Ptrs;
    for (const Instr &I : B.Instrs)
      Ptrs.push_back(&I);
    DepDAG G = buildDepDAG(Ptrs);
    addBlockControlEdges(G, Ptrs);
    for (const auto &[Tag, Opts] : optionVariants())
      for (const std::vector<unsigned> &Steps :
           stepSchedules(static_cast<unsigned>(Ptrs.size())))
        expectBuilderMatchesOneShot(
            WB, G, Ptrs, Steps, Opts,
            std::string(M.Fn.Name) + " [" + Tag + ", " +
                std::to_string(Steps.size()) + " steps]");
  }
}

/// Repeating an extend with the same UpTo (or one that covers nothing new)
/// must be a no-op: the trace scheduler's boundary list can contain a final
/// boundary equal to the region size.
TEST(WeightsIncremental, RedundantExtendsAreNoOps) {
  Module M = parseIR(R"(
array A 64
func redundant
b0:
  ldi v1, 0
  fld v2, 0(v1)
  fld v3, 8(v1)
  fadd v4, v2, v3
  fst v4, 16(v1)
  ret
)");
  std::vector<const Instr *> Ptrs;
  for (const Instr &I : M.Fn.Blocks[0].Instrs)
    Ptrs.push_back(&I);
  DepDAG G = buildDepDAG(Ptrs);
  addBlockControlEdges(G, Ptrs);
  unsigned N = static_cast<unsigned>(Ptrs.size());
  BalancedWeightsBuilder WB;
  // Each boundary repeated, plus a full-size step before the implicit final
  // extend — the worst redundancy the trace path can produce.
  expectBuilderMatchesOneShot(WB, G, Ptrs, {2, 2, 4, 4, N, N}, {},
                              "redundant extends");
}

//===----------------------------------------------------------------------===//
// Pipeline sweep over the workload suite
//===----------------------------------------------------------------------===//

/// Reassembles each formed trace's scheduling region from the compiled
/// module and checks builder-vs-one-shot equality with the trace
/// scheduler's own extension schedule (one step per block boundary).
TEST(WeightsIncremental, WorkloadTraceSweep) {
  int RegionsChecked = 0;
  BalancedWeightsBuilder WB;
  for (const driver::CompileOptions &Base :
       fuzz::differentialCompileConfigs()) {
    if (!Base.TraceScheduling)
      continue;
    driver::CompileOptions Opts = Base;
    // Virtual-register code is what the trace compaction actually weighed;
    // stopping before regalloc keeps the reassembled regions closest to it.
    Opts.StopBeforeRegAlloc = true;
    for (const driver::Workload &W : driver::workloads()) {
      lang::Program P = driver::parseWorkload(W);
      driver::CompileResult R = driver::compileProgram(P, Opts);
      ASSERT_TRUE(R.ok()) << W.Name << " [" << Opts.tag() << "]: " << R.Error;
      const Function &F = R.M.Fn;
      for (const trace::Trace &T : R.Trace.Formed) {
        // Region = concatenated trace blocks, exactly as scheduleTrace
        // assembles it; TermNode marks each block's terminator position.
        std::vector<const Instr *> Ptrs;
        std::vector<unsigned> TermNode;
        std::vector<int> Home;
        for (size_t Pos = 0; Pos != T.size(); ++Pos) {
          for (const Instr &I : F.Blocks[T[Pos]].Instrs) {
            Home.push_back(static_cast<int>(Pos));
            Ptrs.push_back(&I);
          }
          TermNode.push_back(static_cast<unsigned>(Ptrs.size()) - 1);
        }
        if (Ptrs.size() <= 2)
          continue;
        DepDAG G = buildDepDAG(Ptrs);
        // The trace scheduler's unconditional control edges: branches keep
        // their order, nothing moves below its home terminator. (The
        // split/join legality edges depend on liveness and profile flow;
        // the builder contract holds for any DAG, so the unconditional
        // subset exercises it on the real region shapes.)
        for (size_t Pos = 1; Pos != T.size(); ++Pos)
          G.addEdge(TermNode[Pos - 1], TermNode[Pos]);
        for (unsigned I = 0; I != Ptrs.size(); ++I)
          G.addEdge(I, TermNode[static_cast<size_t>(Home[I])]);
        std::vector<unsigned> Steps;
        for (size_t Pos = 0; Pos + 1 < TermNode.size(); ++Pos)
          Steps.push_back(TermNode[Pos] + 1);
        expectBuilderMatchesOneShot(
            WB, G, Ptrs, Steps, Opts.Balance,
            std::string(W.Name) + " [" + Opts.tag() + "] trace of " +
                std::to_string(T.size()) + " blocks");
        ++RegionsChecked;
      }
    }
  }
  // The sweep must actually have exercised multi-block extension; a
  // regression that stops forming traces would otherwise pass vacuously.
  EXPECT_GT(RegionsChecked, 100)
      << "trace formation collapsed: too few regions reached the builder";
}
