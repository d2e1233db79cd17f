//===- tests/caches_test.cpp - Cache / TLB / predictor unit tests ---------===//

#include "sim/Caches.h"
#include "sim/FastCaches.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

using namespace bsched;
using namespace bsched::sim;

namespace {

CacheConfig smallCache(uint64_t Size = 256, unsigned Line = 32,
                       unsigned Assoc = 2) {
  return CacheConfig{Size, Line, Assoc, 2};
}

} // namespace

TEST(Cache, ColdMissThenHit) {
  Cache C(smallCache());
  CacheStats S;
  EXPECT_FALSE(C.access(0x100, true, S));
  EXPECT_TRUE(C.access(0x100, true, S));
  EXPECT_TRUE(C.access(0x11f, true, S)) << "same 32-byte line";
  EXPECT_FALSE(C.access(0x120, true, S)) << "next line";
  EXPECT_EQ(S.Accesses, 4u);
  EXPECT_EQ(S.Misses, 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // 256B / 32B / 2-way = 4 sets; lines mapping to set 0 are 0, 4, 8, ...
  Cache C(smallCache());
  ASSERT_EQ(C.numSets(), 4u);
  CacheStats S;
  auto LineAddr = [](uint64_t Line) { return Line * 32; };
  C.access(LineAddr(0), true, S);  // set 0, way A
  C.access(LineAddr(4), true, S);  // set 0, way B
  C.access(LineAddr(0), true, S);  // touch A: B becomes LRU
  C.access(LineAddr(8), true, S);  // evicts B (line 4)
  EXPECT_TRUE(C.access(LineAddr(0), true, S));
  EXPECT_FALSE(C.access(LineAddr(4), true, S)) << "line 4 was evicted";
}

TEST(Cache, DirectMappedConflicts) {
  Cache C(smallCache(256, 32, 1)); // 8 sets, direct mapped
  CacheStats S;
  C.access(0, true, S);
  C.access(256, true, S); // same set, evicts
  EXPECT_FALSE(C.access(0, true, S));
}

TEST(Cache, TouchNeverAllocates) {
  Cache C(smallCache());
  CacheStats S;
  EXPECT_FALSE(C.touch(0x40, S));
  EXPECT_FALSE(C.touch(0x40, S)) << "touch must not have filled the line";
  C.access(0x40, true, S);
  EXPECT_TRUE(C.touch(0x40, S));
}

TEST(Cache, StatsMissRate) {
  CacheStats S;
  EXPECT_DOUBLE_EQ(S.missRate(), 0.0);
  S.Accesses = 8;
  S.Misses = 2;
  EXPECT_DOUBLE_EQ(S.missRate(), 0.25);
}

TEST(Tlb, HitAfterInstall) {
  Tlb T(4, 8192);
  EXPECT_FALSE(T.access(0));
  EXPECT_TRUE(T.access(100)) << "same page";
  EXPECT_FALSE(T.access(8192)) << "next page";
  EXPECT_TRUE(T.access(8192 + 4096));
}

TEST(Tlb, LruReplacement) {
  Tlb T(2, 8192);
  T.access(0 * 8192);
  T.access(1 * 8192);
  T.access(0 * 8192);  // page 0 most recent
  T.access(2 * 8192);  // evicts page 1
  EXPECT_TRUE(T.access(0 * 8192));
  EXPECT_FALSE(T.access(1 * 8192));
}

TEST(Predictor, LearnsAlwaysTaken) {
  BranchPredictor P(16);
  uint64_t Addr = 0x1000;
  // Weakly-not-taken start: the first taken outcomes mispredict, then lock.
  P.predictAndUpdate(Addr, true);
  P.predictAndUpdate(Addr, true);
  for (int K = 0; K != 20; ++K)
    EXPECT_TRUE(P.predictAndUpdate(Addr, true));
}

TEST(Predictor, AlternatingPatternMispredicts) {
  BranchPredictor P(16);
  uint64_t Addr = 0x2000;
  int Wrong = 0;
  for (int K = 0; K != 100; ++K)
    Wrong += !P.predictAndUpdate(Addr, K % 2 == 0);
  EXPECT_GT(Wrong, 40) << "2-bit counters cannot track strict alternation";
}

TEST(Predictor, HysteresisSurvivesOneExit) {
  BranchPredictor P(16);
  uint64_t Addr = 0x3000;
  for (int K = 0; K != 8; ++K)
    P.predictAndUpdate(Addr, true);
  P.predictAndUpdate(Addr, false); // loop exit
  EXPECT_TRUE(P.predictAndUpdate(Addr, true))
      << "one not-taken must not flip a saturated counter";
}

TEST(Predictor, IndexedByAddress) {
  BranchPredictor P(1024);
  // Different (word-aligned) addresses train independently.
  for (int K = 0; K != 4; ++K) {
    P.predictAndUpdate(0x4000, true);
    P.predictAndUpdate(0x4004, false);
  }
  EXPECT_TRUE(P.predictAndUpdate(0x4000, true));
  EXPECT_TRUE(P.predictAndUpdate(0x4004, false));
}

//===----------------------------------------------------------------------===//
// Fast twins (FastCaches.h): behaviourally identical to the reference models
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic address stream with reuse: a small working set makes hits,
/// misses, conflicts and evictions all common.
uint64_t nextAddr(uint64_t &State) {
  State = State * 6364136223846793005ull + 1442695040888963407ull;
  return (State >> 33) % (1 << 16);
}

} // namespace

TEST(FastCache, MatchesReferenceOnRandomStream) {
  // Geometries covering each fast path and its fallback: power-of-two
  // direct-mapped (one-probe path), power-of-two set-associative, a
  // non-power-of-two set count (div/mod fallback), and a non-power-of-two
  // line size.
  const CacheConfig Geometries[] = {
      {256, 32, 1, 2},  // 8 sets, direct mapped, all power of two
      {512, 32, 2, 2},  // 8 sets, 2-way
      {4800, 32, 3, 2}, // 50 sets: non-power-of-two set count
      {240, 24, 1, 2},  // non-power-of-two line size, 10 sets
  };
  for (const CacheConfig &G : Geometries) {
    Cache Ref(G);
    FastCache Fast(G);
    ASSERT_EQ(Fast.numSets(), Ref.numSets());
    CacheStats RS, FS;
    uint64_t Stream = G.SizeBytes; // per-geometry seed
    for (int I = 0; I != 20000; ++I) {
      uint64_t Addr = nextAddr(Stream);
      bool Allocate = (Stream & 4) != 0;
      ASSERT_EQ(Fast.access(Addr, Allocate, FS), Ref.access(Addr, Allocate, RS))
          << "geometry " << G.SizeBytes << "/" << G.LineSize << "/" << G.Assoc
          << " access " << I;
      ASSERT_EQ(FS.Accesses, RS.Accesses);
      ASSERT_EQ(FS.Misses, RS.Misses);
    }
  }
}

TEST(FastCache, CheapHitsMatchRealHits) {
  // After an allocating access, cheapHits(N) must leave the cache exactly as
  // N real accesses to the same line would: same counters now, and the same
  // victims later (the random stream keeps evicting). N = 0 must change
  // nothing. Direct-mapped (the 21164's L1I) and 2-way geometries.
  for (const CacheConfig &G :
       {CacheConfig{256, 32, 1, 2}, CacheConfig{256, 32, 2, 2}}) {
    Cache Ref(G);
    FastCache Fast(G);
    CacheStats RS, FS;
    uint64_t Stream = 7 + G.Assoc;
    for (int I = 0; I != 5000; ++I) {
      uint64_t Addr = nextAddr(Stream);
      ASSERT_EQ(Fast.access(Addr, true, FS), Ref.access(Addr, true, RS))
          << "assoc " << G.Assoc << " access " << I;
      uint64_t N = (Stream >> 40) % 6; // 0..5 booked hits
      for (uint64_t K = 0; K != N; ++K)
        ASSERT_TRUE(Ref.access(Addr, true, RS));
      Fast.cheapHits(N, FS);
      ASSERT_EQ(FS.Accesses, RS.Accesses);
      ASSERT_EQ(FS.Misses, RS.Misses);
    }
  }
}

namespace {

/// Runs \p Addrs through the reference and the fast TLB and asserts that
/// every access hits or misses alike. Recency state shows up in which page
/// a later miss evicts, so equal outcomes over a stream that keeps
/// evicting pin the LRU order too.
void expectTlbTwins(unsigned Entries, unsigned PageSize,
                    const std::vector<uint64_t> &Addrs,
                    const std::string &What) {
  Tlb Ref(Entries, PageSize);
  FastTlb Fast(Entries, PageSize);
  for (size_t I = 0; I != Addrs.size(); ++I)
    ASSERT_EQ(Fast.access(Addrs[I]), Ref.access(Addrs[I]))
        << What << ": " << Entries << " entries, page " << PageSize
        << ", access " << I;
}

/// Alternates among \p Pages pages the way loads and stores do: mostly
/// a fixed rotation with random picks in the set, plus an occasional page
/// from outside it so the LRU order is exercised by evictions.
std::vector<uint64_t> workingSetStream(unsigned Pages, unsigned PageSize,
                                       uint64_t Seed, int Length) {
  std::vector<uint64_t> Addrs;
  uint64_t State = Seed;
  for (int I = 0; I != Length; ++I) {
    uint64_t R = nextAddr(State);
    uint64_t Page = R % 16 == 0 ? Pages + R % 64 // outside the set
                    : R % 4 == 0 ? R % Pages    // random pick in the set
                                 : static_cast<uint64_t>(I) % Pages;
    Addrs.push_back(Page * PageSize + R % PageSize);
  }
  return Addrs;
}

} // namespace

TEST(FastTlb, MatchesReferenceOnRandomStream) {
  struct Geometry {
    unsigned Entries;
    unsigned PageSize;
  };
  const Geometry Geometries[] = {
      {1, 8192}, {4, 8192}, {48, 8192}, {3, 1000} /* non-power-of-two page */};
  for (const Geometry &G : Geometries) {
    std::vector<uint64_t> Addrs;
    uint64_t Stream = G.Entries * 131 + G.PageSize;
    for (int I = 0; I != 20000; ++I)
      Addrs.push_back(nextAddr(Stream) * 257); // spread across pages
    expectTlbTwins(G.Entries, G.PageSize, Addrs, "random stream");
  }
}

TEST(FastTlb, HintedHitsOnSmallWorkingSets) {
  // Working sets that fit a 64-entry TLB hit through the hint after warm-up;
  // 1- and 2-entry TLBs and the non-power-of-two page thrash the same sets.
  for (unsigned Entries : {1u, 2u, 64u})
    for (unsigned PageSize : {8192u, 3000u})
      for (unsigned Pages : {2u, 3u, 5u, 8u, 17u, 32u, 48u})
        expectTlbTwins(Entries, PageSize,
                       workingSetStream(Pages, PageSize, Pages * 7 + Entries,
                                        4000),
                       "working set of " + std::to_string(Pages));
}

TEST(FastTlb, CollidingHintIndices) {
  // Pages a multiple of the hint-table size apart share one hint, so each
  // lookup can find the hint pointing at the other page's slot.
  const uint64_t Stride = FastTlb::HintSize;
  for (unsigned Entries : {1u, 2u, 64u})
    for (unsigned PageSize : {8192u, 3000u}) {
      std::vector<uint64_t> Addrs;
      uint64_t State = Entries + PageSize;
      for (int I = 0; I != 4000; ++I) {
        uint64_t R = nextAddr(State);
        // Four colliding pages on index 5, two on index 9, alternating.
        uint64_t Page = I % 3 == 2 ? 9 + Stride * (R % 2)
                                   : 5 + Stride * (R % 4);
        Addrs.push_back(Page * PageSize + R % PageSize);
      }
      expectTlbTwins(Entries, PageSize, Addrs, "colliding hints");
    }
}

TEST(FastTlb, StaleHintAfterEviction) {
  // Page 3's hint names its slot; pages 4 and 5 then evict it from a
  // 2-entry TLB and refill that slot, so the hint is stale: page 3 must
  // miss, and page 3 + HintSize (same hint) must not hit through it.
  const uint64_t P = 8192, H = FastTlb::HintSize;
  expectTlbTwins(2, 8192,
                 {3 * P, 4 * P, 5 * P, 3 * P, 4 * P, 5 * P, (3 + H) * P,
                  3 * P, (3 + H) * P, 3 * P, 3 * P},
                 "stale hint");
  // A slot refilled by a page with the same hint index, then the original
  // page again: the hint matches the index but not the page.
  expectTlbTwins(1, 8192, {3 * P, (3 + H) * P, 3 * P, (3 + H) * P},
                 "refilled slot");
}

TEST(FastTlb, CheapHitsMatchRealHits) {
  for (unsigned Entries : {1u, 4u, 64u}) {
    Tlb Ref(Entries, 8192);
    FastTlb Fast(Entries, 8192);
    uint64_t Stream = 99 + Entries;
    for (int I = 0; I != 5000; ++I) {
      uint64_t Addr = nextAddr(Stream) * 64;
      ASSERT_EQ(Fast.access(Addr), Ref.access(Addr))
          << Entries << " entries, access " << I;
      // Same-page re-touches: full lookups on the reference, booked hits on
      // the fast twin; LRU order must stay identical afterwards.
      uint64_t N = (Stream >> 40) % 6; // 0..5
      for (uint64_t K = 0; K != N; ++K)
        ASSERT_TRUE(Ref.access(Addr));
      Fast.cheapHits(N);
    }
  }
}

TEST(MshrFile, MergeRetireAndPressure) {
  MshrFile M(2);
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.findDone(10), 0u) << "absent line reports 0";
  M.insert(10, 100);
  M.insert(20, 50);
  EXPECT_EQ(M.size(), 2u);
  EXPECT_EQ(M.findDone(10), 100u);
  EXPECT_EQ(M.findDone(20), 50u);
  EXPECT_EQ(M.earliestDone(), 50u);
  M.retire(49);
  EXPECT_EQ(M.size(), 2u) << "nothing complete yet";
  M.retire(50);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_EQ(M.findDone(20), 0u);
  EXPECT_EQ(M.findDone(10), 100u);
  M.retire(1000);
  EXPECT_EQ(M.size(), 0u);
}

TEST(WriteFifo, DrainsInOrder) {
  WriteFifo W(3);
  EXPECT_TRUE(W.empty());
  W.push(10);
  W.push(20);
  W.push(30);
  EXPECT_EQ(W.size(), 3u);
  EXPECT_EQ(W.front(), 10u);
  W.drain(9);
  EXPECT_EQ(W.size(), 3u);
  W.drain(20);
  EXPECT_EQ(W.size(), 1u);
  EXPECT_EQ(W.front(), 30u);
  // Ring wrap: reuse freed slots.
  W.push(40);
  W.push(50);
  EXPECT_EQ(W.size(), 3u);
  W.drain(40);
  EXPECT_EQ(W.size(), 1u);
  EXPECT_EQ(W.front(), 50u);
  W.drain(50);
  EXPECT_TRUE(W.empty());
}

TEST(WriteFifo, MatchesDequeAcrossWraps) {
  // The simulator's use: push non-decreasing retire cycles while below
  // capacity, drain by the current cycle. Thousands of operations wrap
  // the ring many times at each capacity.
  for (unsigned Capacity : {1u, 2u, 6u}) {
    WriteFifo W(Capacity);
    std::deque<uint64_t> D;
    uint64_t State = Capacity, Cycle = 0;
    for (int I = 0; I != 20000; ++I) {
      uint64_t R = nextAddr(State);
      Cycle += R % 3;
      if (R % 5 < 3 && D.size() < Capacity) {
        uint64_t Retire = Cycle + 1 + (R >> 8) % 4;
        if (!D.empty() && Retire < D.back())
          Retire = D.back();
        W.push(Retire);
        D.push_back(Retire);
      } else {
        W.drain(Cycle);
        while (!D.empty() && D.front() <= Cycle)
          D.pop_front();
      }
      ASSERT_EQ(W.size(), D.size()) << "capacity " << Capacity << " op " << I;
      ASSERT_EQ(W.empty(), D.empty());
      if (!D.empty()) {
        ASSERT_EQ(W.front(), D.front())
            << "capacity " << Capacity << " op " << I;
      }
    }
  }
}
