//===- tests/support_test.cpp - Unit tests for the support library --------===//

#include "support/BitVec.h"
#include "support/RNG.h"
#include "support/Str.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/ZeroBuffer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace bsched;

TEST(Str, FmtDouble) {
  EXPECT_EQ(fmtDouble(1.234, 2), "1.23");
  EXPECT_EQ(fmtDouble(1.0, 2), "1.00");
  EXPECT_EQ(fmtDouble(-0.5, 1), "-0.5");
}

TEST(Str, FmtPercent) {
  EXPECT_EQ(fmtPercent(0.233), "23.3%");
  EXPECT_EQ(fmtPercent(-0.121), "-12.1%");
  EXPECT_EQ(fmtPercent(1.0, 0), "100%");
}

TEST(Str, FmtInt) {
  EXPECT_EQ(fmtInt(0), "0");
  EXPECT_EQ(fmtInt(999), "999");
  EXPECT_EQ(fmtInt(1000), "1,000");
  EXPECT_EQ(fmtInt(1234567), "1,234,567");
  EXPECT_EQ(fmtInt(-1234567), "-1,234,567");
}

TEST(Str, FmtMillions) {
  EXPECT_EQ(fmtMillions(17844800000ull), "17844.8");
  EXPECT_EQ(fmtMillions(500000), "0.5");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(startsWith("hello", "he"));
  EXPECT_TRUE(startsWith("hello", ""));
  EXPECT_FALSE(startsWith("he", "hello"));
}

TEST(Table, RendersAlignedColumns) {
  Table T({"Name", "Value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "2"});
  std::string Out = T.render();
  // Header present, all rows present, rows have equal width.
  EXPECT_NE(Out.find("Name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  size_t FirstNL = Out.find('\n');
  ASSERT_NE(FirstNL, std::string::npos);
  // All lines equal length (aligned table).
  size_t Width = FirstNL;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t NL = Out.find('\n', Pos);
    ASSERT_NE(NL, std::string::npos);
    EXPECT_EQ(NL - Pos, Width);
    Pos = NL + 1;
  }
}

TEST(Table, ShortRowsArePadded) {
  Table T({"A", "B", "C"});
  T.addRow({"x"});
  EXPECT_EQ(T.numRows(), 1u);
  EXPECT_NE(T.render().find('x'), std::string::npos);
}

TEST(Table, CaptionIsFirstLine) {
  Table T({"A"});
  T.setCaption("Table 1: caption");
  EXPECT_TRUE(startsWith(T.render(), "Table 1: caption\n"));
}

TEST(RNG, Deterministic) {
  RNG A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RNG, DoubleInUnitInterval) {
  RNG R(7);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RNG, BoolProbabilityRoughlyMatches) {
  RNG R(11);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBool(0.3);
  double P = static_cast<double>(Hits) / N;
  EXPECT_NEAR(P, 0.3, 0.02);
}

TEST(RNG, NextBelowInRange) {
  RNG R(3);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RNG, NextBelowIsUnbiased) {
  // Regression for the classic modulo bias. With Bound = 3 * 2^62, a bare
  // `next() % Bound` maps the top quarter of the 64-bit range onto
  // [0, 2^62) a second time, so ~1/2 of all samples land below 2^62 where a
  // uniform draw puts only 1/3 there. Rejection sampling must hold 1/3.
  RNG R(7);
  const uint64_t Bound = 3ull << 62;
  const uint64_t Third = 1ull << 62;
  const int N = 3000;
  int Low = 0;
  for (int I = 0; I != N; ++I) {
    uint64_t X = R.nextBelow(Bound);
    ASSERT_LT(X, Bound);
    Low += X < Third;
  }
  // Uniform expectation 1000 (sigma ~26); the biased scheme would give
  // ~1500. The window is ~5 sigma wide on a deterministic stream.
  EXPECT_GT(Low, 870);
  EXPECT_LT(Low, 1130);
}

TEST(BitVec, SetTestReset) {
  BitVec V(130);
  EXPECT_FALSE(V.any());
  V.set(0);
  V.set(64);
  V.set(129);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(129));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 3u);
  V.reset(64);
  EXPECT_FALSE(V.test(64));
  EXPECT_EQ(V.count(), 2u);
}

TEST(BitVec, OrSubtractAnd) {
  BitVec A(100), B(100);
  A.set(3);
  B.set(3);
  B.set(70);
  EXPECT_TRUE(A.orWith(B));
  EXPECT_TRUE(A.test(70));
  EXPECT_FALSE(A.orWith(B)); // No change second time.
  A.subtract(B);
  EXPECT_FALSE(A.any());
  A.set(5);
  A.set(6);
  B.clear();
  B.set(6);
  A.andWith(B);
  EXPECT_FALSE(A.test(5));
  EXPECT_TRUE(A.test(6));
}

TEST(BitVec, ForEachVisitsInOrder) {
  BitVec V(200);
  V.set(1);
  V.set(63);
  V.set(64);
  V.set(199);
  std::vector<unsigned> Seen;
  V.forEach([&](unsigned I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{1, 63, 64, 199}));
}

TEST(BitVec, Equality) {
  BitVec A(10), B(10);
  EXPECT_TRUE(A == B);
  A.set(9);
  EXPECT_FALSE(A == B);
  B.set(9);
  EXPECT_TRUE(A == B);
}

//===----------------------------------------------------------------------===//
// ThreadPool chunked dispatch
//===----------------------------------------------------------------------===//

// Every index is executed exactly once, across worker counts that
// undershoot, match, and oversubscribe the index range.
TEST(ThreadPoolChunked, EveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 2u, 3u, 8u}) {
    for (size_t Count : {size_t(0), size_t(1), size_t(5), size_t(257)}) {
      std::vector<std::atomic<unsigned>> Seen(Count);
      ThreadPool::parallelForChunked(Threads, Count,
                                     [&](size_t I) { ++Seen[I]; });
      for (size_t I = 0; I != Count; ++I)
        EXPECT_EQ(Seen[I].load(), 1u)
            << "threads " << Threads << " count " << Count << " index " << I;
    }
  }
}

// Results written by index are independent of the worker count (the
// determinism contract runAll builds on).
TEST(ThreadPoolChunked, GuidedResultsIndependentOfThreadCount) {
  constexpr size_t Count = 1000;
  auto Run = [&](unsigned Threads) {
    std::vector<uint64_t> Out(Count);
    ThreadPool::parallelForChunked(Threads, Count,
                                   [&](size_t I) { Out[I] = I * I + 7; });
    return Out;
  };
  std::vector<uint64_t> One = Run(1);
  std::vector<uint64_t> Eight = Run(8);
  EXPECT_EQ(One, Eight);
}

// A loop never starts more workers than there are indices. The ceiling is
// checked on workersFor, which starts no thread; only the small case runs.
TEST(ThreadPoolChunked, NoMoreWorkersThanIndices) {
  EXPECT_EQ(ThreadPool::workersFor(8, 3), 3u);
  EXPECT_EQ(ThreadPool::workersFor(2, 3), 2u);
  EXPECT_EQ(ThreadPool::workersFor(0, 1), 1u);
  EXPECT_EQ(ThreadPool::workersFor(4294967295u, 5), 5u);

  std::mutex M;
  std::set<std::thread::id> Ids;
  ThreadPool::parallelForChunked(8, 3, [&](size_t) {
    std::lock_guard<std::mutex> Lock(M);
    Ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(Ids.size(), 3u);
}

// The calling thread is worker 0 of the loop. Four indices on four workers,
// each of which records its thread and then waits until all four have
// arrived: a worker parked at the latch cannot claim a second index, so
// every worker holds exactly one, and the caller's id appears exactly once
// (a pool whose caller only waits would show it zero times). A one-worker
// loop runs inline.
TEST(ThreadPoolChunked, CallingThreadIsWorkerZero) {
  const std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Ran(4);
  std::latch AllArrived(4);
  ThreadPool::parallelForChunked(4, Ran.size(), [&](size_t I) {
    Ran[I] = std::this_thread::get_id();
    AllArrived.arrive_and_wait();
  });
  EXPECT_EQ(std::count(Ran.begin(), Ran.end(), Caller), 1);
  EXPECT_EQ(std::set<std::thread::id>(Ran.begin(), Ran.end()).size(), 4u);

  Ran.assign(5, std::thread::id());
  ThreadPool::parallelForChunked(
      1, Ran.size(), [&](size_t I) { Ran[I] = std::this_thread::get_id(); });
  for (std::thread::id Id : Ran)
    EXPECT_EQ(Id, Caller);
}

//===----------------------------------------------------------------------===//
// ZeroBuffer
//===----------------------------------------------------------------------===//

// Every block reads zero, below the map threshold (calloc) and at or above
// it (a mapping of its own). Each size is allocated three times and dirtied
// in between, so an allocator that reuses the freed block without zeroing
// it shows.
TEST(ZeroBuffer, ReadsZeroBelowAndAboveTheMapThreshold) {
  for (size_t Bytes : {size_t(64), ZeroBufferMapBytes / 2,
                       ZeroBufferMapBytes - 8, ZeroBufferMapBytes,
                       2 * ZeroBufferMapBytes + 8}) {
    for (int Round = 0; Round != 3; ++Round) {
      ZeroBuffer<uint64_t> B(Bytes / 8);
      ASSERT_EQ(B.size(), Bytes / 8);
      size_t NonZero = 0;
      for (size_t I = 0; I != B.size(); ++I)
        NonZero += B[I] != 0;
      EXPECT_EQ(NonZero, 0u) << Bytes << " bytes, round " << Round;
      std::memset(B.data(), 0xa5, Bytes);
    }
  }
}

TEST(ZeroBuffer, CopiesAreDeep) {
  for (size_t N : {size_t(16), ZeroBufferMapBytes + 1}) {
    ZeroBuffer<uint8_t> A(N);
    A[0] = 1;
    A[N - 1] = 2;
    ZeroBuffer<uint8_t> B = A;
    ASSERT_EQ(B.size(), N);
    EXPECT_NE(B.data(), A.data());
    EXPECT_EQ(B[0], 1);
    EXPECT_EQ(B[N - 1], 2);
    B[0] = 3;
    EXPECT_EQ(A[0], 1);

    ZeroBuffer<uint8_t> C(1);
    C = A;
    ASSERT_EQ(C.size(), N);
    C[N - 1] = 4;
    EXPECT_EQ(A[N - 1], 2);
  }
}

TEST(ZeroBuffer, MovedFromIsEmpty) {
  ZeroBuffer<uint64_t> A(4);
  A[3] = 7;
  uint64_t *Data = A.data();
  ZeroBuffer<uint64_t> B = std::move(A);
  EXPECT_EQ(A.size(), 0u);
  EXPECT_EQ(A.data(), nullptr);
  EXPECT_EQ(B.data(), Data);
  EXPECT_EQ(B[3], 7u);

  ZeroBuffer<uint64_t> C(2);
  C = std::move(B);
  EXPECT_EQ(B.size(), 0u);
  EXPECT_EQ(B.data(), nullptr);
  EXPECT_EQ(C.size(), 4u);
  EXPECT_EQ(C[3], 7u);
}

TEST(ZeroBuffer, SizeZero) {
  ZeroBuffer<uint64_t> Empty;
  ZeroBuffer<uint64_t> Z(0);
  EXPECT_EQ(Empty.size(), 0u);
  EXPECT_EQ(Z.size(), 0u);
  EXPECT_EQ(Z.data(), nullptr);
  ZeroBuffer<uint64_t> Copy = Z;
  EXPECT_EQ(Copy.size(), 0u);
  Copy = ZeroBuffer<uint64_t>(3);
  EXPECT_EQ(Copy.size(), 3u);
  Copy = Empty;
  EXPECT_EQ(Copy.size(), 0u);
}
