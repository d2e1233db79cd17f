//===- sim/FastCaches.h - Optimized memory-system models --------*- C++ -*-===//
///
/// \file
/// Throughput-optimized twins of the Caches.h building blocks, used by the
/// fast simulator core (SimImpl::Fast). Each class reproduces its reference
/// counterpart's observable behaviour bit for bit — same hit/miss decisions,
/// same LRU victim choices, same statistics — while removing the seed
/// implementation's per-access costs:
///
///  * FastCache indexes sets with a shift/mask when the geometry is a power
///    of two (division/modulo otherwise) and resolves the direct-mapped case
///    (the 21164's L1s) with a single tag compare. cheapHits(N) lets the
///    fetch path book N guaranteed hits on the most-recently-touched line at
///    once, without re-probing the set.
///  * FastTlb fronts the fully-associative LRU scan with a 256-entry
///    page->slot hint table indexed by the page number's low bits. Loads and
///    stores alternate among a few pages, which a one-entry MRU front does
///    not catch; the hint does, so a hit costs two loads and a compare and
///    only a miss (or a hint overwritten by a colliding page) walks the
///    entries.
///  * MshrFile and WriteFifo replace the std::map / erase-from-front vector
///    of the seed with fixed-capacity arrays sized by the configuration
///    (6 entries on the 21164): all operations are short linear scans or
///    ring-buffer index arithmetic, no allocation on the simulation path.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SIM_FASTCACHES_H
#define BALSCHED_SIM_FASTCACHES_H

#include "sim/Machine.h"

#include <array>
#include <cstdint>
#include <vector>

namespace bsched {
namespace sim {

namespace fastdetail {

inline bool isPow2(uint64_t X) { return X != 0 && (X & (X - 1)) == 0; }

inline unsigned log2OfPow2(uint64_t X) {
  unsigned S = 0;
  while ((X >>= 1) != 0)
    ++S;
  return S;
}

} // namespace fastdetail

/// Set-associative LRU cache (tags only), behaviourally identical to
/// sim::Cache. The configuration must have passed validateMachineConfig.
class FastCache {
public:
  explicit FastCache(const CacheConfig &C)
      : Assoc(C.Assoc), Latency(C.Latency), LineSize(C.LineSize) {
    NumSets = static_cast<unsigned>(C.SizeBytes / (C.LineSize * C.Assoc));
    Tags.assign(static_cast<size_t>(NumSets) * C.Assoc, ~0ull);
    Stamp.assign(Tags.size(), 0);
    Pow2Line = fastdetail::isPow2(LineSize);
    LineShift = Pow2Line ? fastdetail::log2OfPow2(LineSize) : 0;
    Pow2Sets = fastdetail::isPow2(NumSets);
    SetMask = Pow2Sets ? NumSets - 1 : 0;
  }

  uint64_t lineOf(uint64_t Addr) const {
    return Pow2Line ? Addr >> LineShift : Addr / LineSize;
  }

  /// Returns true on hit; fills the line on miss when \p Allocate is set.
  /// Updates recency and \p Stats either way (exactly like Cache::access).
  bool access(uint64_t Addr, bool Allocate, CacheStats &Stats) {
    ++Stats.Accesses;
    uint64_t Line = lineOf(Addr);
    size_t Base =
        static_cast<size_t>(Pow2Sets ? (Line & SetMask) : (Line % NumSets)) *
        Assoc;
    ++Clock;
    if (Assoc == 1) {
      // Direct-mapped one-probe fast path (the 21164 L1s and L3).
      if (Tags[Base] == Line) {
        Stamp[Base] = Clock;
        LastSlot = Base;
        return true;
      }
      ++Stats.Misses;
      if (Allocate) {
        Tags[Base] = Line;
        Stamp[Base] = Clock;
        LastSlot = Base;
      }
      return false;
    }
    for (unsigned W = 0; W != Assoc; ++W) {
      if (Tags[Base + W] == Line) {
        Stamp[Base + W] = Clock;
        LastSlot = Base + W;
        return true;
      }
    }
    ++Stats.Misses;
    if (Allocate) {
      size_t Victim = Base;
      for (unsigned W = 1; W != Assoc; ++W)
        if (Stamp[Base + W] < Stamp[Victim])
          Victim = Base + W;
      Tags[Victim] = Line;
      Stamp[Victim] = Clock;
      LastSlot = Victim;
    }
    return false;
  }

  /// Hit check that updates recency on hit but never allocates (the L1's
  /// write-around behaviour for stores).
  bool touch(uint64_t Addr, CacheStats &Stats) {
    return access(Addr, /*Allocate=*/false, Stats);
  }

  /// Books \p N accesses that are known to hit the line touched by the
  /// previous access that hit or allocated (the fetch path's same-line run):
  /// identical counter and recency effects to N full access() calls that
  /// hit, without the probes. Only valid when the caller can prove
  /// residency — nothing else may have evicted the line in between. N = 0
  /// changes nothing (that line's stamp already equals the clock).
  void cheapHits(uint64_t N, CacheStats &Stats) {
    Stats.Accesses += N;
    Clock += N;
    Stamp[LastSlot] = Clock;
  }

  unsigned numSets() const { return NumSets; }

private:
  unsigned Assoc;
  int Latency;
  unsigned LineSize;
  unsigned NumSets;
  bool Pow2Line = false, Pow2Sets = false;
  unsigned LineShift = 0;
  uint64_t SetMask = 0;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Stamp;
  uint64_t Clock = 0;
  size_t LastSlot = 0;
};

/// Fully-associative LRU TLB with a page->slot hint front, behaviourally
/// identical to sim::Tlb.
class FastTlb {
public:
  /// Entries in the hint table (a power of two).
  static constexpr unsigned HintSize = 256;

  FastTlb(unsigned Entries, unsigned PageSize)
      : PageSize(PageSize), Pages(Entries, ~0ull), Stamp(Entries, 0) {
    Pow2Page = fastdetail::isPow2(PageSize);
    PageShift = Pow2Page ? fastdetail::log2OfPow2(PageSize) : 0;
    Hint.fill(0);
  }

  /// Returns true on hit; always leaves the page mapped.
  bool access(uint64_t Addr) {
    uint64_t Page = Pow2Page ? Addr >> PageShift : Addr / PageSize;
    ++Clock;
    // Hinted hit. A hint is trusted only when its slot still holds the
    // page; pages are unique in the table, so that slot is exactly the
    // entry the reference scan would find, and it gets the same recency
    // update. A stale hint (its slot was refilled) falls through to the
    // scan, which re-points it.
    uint32_t &H = Hint[Page & (HintSize - 1)];
    if (Pages[H] == Page) {
      Stamp[H] = Clock;
      LastIdx = H;
      return true;
    }
    size_t Victim = 0;
    for (size_t I = 0; I != Pages.size(); ++I) {
      if (Pages[I] == Page) {
        Stamp[I] = Clock;
        H = static_cast<uint32_t>(I);
        LastIdx = H;
        return true;
      }
      if (Stamp[I] < Stamp[Victim])
        Victim = I;
    }
    Pages[Victim] = Page;
    Stamp[Victim] = Clock;
    H = static_cast<uint32_t>(Victim);
    LastIdx = H;
    return false;
  }

  /// Books \p N accesses known to hit the page of the previous access
  /// (fetch same-page runs); identical effects to N access() calls hitting,
  /// without the lookups. N = 0 changes nothing.
  void cheapHits(uint64_t N) {
    Clock += N;
    Stamp[LastIdx] = Clock;
  }

private:
  unsigned PageSize;
  bool Pow2Page = false;
  unsigned PageShift = 0;
  std::vector<uint64_t> Pages;
  std::vector<uint64_t> Stamp;
  /// Slot of the last page looked up whose page number has these low bits;
  /// only a hint (see access()).
  std::array<uint32_t, HintSize> Hint;
  uint64_t Clock = 0;
  uint32_t LastIdx = 0;
};

/// Outstanding-miss file: fixed-capacity array keyed by line address,
/// replacing the seed's std::map<line, completion cycle>. At most one entry
/// per line (the simulator merges while an entry is live and retires stale
/// entries before inserting).
class MshrFile {
public:
  explicit MshrFile(unsigned Capacity) { Entries.resize(Capacity); }

  struct Entry {
    uint64_t Line;
    uint64_t Done;
  };

  /// Completion cycle of the outstanding miss to \p Line, or 0 when absent.
  /// (0 is unambiguous: a real entry's Done is always > the insert cycle.)
  uint64_t findDone(uint64_t Line) const {
    for (unsigned I = 0; I != Count; ++I)
      if (Entries[I].Line == Line)
        return Entries[I].Done;
    return 0;
  }

  /// Drops every entry whose miss has completed by \p Cycle.
  void retire(uint64_t Cycle) {
    for (unsigned I = 0; I != Count;) {
      if (Entries[I].Done <= Cycle)
        Entries[I] = Entries[--Count];
      else
        ++I;
    }
  }

  /// Earliest completion cycle over all live entries (call only when full).
  uint64_t earliestDone() const {
    uint64_t Earliest = ~0ull;
    for (unsigned I = 0; I != Count; ++I)
      if (Entries[I].Done < Earliest)
        Earliest = Entries[I].Done;
    return Earliest;
  }

  /// Inserts a new miss; the caller must have retired any stale entry for
  /// the same line and ensured a free slot (the simulator's stall logic).
  void insert(uint64_t Line, uint64_t Done) {
    Entries[Count++] = {Line, Done};
  }

  unsigned size() const { return Count; }
  unsigned capacity() const { return static_cast<unsigned>(Entries.size()); }

private:
  std::vector<Entry> Entries;
  unsigned Count = 0;
};

/// Write-buffer retire queue: a fixed ring buffer of ascending retire
/// cycles, replacing the seed's erase-from-front vector. Push cycles are
/// non-decreasing (each is current cycle + L2 latency), so FIFO order is
/// retire order.
class WriteFifo {
public:
  explicit WriteFifo(unsigned Capacity) { Buf.resize(Capacity); }

  bool empty() const { return Count == 0; }
  unsigned size() const { return Count; }
  uint64_t front() const { return Buf[Head]; }

  /// Appends one entry; the caller keeps the size below the capacity.
  void push(uint64_t RetireCycle) {
    size_t Tail = Head + Count;
    if (Tail >= Buf.size())
      Tail -= Buf.size();
    Buf[Tail] = RetireCycle;
    ++Count;
  }

  /// Pops every entry retired by \p Cycle.
  void drain(uint64_t Cycle) {
    while (Count != 0 && Buf[Head] <= Cycle) {
      if (++Head == Buf.size())
        Head = 0;
      --Count;
    }
  }

private:
  std::vector<uint64_t> Buf;
  size_t Head = 0;
  unsigned Count = 0;
};

} // namespace sim
} // namespace bsched

#endif // BALSCHED_SIM_FASTCACHES_H
