//===- support/ZeroBuffer.h - Owning zero-filled array ----------*- C++ -*-===//
///
/// \file
/// A fixed-size, owning, zero-filled array of a trivially copyable type. It
/// backs the two images a job sizes from its program: the IR machine's
/// memory (ir::ExecState) and the AST oracle's array cells
/// (lang::evalProgram).
///
/// A block of at least ZeroBufferMapBytes (1 MiB) is an anonymous mapping
/// of its own, returned to the kernel when the buffer dies. When glibc's
/// malloc frees a mapped chunk larger than its mmap threshold, it raises
/// the threshold to that size (and the trim threshold to twice it), so a
/// few multi-megabyte images freed on pool threads would make later images
/// of that size heap chunks that stay resident in the threads' arenas after
/// they are freed; a mapping of its own never enters malloc. A smaller
/// block comes from calloc: mapping every block made the generated-program
/// workload slower, probably from munmap's cross-thread TLB shootdowns.
///
/// AddressSanitizer puts no redzones around a mapped block, so it would not
/// report an overrun of a large image. Only the 8 MB Table 2 latency probe
/// crosses 1 MiB today; the AST oracle checks every subscript against its
/// array's extent, and the IR interpreters range-check their loads and
/// assert on their stores.
///
/// Copies are deep; a moved-from buffer is empty.
///
//===----------------------------------------------------------------------===//

#ifndef BALSCHED_SUPPORT_ZEROBUFFER_H
#define BALSCHED_SUPPORT_ZEROBUFFER_H

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace bsched {

/// Blocks of at least this many bytes are mapped, not taken from malloc.
inline constexpr size_t ZeroBufferMapBytes = size_t(1) << 20;

/// Zeroed storage for \p Count objects of \p Size bytes, aligned for any
/// fundamental type; nullptr when that is 0 bytes. Throws std::bad_alloc
/// when the memory cannot be had or the byte count overflows.
void *allocZeroBlock(size_t Count, size_t Size);
/// Releases a block of \p Bytes that allocZeroBlock returned (nullptr is a
/// no-op).
void freeZeroBlock(void *P, size_t Bytes);

template <typename T> class ZeroBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "a zero-filled block must be a valid array of T");

public:
  ZeroBuffer() = default;
  explicit ZeroBuffer(size_t N)
      : Data(static_cast<T *>(allocZeroBlock(N, sizeof(T)))), N(N) {}
  ZeroBuffer(const ZeroBuffer &O) : ZeroBuffer(O.N) {
    if (N)
      std::memcpy(Data, O.Data, N * sizeof(T));
  }
  ZeroBuffer(ZeroBuffer &&O) noexcept
      : Data(std::exchange(O.Data, nullptr)), N(std::exchange(O.N, 0)) {}
  ZeroBuffer &operator=(ZeroBuffer O) noexcept {
    std::swap(Data, O.Data);
    std::swap(N, O.N);
    return *this;
  }
  ~ZeroBuffer() { freeZeroBlock(Data, N * sizeof(T)); }

  size_t size() const { return N; }
  T *data() { return Data; }
  const T *data() const { return Data; }
  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }

private:
  T *Data = nullptr;
  size_t N = 0;
};

} // namespace bsched

#endif // BALSCHED_SUPPORT_ZEROBUFFER_H
