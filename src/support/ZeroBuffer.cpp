//===- support/ZeroBuffer.cpp - Owning zero-filled array ------------------===//

#include "support/ZeroBuffer.h"

#include <cstdlib>
#include <new>

#include <sys/mman.h>

using namespace bsched;

void *bsched::allocZeroBlock(size_t Count, size_t Size) {
  if (Size != 0 && Count > static_cast<size_t>(-1) / Size)
    throw std::bad_alloc();
  size_t Bytes = Count * Size;
  if (Bytes == 0)
    return nullptr;
  if (Bytes >= ZeroBufferMapBytes) {
    // Anonymous pages read as zero.
    void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    return P;
  }
  void *P = std::calloc(Count, Size);
  if (!P)
    throw std::bad_alloc();
  return P;
}

void bsched::freeZeroBlock(void *P, size_t Bytes) {
  if (!P)
    return;
  if (Bytes >= ZeroBufferMapBytes)
    ::munmap(P, Bytes);
  else
    std::free(P);
}
