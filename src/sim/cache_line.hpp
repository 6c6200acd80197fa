// Whole-cache-line storage for state that threads write side by side.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace dirq::sim {

/// Allocates whole, 64-byte-aligned cache lines, so a buffer never shares
/// a line with another allocation: two threads writing neighbouring
/// buffers never bounce a line between cores.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::size_t kLine = 64;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  static std::size_t bytes(std::size_t n) {
    return (n * sizeof(T) + kLine - 1) / kLine * kLine;  // whole lines
  }
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(bytes(n), std::align_val_t{kLine}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, bytes(n), std::align_val_t{kLine});
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) noexcept {
    return true;
  }
};

template <typename T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace dirq::sim
