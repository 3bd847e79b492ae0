#ifndef ROADNET_TESTS_COUNTING_ALLOCATOR_H_
#define ROADNET_TESTS_COUNTING_ALLOCATOR_H_

// Live heap bytes of a test binary. This header replaces the global
// operator new and delete, single, array, sized and nothrow forms, so
// every byte allocated through them is counted and the high-water mark
// kept. Include it from exactly one source file of a test binary of its
// own, so no other test runs on the counting allocator.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace roadnet::counting_allocator {

inline std::atomic<size_t> g_live_bytes{0};
inline std::atomic<size_t> g_peak_bytes{0};

// Each block carries its size in a header, so delete knows what it frees.
inline constexpr size_t kHeader = alignof(std::max_align_t);

inline void* Allocate(size_t size) noexcept {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) return nullptr;
  *static_cast<size_t*>(block) = size;
  const size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeader;
}

inline void* AllocateOrThrow(size_t size) {
  void* p = Allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void Release(void* p) noexcept {
  if (p == nullptr) return;
  char* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<size_t*>(block),
                         std::memory_order_relaxed);
  std::free(block);
}

}  // namespace roadnet::counting_allocator

namespace roadnet {

// Bytes allocated and not yet freed.
inline size_t LiveHeapBytes() {
  return counting_allocator::g_live_bytes.load();
}

// Starts a new high-water mark at the live bytes, and returns them.
inline size_t ResetPeakHeapBytes() {
  const size_t live = LiveHeapBytes();
  counting_allocator::g_peak_bytes.store(live);
  return live;
}

// The most bytes live at once since the last ResetPeakHeapBytes().
inline size_t PeakHeapBytes() {
  return counting_allocator::g_peak_bytes.load();
}

}  // namespace roadnet

void* operator new(size_t size) {
  return roadnet::counting_allocator::AllocateOrThrow(size);
}
void* operator new[](size_t size) {
  return roadnet::counting_allocator::AllocateOrThrow(size);
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return roadnet::counting_allocator::Allocate(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return roadnet::counting_allocator::Allocate(size);
}
void operator delete(void* p) noexcept {
  roadnet::counting_allocator::Release(p);
}
void operator delete[](void* p) noexcept {
  roadnet::counting_allocator::Release(p);
}
void operator delete(void* p, size_t) noexcept {
  roadnet::counting_allocator::Release(p);
}
void operator delete[](void* p, size_t) noexcept {
  roadnet::counting_allocator::Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  roadnet::counting_allocator::Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  roadnet::counting_allocator::Release(p);
}

#endif  // ROADNET_TESTS_COUNTING_ALLOCATOR_H_
