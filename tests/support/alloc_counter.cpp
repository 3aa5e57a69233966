// The replacement operators live in their own translation unit: inlined
// into a test's `new T` / `delete` pair, a sized delete that calls free()
// trips gcc's -Wmismatched-new-delete.
#include "support/alloc_counter.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

std::atomic<bool> g_count_allocs{false};
std::atomic<long long> g_alloc_count{0};

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
