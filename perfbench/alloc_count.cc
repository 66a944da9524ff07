// Counting global operator new for the benchmark binary (the same hook
// tests/alloc_regression_test.cc installs). The counter is per thread, so
// the fleet's stepper threads and the native operator threads do not
// contend on one cache line; the tick workloads read the main thread's
// count around each tick.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "report.h"

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

namespace perfbench {
std::uint64_t ThreadAllocations() { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1)) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
