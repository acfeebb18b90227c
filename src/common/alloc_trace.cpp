#include "src/common/alloc_trace.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace ow::alloc_trace {
namespace {

// Constant-initialized: safe to bump from allocations made during static
// initialization, before main. Plain integers: one thread drives the
// library (docs/API.md).
std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;
int g_trap = 0;

}  // namespace

bool Enabled() noexcept {
#ifdef OW_ALLOC_TRACE
  return true;
#else
  return false;
#endif
}

std::uint64_t NewCount() noexcept { return g_news; }

std::uint64_t DeleteCount() noexcept { return g_deletes; }

TrapScope::TrapScope() noexcept { ++g_trap; }

TrapScope::~TrapScope() { --g_trap; }

}  // namespace ow::alloc_trace

#ifdef OW_ALLOC_TRACE

namespace {

void* TracedAlloc(std::size_t size, std::size_t align) {
  ++ow::alloc_trace::g_news;
  if (ow::alloc_trace::g_trap > 0) {
    // Deliberately no output: printing would itself allocate. Run under a
    // debugger (or inspect the core) for the call stack.
    std::abort();
  }
  if (size == 0) size = 1;
  void* p;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc requires size to be a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) & ~(align - 1));
  }
  return p;
}

void TracedFree(void* p) noexcept {
  ++ow::alloc_trace::g_deletes;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = TracedAlloc(size, alignof(std::max_align_t));
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = TracedAlloc(size, alignof(std::max_align_t));
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = TracedAlloc(size, std::size_t(align));
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = TracedAlloc(size, std::size_t(align));
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return TracedAlloc(size, alignof(std::max_align_t));
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return TracedAlloc(size, alignof(std::max_align_t));
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return TracedAlloc(size, std::size_t(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return TracedAlloc(size, std::size_t(align));
}

void operator delete(void* p) noexcept { TracedFree(p); }
void operator delete[](void* p) noexcept { TracedFree(p); }
void operator delete(void* p, std::size_t) noexcept { TracedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { TracedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { TracedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { TracedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  TracedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  TracedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  TracedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  TracedFree(p);
}

#endif  // OW_ALLOC_TRACE
