// Counting global operator new/delete, linked only into the traced
// binary.  It sees every C++ heap allocation of the process — including
// the packet objects and vectors the runtime's pool allocator never
// handles — which makes it the yardstick for "heap allocations per
// message".  Counters are per thread (a plain load/store on the owner's
// cell, no shared cache line) and summed on demand.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace perfbench {
namespace {

struct alignas(64) Cell {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
  Cell* next = nullptr;
};

// Cells are malloc'd and never freed: a thread's counts must outlive it.
std::atomic<Cell*> g_cells{nullptr};
thread_local Cell* tls_cell = nullptr;

void count(std::size_t n) noexcept {
  Cell* c = tls_cell;
  if (c == nullptr) {
    void* raw = std::malloc(sizeof(Cell));
    if (raw == nullptr) return;
    c = new (raw) Cell;
    c->next = g_cells.load(std::memory_order_relaxed);
    while (!g_cells.compare_exchange_weak(c->next, c,
                                          std::memory_order_acq_rel)) {
    }
    tls_cell = c;
  }
  c->allocs.store(c->allocs.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  c->bytes.store(c->bytes.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  count(n);
  const auto a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (::posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                       n != 0 ? n : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

HeapTotals heap_totals() noexcept {
  HeapTotals t;
  for (Cell* c = g_cells.load(std::memory_order_acquire); c != nullptr;
       c = c->next) {
    t.allocs += c->allocs.load(std::memory_order_relaxed);
    t.bytes += c->bytes.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
