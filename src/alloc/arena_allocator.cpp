#include "alloc/arena_allocator.hpp"

#include <cstdlib>
#include <new>
#include <stdexcept>

namespace bgq::alloc {

using detail::BufferHeader;
using detail::class_bytes;
using detail::kFreeMagic;
using detail::kKindArena;
using detail::kKindHeapDirect;
using detail::kLiveMagic;
using detail::kNumSizeClasses;
using detail::size_class_for;

namespace {

BufferHeader* header_of(void* user) {
  return reinterpret_cast<BufferHeader*>(static_cast<char*>(user) -
                                         sizeof(BufferHeader));
}

void* raw_new(std::size_t user_bytes) {
  return ::operator new(sizeof(BufferHeader) + user_bytes,
                        std::align_val_t{16});
}

void raw_delete(BufferHeader* h) {
  ::operator delete(h, std::align_val_t{16});
}

}  // namespace

ArenaAllocator::ArenaAllocator(trace::Registry& metrics, ThreadId nthreads,
                               std::size_t narenas)
    : nthreads_(nthreads),
      arenas_(narenas != 0 ? narenas
                           : std::max<std::size_t>(1, nthreads / 4)),
      contention_(metrics.cell("alloc.arena.contention")) {
  if (nthreads == 0) throw std::invalid_argument("nthreads must be > 0");
}

ArenaAllocator::~ArenaAllocator() {
  for (auto& arena : arenas_) {
    for (auto& list : arena.free_lists) {
      for (void* user : list) raw_delete(header_of(user));
      list.clear();
    }
  }
}

void* ArenaAllocator::allocate_from(Arena& arena, std::uint32_t arena_id,
                                    std::size_t bytes) {
  const std::size_t cls = size_class_for(bytes);
  void* user = nullptr;
  if (cls < kNumSizeClasses && !arena.free_lists[cls].empty()) {
    user = arena.free_lists[cls].back();
    arena.free_lists[cls].pop_back();
  } else {
    const std::size_t user_bytes =
        cls < kNumSizeClasses ? class_bytes(cls) : bytes;
    user = static_cast<char*>(raw_new(user_bytes)) + sizeof(BufferHeader);
  }
  auto* h = header_of(user);
  h->owner = arena_id;
  h->size_class = static_cast<std::uint16_t>(cls);
  h->kind = cls < kNumSizeClasses ? kKindArena : kKindHeapDirect;
  h->magic = kLiveMagic;
  return user;
}

void* ArenaAllocator::allocate(ThreadId tid, std::size_t bytes) {
  // ptmalloc-style arena selection: start at the thread's preferred arena,
  // take the first one whose mutex is free; if all are busy, block on the
  // preferred one (and count the contention event).
  const std::size_t n = arenas_.size();
  const std::size_t preferred = tid % n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = (preferred + i) % n;
    if (arenas_[a].mutex.try_lock()) {
      std::lock_guard<std::mutex> g(arenas_[a].mutex, std::adopt_lock);
      return allocate_from(arenas_[a], static_cast<std::uint32_t>(a), bytes);
    }
  }
  Arena& arena = arenas_[preferred];
  {
    std::lock_guard<std::mutex> g(arena.mutex);
    contention_.add();
    return allocate_from(arena, static_cast<std::uint32_t>(preferred),
                         bytes);
  }
}

void ArenaAllocator::deallocate(ThreadId /*tid*/, void* p) {
  auto* h = header_of(p);
  if (h->magic != kLiveMagic) throw std::logic_error("bad free (arena)");
  h->magic = kFreeMagic;

  if (h->kind == kKindHeapDirect) {
    raw_delete(h);
    return;
  }

  // The modelled ptmalloc cost: the free MUST lock the owning arena.
  Arena& arena = arenas_[h->owner];
  const bool contended = !arena.mutex.try_lock();
  if (contended) arena.mutex.lock();
  std::lock_guard<std::mutex> g(arena.mutex, std::adopt_lock);
  if (contended) contention_.add();
  arena.free_lists[h->size_class].push_back(p);
}

}  // namespace bgq::alloc
