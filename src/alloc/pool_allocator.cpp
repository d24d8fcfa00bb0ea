#include "alloc/pool_allocator.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/cacheline.hpp"
#include "trace/session.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::alloc {

using detail::BufferHeader;
using detail::class_bytes;
using detail::kFreeMagic;
using detail::kKindHeapDirect;
using detail::kKindPool;
using detail::kKindSlab;
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

/// One L2 atomic pool per size class, owned by one thread — plus the
/// thread's slab state: the block being carved, every block ever carved
/// (wholesale free in the destructor), and the lockless spill stack that
/// catches slab buffers whose recycling ring was full.  The stack is a
/// Treiber list threaded through the (free) buffers' own user bytes:
/// producers CAS-push from any thread, and only the owning thread pops,
/// which is what makes the pop CAS ABA-safe (a node can't be recycled
/// out from under the single popper).
struct PoolAllocator::ThreadPools {
  explicit ThreadPools(std::size_t slots)
      : pools{queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots),
              queue::L2AtomicQueue<void*>(slots)} {}

  queue::L2AtomicQueue<void*> pools[kNumSizeClasses];

  alignas(kL2Line) std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> heap_allocs{0};
  std::atomic<std::uint64_t> heap_frees{0};
  std::atomic<std::uint64_t> slab_hits{0};
  std::atomic<std::uint64_t> slab_carves{0};

  // Slab state.  `spill` holds user pointers of free slab buffers.
  alignas(kL2Line) std::atomic<void*> spill{nullptr};
  char* carve_at = nullptr;        ///< next buffer in the current block
  char* carve_end = nullptr;       ///< end of the current block
  std::size_t carved = 0;          ///< buffers carved so far (capped)
  std::vector<void*> slab_blocks;  ///< owner-thread mutation only

  // The next-link lives in the free buffer's first user bytes, written
  // with plain memcpy: each producer writes only its own node's link
  // before the release CAS publishes it, and the single popper reads it
  // after the acquire load — no concurrent access to any link.
  void spill_push(void* user) noexcept {
    void* head = spill.load(std::memory_order_relaxed);
    do {
      std::memcpy(user, &head, sizeof head);
      BGQ_SCHED_POINT("alloc.slab.push");
    } while (!spill.compare_exchange_weak(head, user,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  void* spill_pop() noexcept {
    void* head = spill.load(std::memory_order_acquire);
    while (head != nullptr) {
      BGQ_SCHED_POINT("alloc.slab.pop");
      void* next;
      std::memcpy(&next, head, sizeof next);
      if (spill.compare_exchange_weak(head, next,
                                      std::memory_order_acquire,
                                      std::memory_order_acquire)) {
        return head;
      }
    }
    return nullptr;
  }
};

static_assert(kNumSizeClasses == 12,
              "ThreadPools initializer list must match kNumSizeClasses");

PoolAllocator::PoolAllocator(ThreadId nthreads, std::size_t pool_slots,
                             std::size_t slab_class)
    : nthreads_(nthreads), pool_slots_(pool_slots), slab_class_(slab_class) {
  if (nthreads == 0) throw std::invalid_argument("nthreads must be > 0");
  pools_.reserve(nthreads);
  for (ThreadId t = 0; t < nthreads; ++t) {
    pools_.push_back(std::make_unique<ThreadPools>(pool_slots_));
  }
}

PoolAllocator::~PoolAllocator() {
  // Rings may hold slab buffers: their memory belongs to the blocks and
  // is released wholesale below, never buffer-by-buffer.
  for (auto& tp : pools_) {
    for (auto& pool : tp->pools) {
      while (void* user = pool.try_dequeue()) {
        if (header_of(user)->kind != kKindSlab) raw_delete(header_of(user));
      }
    }
    for (void* block : tp->slab_blocks) {
      ::operator delete(block, std::align_val_t{16});
    }
  }
}

/// Slab carve: hand out the next buffer of the current block, starting a
/// fresh block when the current one is exhausted.  Owner thread only.
/// Returns nullptr once this thread's carve budget (pool_slots_) is
/// spent — steady state should recycle, not grow the slab forever.
void* PoolAllocator::carve(ThreadPools& mine, ThreadId tid) {
  const std::size_t stride =
      sizeof(BufferHeader) + class_bytes(slab_class_);
  if (mine.carve_at == mine.carve_end) {
    if (mine.carved >= pool_slots_) return nullptr;
    // One block per 64 buffers (or the remaining budget, if smaller).
    const std::size_t n = std::min<std::size_t>(64, pool_slots_ - mine.carved);
    auto* block = static_cast<char*>(
        ::operator new(n * stride, std::align_val_t{16}));
    mine.slab_blocks.push_back(block);
    mine.carve_at = block;
    mine.carve_end = block + n * stride;
  }
  void* user = mine.carve_at + sizeof(BufferHeader);
  mine.carve_at += stride;
  ++mine.carved;
  auto* h = header_of(user);
  h->owner = tid;
  h->size_class = static_cast<std::uint16_t>(slab_class_);
  h->kind = kKindSlab;
  h->magic = kLiveMagic;
  mine.slab_carves.fetch_add(1, std::memory_order_relaxed);
  return user;
}

void* PoolAllocator::allocate(ThreadId tid, std::size_t bytes) {
  if (tid >= nthreads_) {
    // A thread with no slot owns no pool: serve it from the heap.
    unslotted_allocs_.fetch_add(1, std::memory_order_relaxed);
    void* user = static_cast<char*>(raw_new(bytes)) + sizeof(BufferHeader);
    auto* h = header_of(user);
    h->owner = 0;
    h->size_class = static_cast<std::uint16_t>(kNumSizeClasses);
    h->kind = kKindHeapDirect;
    h->magic = kLiveMagic;
    return user;
  }
  const std::size_t cls = size_class_for(bytes);
  ThreadPools& mine = *pools_[tid];

  if (cls < kNumSizeClasses) {
    // Lockless dequeue from this thread's own pool (we are the single
    // consumer of our own pools).
    BGQ_SCHED_POINT("alloc.pool.poll");
    if (void* user = mine.pools[cls].try_dequeue()) {
      auto* h = header_of(user);
      BGQ_SCHED_POINT("alloc.pool.hit");
      h->magic = kLiveMagic;
      h->owner = tid;  // ownership is stable, but keep the header honest
      mine.pool_hits.fetch_add(1, std::memory_order_relaxed);
      if (h->kind == kKindSlab) {
        mine.slab_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return user;
    }
    if (cls == slab_class_) {
      // Ring miss on the dominant class: probe the spill stack (slab
      // buffers whose free found the ring full), then carve.
      if (void* user = mine.spill_pop()) {
        auto* h = header_of(user);
        if (h->magic != kLiveMagic) {  // always true: spilled frees
          h->magic = kLiveMagic;
        }
        h->owner = tid;
        mine.slab_hits.fetch_add(1, std::memory_order_relaxed);
        return user;
      }
      if (void* user = carve(mine, tid)) return user;
    }
  }

  const std::size_t user_bytes =
      cls < kNumSizeClasses ? class_bytes(cls) : bytes;
  void* user = static_cast<char*>(raw_new(user_bytes)) + sizeof(BufferHeader);
  auto* h = header_of(user);
  h->owner = tid;
  h->size_class = static_cast<std::uint16_t>(cls);
  h->kind = cls < kNumSizeClasses ? kKindPool : kKindHeapDirect;
  h->magic = kLiveMagic;
  mine.heap_allocs.fetch_add(1, std::memory_order_relaxed);
  trace::emit_here(trace::EventKind::kAllocHeapGrow,
                   static_cast<std::uint32_t>(cls));
  return user;
}

void PoolAllocator::deallocate(ThreadId /*tid*/, void* p) {
  auto* h = header_of(p);
  if (h->magic != kLiveMagic) throw std::logic_error("bad free (pool)");

  if (h->kind == kKindHeapDirect) {
    h->magic = kFreeMagic;
    raw_delete(h);
    return;
  }

  // Lockless enqueue to the pool of the thread that created the buffer —
  // any thread may do this concurrently.  Past the threshold (ring full),
  // free to the heap.  Mark the buffer free *before* publishing it so a
  // double free is caught whether the buffer is pooled or re-issued.
  h->magic = kFreeMagic;
  BGQ_SCHED_POINT("alloc.free.marked");
  ThreadPools& owner = *pools_[h->owner];
  if (!owner.pools[h->size_class].try_enqueue(p)) {
    if (h->kind == kKindSlab) {
      // Slab memory is never heap-freed buffer-by-buffer: park it on the
      // carving thread's spill stack for its next ring miss.
      owner.spill_push(p);
      return;
    }
    const std::uint16_t cls = h->size_class;
    raw_delete(h);
    // Counted on the owner: the freeing thread may have no slot here.
    owner.heap_frees.fetch_add(1, std::memory_order_relaxed);
    trace::emit_here(trace::EventKind::kAllocHeapSpill, cls);
  }
}

std::uint64_t PoolAllocator::pool_hits() const {
  std::uint64_t n = 0;
  for (auto& tp : pools_) n += tp->pool_hits.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t PoolAllocator::heap_allocs() const {
  std::uint64_t n = unslotted_allocs_.load(std::memory_order_relaxed);
  for (auto& tp : pools_)
    n += tp->heap_allocs.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t PoolAllocator::heap_frees() const {
  std::uint64_t n = 0;
  for (auto& tp : pools_) n += tp->heap_frees.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t PoolAllocator::slab_hits() const {
  std::uint64_t n = 0;
  for (auto& tp : pools_) n += tp->slab_hits.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t PoolAllocator::slab_carves() const {
  std::uint64_t n = 0;
  for (auto& tp : pools_)
    n += tp->slab_carves.load(std::memory_order_relaxed);
  return n;
}

}  // namespace bgq::alloc
