// The paper's lockless pool allocator (§III-B).
//
// "To eliminate this lock contention on the free call, we enabled an L2
//  atomic queue for each thread to store a pool of temporary buffers.  Free
//  calls can do a lockless enqueue to the L2 atomic queue belonging to the
//  thread that created the buffer.  There is a threshold for the memory
//  pools after which buffers are freed to the memory heap.  Future malloc
//  calls directly dequeue from the thread's L2 atomic pool via a lockless
//  dequeue."
//
// Mapping onto our queue primitive: each (thread, size-class) pair owns an
// L2AtomicQueue whose *producers* are any threads freeing buffers that this
// thread allocated, and whose single *consumer* is the owning thread's
// allocate path — exactly the MPSC shape the queue implements.  A free that
// finds the pool full (the threshold) releases the buffer to the heap.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "alloc/allocator.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "trace/registry.hpp"

namespace bgq::alloc {

/// Per-thread lockless pool allocator.
///
/// Slab fast path: the dominant small-message size class (`slab_class`,
/// default 128 B — a lean message header plus the small payloads that
/// dominate fine-grained chare traffic) is carved from per-thread slab
/// blocks instead of hitting `operator new` per buffer.  A slab buffer
/// that misses the recycling ring on free (ring full) is parked on a
/// lockless MPSC spill stack owned by the carving thread rather than
/// heap-freed — slab memory is only ever released wholesale, with its
/// block.  Allocation misses therefore probe: own ring -> spill stack ->
/// carve -> heap.
class PoolAllocator final : public IAllocator {
 public:
  /// `pool_slots` is the per-(thread, class) pool threshold — buffers
  /// beyond it are freed to the heap (slab buffers: to the spill
  /// stack).  It also caps how many slab buffers each thread carves;
  /// `slab_class` = kNumSizeClasses disables the slab path.  Each thread
  /// slot counts into its own cells of `metrics` (alloc.pool.hits,
  /// alloc.heap.allocs, alloc.heap.frees, alloc.slab.hits,
  /// alloc.slab.carves).
  PoolAllocator(trace::Registry& metrics, ThreadId nthreads,
                std::size_t pool_slots = 512, std::size_t slab_class = 2);
  ~PoolAllocator() override;

  void* allocate(ThreadId tid, std::size_t bytes) override;
  void deallocate(ThreadId tid, void* p) override;
  ThreadId thread_count() const override { return nthreads_; }

 private:
  struct ThreadPools;

  void* carve(ThreadPools& mine, ThreadId tid);

  const ThreadId nthreads_;
  const std::size_t pool_slots_;
  const std::size_t slab_class_;
  std::vector<std::unique_ptr<ThreadPools>> pools_;  // one per thread
  trace::Cell& unslotted_allocs_;  // kNoSlot heap path (alloc.heap.allocs)
};

}  // namespace bgq::alloc
