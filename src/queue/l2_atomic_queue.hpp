// Lockless producer–consumer queue over L2 atomics (paper §III-A, Fig. 2).
//
// Layout and protocol follow the paper exactly:
//   * a pair of L2 counters in adjacent memory locations — the producer
//     counter and the bound;
//   * a vector of slots for message pointers;
//   * producers claim a slot with a bounded load-increment; the slot index
//     is old_counter % queue_size;
//   * when the bounded increment fails (counter == bound, queue full) the
//     producer inserts into a mutex-protected overflow queue;
//   * the consumer drains the L2 atomic queue first, then the overflow
//     queue; each drained slot raises the bound, re-opening it.
//
// Because Charm++ has no message-ordering requirement the consumer touches
// the overflow queue only when the lockless queue is empty — the cheap path
// never takes a lock.  (Contrast OrderedL2Queue, the PAMI/MPI-semantics
// variant, in ordered_l2_queue.hpp.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/cacheline.hpp"
#include "l2atomic/l2_atomic.hpp"
#include "trace/session.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::queue {

/// Multi-producer single-consumer lockless queue of pointers.
///
/// T must be a pointer type; nullptr marks an empty slot (messages are
/// heap-allocated in the runtime, so a null payload never occurs).
template <typename T = void*>
class L2AtomicQueue {
  static_assert(std::is_pointer_v<T>, "slots hold message pointers");

 public:
  /// Capacity is rounded up to a power of two (slot index becomes a mask,
  /// like the production queue).  Default matches the Charm++ PAMI layer.
  explicit L2AtomicQueue(std::size_t capacity = 1024)
      : size_(next_pow2(capacity < 2 ? 2 : capacity)),
        mask_(size_ - 1),
        counters_(size_),
        slots_(size_) {
    for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
  }

  L2AtomicQueue(const L2AtomicQueue&) = delete;
  L2AtomicQueue& operator=(const L2AtomicQueue&) = delete;

  /// Producer side; callable concurrently from any number of threads.
  /// Never fails: overflows spill to the mutex-protected overflow queue.
  /// Returns true when the fast lockless path was taken.
  bool enqueue(T msg) {
    const std::uint64_t ticket = counters_.bounded_increment();
    if (ticket != l2::kBoundedFailure) {
      BGQ_SCHED_POINT("queue.enqueue.claimed");
      slots_[ticket & mask_].store(msg, std::memory_order_release);
      return true;
    }
    BGQ_SCHED_POINT("queue.enqueue.spill");
    trace::emit_here(trace::EventKind::kQueueSpill,
                     static_cast<std::uint32_t>(size_));
    {
      BGQ_SCHED_BLOCK_BEGIN();
      std::unique_lock<std::mutex> g(overflow_mutex_);
      BGQ_SCHED_BLOCK_END();
      overflow_.push_back(msg);
    }
    overflow_size_.fetch_add(1, std::memory_order_release);
    return false;
  }

  /// Producer side, no-spill variant: returns false when the lockless ring
  /// is full instead of spilling to overflow.  The pool allocator uses this
  /// — a buffer that does not fit in the pool is freed to the heap
  /// (§III-B's pool threshold), never queued under a lock.
  bool try_enqueue(T msg) {
    const std::uint64_t ticket = counters_.bounded_increment();
    if (ticket == l2::kBoundedFailure) return false;
    BGQ_SCHED_POINT("queue.try_enqueue.claimed");
    slots_[ticket & mask_].store(msg, std::memory_order_release);
    return true;
  }

  /// Consumer side; single thread only.  Returns nullptr when empty.
  T try_dequeue() {
    const std::size_t slot = consumer_count_ & mask_;
    T msg = slots_[slot].load(std::memory_order_acquire);
    BGQ_SCHED_POINT("queue.dequeue.loaded");
    if (msg != nullptr) {
      slots_[slot].store(nullptr, std::memory_order_relaxed);
      ++consumer_count_;
      BGQ_SCHED_POINT("queue.dequeue.cleared");
      counters_.advance_bound(1);
      return msg;
    }
    // Lockless queue empty (or a producer is mid-publish on this slot —
    // the caller re-polls either way).  Only now may the overflow queue be
    // touched, and only if the size hint says it is non-empty.
    if (overflow_size_.load(std::memory_order_acquire) > 0) {
      BGQ_SCHED_BLOCK_BEGIN();
      std::unique_lock<std::mutex> g(overflow_mutex_);
      BGQ_SCHED_BLOCK_END();
      if (!overflow_.empty()) {
        T m = overflow_.front();
        overflow_.pop_front();
        overflow_size_.fetch_sub(1, std::memory_order_release);
        return m;
      }
    }
    return nullptr;
  }

  /// Cheap emptiness probe for the idle-poll loop (§III-D): a single L2
  /// load on the producer counter — exactly what the optimized BG/Q idle
  /// poll spins on.  Consumer thread only (reads the consumer cursor).
  bool probably_empty() const noexcept {
    return counters_.counter() == consumed_count_estimate() &&
           overflow_size_.load(std::memory_order_acquire) == 0;
  }

  std::size_t capacity() const noexcept { return size_; }

  /// Number of messages currently in the lockless ring (approximate under
  /// concurrency; exact when quiescent).
  std::size_t ring_size() const noexcept {
    const std::uint64_t produced = counters_.counter();
    return static_cast<std::size_t>(produced - consumer_count_);
  }

  std::size_t overflow_count() const noexcept {
    return overflow_size_.load(std::memory_order_acquire);
  }

  bool empty() const noexcept {
    return ring_size() == 0 && overflow_count() == 0;
  }

 private:
  std::uint64_t consumed_count_estimate() const noexcept {
    return consumer_count_;
  }

  const std::size_t size_;
  const std::size_t mask_;

  l2::BoundedCounter counters_;  // producer counter + bound, own L2 line

  std::vector<std::atomic<T>> slots_;

  // Consumer-private cursor; padded away from the shared counters.
  alignas(kL2Line) std::uint64_t consumer_count_ = 0;

  alignas(kL2Line) std::atomic<std::size_t> overflow_size_{0};
  std::mutex overflow_mutex_;
  std::deque<T> overflow_;
};

}  // namespace bgq::queue
