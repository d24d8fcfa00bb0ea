// Seeded mutants: intentionally broken variants of the lockless runtime
// structures, used to prove the harness has teeth.  Each mutant re-creates
// a bug class the real implementations defend against; the linearizability
// checker (or the deadlock watchdog) must flag every one of them under the
// schedule fuzzer, or the harness is vacuous.
//
//   MutantRacyTicketQueue — replaces the L2 bounded load-increment with a
//       plain read-check-write.  Two producers can claim the same ticket
//       and overwrite each other's slot: a message is lost (BagQueueSpec
//       violation at the post-drain empty probe).
//
//   MutantNoDrainQueue — takes the overflow spill on a full ring but the
//       consumer never drains the overflow queue: every spilled message is
//       lost (the §III-A protocol requires ring-then-overflow draining).
//
//   MutantStaleSlotQueue — the consumer forgets to clear the slot after
//       reading it.  The nulled slot IS the emptiness protocol, so after
//       the ring wraps the consumer re-reads the stale pointer and delivers
//       a message twice (BagQueueSpec duplicate-dequeue violation).
//
//   MutantLatchGate — replaces the wakeup gate's epoch comparison with a
//       sticky boolean latch.  A wake() with no waiter leaves the latch
//       set, so a later commit_wait returns with no justifying wake
//       (GateSpec violation); conversely one wake() can be swallowed by
//       the wrong waiter, parking the other forever (watchdog deadlock).
//
//   MutantEarlyRecheckDoorbell — the shm doorbell's withdrawing drainer
//       re-checks the rings *before* it leaves the count.  A producer
//       that publishes in between still reads a non-zero count and skips
//       the ring, so its frame waits on a poller that sleeps forever
//       (watchdog deadlock).
//
//   MutantEarlyRecheckPark — the shm poller re-checks for frames *before*
//       prepare_wait() announces it on the doorbell's gate.  A frame
//       published and rung in between bumps the epoch before the poller
//       snapshots it, so the poller commits on the post-ring epoch and
//       sleeps forever (watchdog deadlock).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>
#include <vector>

#include "common/cacheline.hpp"
#include "l2atomic/l2_atomic.hpp"
#include "transport/doorbell.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::verify {

/// Shared ring plumbing for the queue mutants (capacity, slots, overflow).
template <typename T>
class MutantQueueBase {
  static_assert(std::is_pointer_v<T>);

 public:
  explicit MutantQueueBase(std::size_t capacity)
      : size_(next_pow2(capacity < 2 ? 2 : capacity)),
        mask_(size_ - 1),
        slots_(size_) {
    for (auto& s : slots_) s.store(nullptr, std::memory_order_relaxed);
  }

  std::size_t capacity() const noexcept { return size_; }

  std::size_t overflow_count() const noexcept {
    return overflow_size_.load(std::memory_order_acquire);
  }

 protected:
  void spill(T msg) {
    BGQ_SCHED_BLOCK_BEGIN();
    std::unique_lock<std::mutex> g(overflow_mutex_);
    BGQ_SCHED_BLOCK_END();
    overflow_.push_back(msg);
    overflow_size_.fetch_add(1, std::memory_order_release);
  }

  T drain_overflow() {
    if (overflow_size_.load(std::memory_order_acquire) == 0) return nullptr;
    BGQ_SCHED_BLOCK_BEGIN();
    std::unique_lock<std::mutex> g(overflow_mutex_);
    BGQ_SCHED_BLOCK_END();
    if (overflow_.empty()) return nullptr;
    T m = overflow_.front();
    overflow_.pop_front();
    overflow_size_.fetch_sub(1, std::memory_order_release);
    return m;
  }

  const std::size_t size_;
  const std::size_t mask_;
  std::vector<std::atomic<T>> slots_;
  std::uint64_t consumer_count_ = 0;

  std::atomic<std::size_t> overflow_size_{0};
  std::mutex overflow_mutex_;
  std::deque<T> overflow_;
};

/// BUG: non-atomic ticket claim (read, check bound, write back) instead of
/// the bounded load-increment — the exact race the L2 atomic unit exists
/// to close.
template <typename T = void*>
class MutantRacyTicketQueue : public MutantQueueBase<T> {
  using Base = MutantQueueBase<T>;

 public:
  explicit MutantRacyTicketQueue(std::size_t capacity = 8)
      : Base(capacity), bound_(this->size_) {}

  bool enqueue(T msg) {
    const std::uint64_t cur = counter_.load(std::memory_order_acquire);
    BGQ_SCHED_POINT("mutant.ticket.loaded");
    if (cur >= bound_.load(std::memory_order_acquire)) {
      this->spill(msg);
      return false;
    }
    counter_.store(cur + 1, std::memory_order_release);  // lost-update race
    BGQ_SCHED_POINT("mutant.ticket.claimed");
    this->slots_[cur & this->mask_].store(msg, std::memory_order_release);
    return true;
  }

  T try_dequeue() {
    const std::size_t slot = this->consumer_count_ & this->mask_;
    T msg = this->slots_[slot].load(std::memory_order_acquire);
    BGQ_SCHED_POINT("mutant.dequeue.loaded");
    if (msg != nullptr) {
      this->slots_[slot].store(nullptr, std::memory_order_relaxed);
      ++this->consumer_count_;
      bound_.fetch_add(1, std::memory_order_acq_rel);
      return msg;
    }
    return this->drain_overflow();
  }

 private:
  std::atomic<std::uint64_t> counter_{0};
  std::atomic<std::uint64_t> bound_;
};

/// BUG: the consumer never drains the overflow queue — every message that
/// spilled past the bound is silently dropped.
template <typename T = void*>
class MutantNoDrainQueue : public MutantQueueBase<T> {
  using Base = MutantQueueBase<T>;

 public:
  explicit MutantNoDrainQueue(std::size_t capacity = 8)
      : Base(capacity), counters_(this->size_) {}

  bool enqueue(T msg) {
    const std::uint64_t ticket = counters_.bounded_increment();
    if (ticket == l2::kBoundedFailure) {
      this->spill(msg);
      return false;
    }
    BGQ_SCHED_POINT("mutant.nodrain.publish");
    this->slots_[ticket & this->mask_].store(msg, std::memory_order_release);
    return true;
  }

  T try_dequeue() {
    const std::size_t slot = this->consumer_count_ & this->mask_;
    T msg = this->slots_[slot].load(std::memory_order_acquire);
    if (msg != nullptr) {
      this->slots_[slot].store(nullptr, std::memory_order_relaxed);
      ++this->consumer_count_;
      counters_.advance_bound(1);
      return msg;
    }
    return nullptr;  // overflow drain dropped
  }

 private:
  l2::BoundedCounter counters_;
};

/// BUG: the consumer forgets to null the slot it just read.  After the
/// ring wraps, the stale pointer is re-read and delivered a second time.
template <typename T = void*>
class MutantStaleSlotQueue : public MutantQueueBase<T> {
  using Base = MutantQueueBase<T>;

 public:
  explicit MutantStaleSlotQueue(std::size_t capacity = 4)
      : Base(capacity), counters_(this->size_) {}

  bool enqueue(T msg) {
    const std::uint64_t ticket = counters_.bounded_increment();
    if (ticket == l2::kBoundedFailure) {
      this->spill(msg);
      return false;
    }
    this->slots_[ticket & this->mask_].store(msg, std::memory_order_release);
    return true;
  }

  T try_dequeue() {
    const std::size_t slot = this->consumer_count_ & this->mask_;
    T msg = this->slots_[slot].load(std::memory_order_acquire);
    BGQ_SCHED_POINT("mutant.stale.loaded");
    if (msg != nullptr) {
      // slot clear dropped: the emptiness protocol is broken
      ++this->consumer_count_;
      counters_.advance_bound(1);
      return msg;
    }
    return this->drain_overflow();
  }

 private:
  l2::BoundedCounter counters_;
};

/// BUG: a sticky boolean latch instead of the epoch comparison.  The epoch
/// counter is still maintained so the history recorder can stamp
/// prepare/wake values, but commit_wait ignores it.
class MutantLatchGate {
 public:
  std::uint64_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_seq_cst);
  }

  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  void commit_wait(std::uint64_t /*seen*/) {
    BGQ_SCHED_POINT("mutant.gate.commit");
    BGQ_SCHED_BLOCK_BEGIN();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] {
        return signaled_.load(std::memory_order_acquire);
      });
    }
    BGQ_SCHED_BLOCK_END();
    signaled_.store(false, std::memory_order_release);  // consume the latch
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  void wake() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    signaled_.store(true, std::memory_order_seq_cst);
    BGQ_SCHED_BLOCK_BEGIN();
    {
      std::lock_guard<std::mutex> g(mutex_);
    }
    BGQ_SCHED_BLOCK_END();
    cv_.notify_all();
  }

  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<bool> signaled_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// BUG: leave() re-checks for waiting frames before it withdraws from the
/// drainer count, instead of after — the producer's count read and this
/// re-check no longer bracket each other, so a frame published between
/// them is nobody's to drain.
struct MutantEarlyRecheckDoorbell : transport::Doorbell {
  template <typename Pred>
  bool leave(Pred&& frames_waiting) noexcept {
    const bool waiting = frames_waiting();
    BGQ_SCHED_POINT("mutant.doorbell.rechecked");
    const bool last =
        drainers.fetch_sub(1, std::memory_order_seq_cst) == 1;
    BGQ_SCHED_POINT("mutant.doorbell.withdrawn");
    if (!last || !waiting) return false;
    gate.wake();
    return true;
  }
};

/// BUG: park() re-checks `ready` before prepare_wait() instead of after —
/// the snapshot no longer precedes the re-check, so a ring that lands
/// between them is already in the snapshot and wakes nobody.
struct MutantEarlyRecheckPark : transport::Doorbell {
  template <typename Pred>
  void park(Pred&& ready) {
    if (ready()) return;
    BGQ_SCHED_POINT("mutant.park.rechecked");
    gate.commit_wait(gate.prepare_wait());
  }
};

}  // namespace bgq::verify
