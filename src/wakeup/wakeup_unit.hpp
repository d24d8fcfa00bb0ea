// Emulation of the BG/Q wakeup unit + PowerPC `wait` instruction (§II).
//
// On BG/Q a hardware thread can execute `wait`, parking itself without
// consuming pipeline slots, after programming the wakeup unit's WAC
// registers to watch a memory range (e.g. a work queue's producer counter)
// or network reception-FIFO activity; any store into the range, or a packet
// arrival, raises a low-overhead interrupt that resumes the thread.
//
// Host emulation: a futex *eventcount*, the runtime's one park/wake
// primitive.  Its whole state is two 32-bit atomics — the epoch, which is
// the futex word, and the count of announced waiters — so zero bytes are
// its initial state and a gate can sit in memory shared between processes
// (the shm transport's doorbell, transport/doorbell.hpp); its futex calls
// are non-private for that reason.  The waking side — on BG/Q the store
// hardware itself — is an explicit wake() call that the runtime issues
// immediately after the store it would have been (enqueue to a work queue,
// packet delivery into a reception FIFO, a frame published into a ring).
//
// The two-phase prepare/commit protocol makes lost wakeups impossible: a
// wake() between prepare_wait() and commit_wait() turns the commit into a
// no-op.  park() is the whole sequence in one call.  A gate does not spin;
// a caller that wants a cheap resume path polls before it parks.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <ctime>

#include "common/cacheline.hpp"
#include "common/timing.hpp"
#include "trace/trace.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::wakeup {

/// One eventcount; one per communication thread and one per shm rank.
class alignas(kL2Line) WaitGate {
 public:
  /// commit_wait() / park() without a deadline: only a wake() ends it.
  static constexpr std::uint64_t kNoDeadline = UINT64_MAX;

  WaitGate() = default;
  WaitGate(const WaitGate&) = delete;
  WaitGate& operator=(const WaitGate&) = delete;

  /// Phase 1 of waiting: announce intent and snapshot the epoch.  After
  /// this, re-check for work; if work appeared, call cancel_wait() and
  /// process it instead of sleeping.
  std::uint32_t prepare_wait() noexcept {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    BGQ_SCHED_POINT("gate.prepare.announced");
    return epoch_.load(std::memory_order_seq_cst);
  }

  /// Abort a prepared wait (work was found on the re-check).
  void cancel_wait() noexcept {
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// Phase 2: sleep until some wake() advances the epoch past `seen` or
  /// `timeout_ns` passes.  Comm threads pass a deadline while reliability
  /// timers are armed: a lost ack produces no wake(), only a timeout.
  void commit_wait(std::uint32_t seen,
                   std::uint64_t timeout_ns = kNoDeadline) noexcept {
    const std::uint64_t deadline =
        timeout_ns == kNoDeadline ? 0 : now_ns() + timeout_ns;
    while (epoch_.load(std::memory_order_acquire) == seen) {
      timespec ts{};
      const timespec* rel = nullptr;
      if (timeout_ns != kNoDeadline) {
        const std::uint64_t now = now_ns();
        if (now >= deadline) break;
        ts.tv_sec = static_cast<time_t>((deadline - now) / 1'000'000'000);
        ts.tv_nsec = static_cast<long>((deadline - now) % 1'000'000'000);
        rel = &ts;
      }
      BGQ_SCHED_POINT("gate.commit.checked");
      BGQ_SCHED_BLOCK_BEGIN();
      futex(FUTEX_WAIT, seen, rel);  // EAGAIN if woken since the check
      BGQ_SCHED_BLOCK_END();
    }
    waiters_.fetch_sub(1, std::memory_order_release);
  }

  /// prepare_wait(); unless `ready()` then holds, commit_wait().  `ready`
  /// runs once, after the snapshot, and must turn true only through a
  /// store followed by a wake() of this gate (work published, a stop flag
  /// set); when it returns false the commit follows.  Returns whether it
  /// committed.
  template <typename Pred>
  bool park(Pred&& ready, std::uint64_t timeout_ns = kNoDeadline) {
    const std::uint32_t seen = prepare_wait();
    BGQ_SCHED_POINT("gate.park.snapshot");
    if (ready()) {
      cancel_wait();
      return false;
    }
    commit_wait(seen, timeout_ns);
    return true;
  }

  /// Wake all threads parked on this gate.  Called by producers right
  /// after the store the WAC register would have observed.  Cheap when
  /// nobody is waiting: one RMW and one load, no system call.
  void wake() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    BGQ_SCHED_POINT("gate.wake.bumped");
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    BGQ_TRACE_EVENT(::bgq::trace::EventKind::kGateWake, 1);
    futex(FUTEX_WAKE, INT_MAX, nullptr);
  }

  /// True if some thread is (or is about to be) parked; lets callers skip
  /// redundant wakes.
  bool has_waiters() const noexcept {
    return waiters_.load(std::memory_order_acquire) != 0;
  }

 private:
  void futex(int op, std::uint32_t val, const timespec* rel) noexcept {
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_), op, val,
              rel, nullptr, 0);
  }

  // A 32-bit epoch can wrap, but a waiter misses a wake only if exactly
  // 2^32 of them land between its snapshot and its FUTEX_WAIT.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex word must be a plain address-free u32");

}  // namespace bgq::wakeup
