// The shm transport's doorbell: how an idle rank's poller sleeps without
// missing a frame, and how producers leave it asleep while one of the
// rank's own threads drains the rings inline (paper §III-D: BG/Q parks an
// idle thread until the wakeup unit sees a store to a watched address).
//
// One Doorbell per rank lives in the shared segment header:
//
//   * `gate` — the wakeup::WaitGate the poller parks on.  Ringing is
//     gate.wake(), which makes a (non-private) FUTEX_WAKE only while the
//     poller is parked, so a ring costs no system call while it is awake.
//   * `drainers` — how many of the rank's threads currently drain its
//     rings from their own advance loop (a worker from scheduler start to
//     exit, a comm thread from waking to parking).
//
// The handshake, three roles:
//
//   producer  publish a frame; seq_cst fence; read `drainers`; ring only
//             when forced (a ctrl frame or a full ring) or nobody drains.
//   drainer   withdraw from `drainers`; seq_cst fence; re-check the rings
//             and ring if a frame is waiting — the poller drains it.
//   poller    gate.park() with "frames waiting" as its re-check.
//
// The producer's and the withdrawing drainer's fences pair Dekker-style:
// either the producer reads the count after the withdrawal (and rings),
// or the drainer's re-check sees the frame (and rings).  A poller whose
// re-check missed a frame snapshotted the gate's epoch before the ring
// that follows it, so its commit returns at once or is woken.
//
// The type is header-only and holds no process-local state, so it can
// sit in a shared mapping (zero bytes are its initial state) and the
// schedule-fuzz harness drives the very same code with live
// BGQ_SCHED_POINTs.
#pragma once

#include <atomic>
#include <cstdint>

#include "verify/schedule_point.hpp"
#include "wakeup/wakeup_unit.hpp"

namespace bgq::transport {

struct Doorbell {
  wakeup::WaitGate gate;
  std::atomic<std::uint32_t> drainers;

  // ---- producer ---------------------------------------------------------

  /// Call after a frame is published.  Rings when `force` is set or no
  /// thread drains inline; returns whether it rang.
  bool notify(bool force) noexcept {
    BGQ_SCHED_POINT("doorbell.published");
    std::atomic_thread_fence(std::memory_order_seq_cst);
    BGQ_SCHED_POINT("doorbell.fenced");
    const bool drained = drainers.load(std::memory_order_relaxed) != 0;
    BGQ_SCHED_POINT("doorbell.counted");
    if (drained && !force) return false;
    gate.wake();
    return true;
  }

  // ---- drainer ----------------------------------------------------------

  void join() noexcept { drainers.fetch_add(1, std::memory_order_seq_cst); }

  /// Withdraw from the count.  The last drainer out re-checks the rings
  /// (`frames_waiting`) and rings if one holds a frame a producer saw
  /// the count for; returns whether it rang.
  template <typename Pred>
  bool leave(Pred&& frames_waiting) noexcept {
    const bool last =
        drainers.fetch_sub(1, std::memory_order_seq_cst) == 1;
    BGQ_SCHED_POINT("doorbell.withdrawn");
    if (!last) return false;
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const bool waiting = frames_waiting();
    BGQ_SCHED_POINT("doorbell.rechecked");
    if (!waiting) return false;
    gate.wake();
    return true;
  }
};

}  // namespace bgq::transport
