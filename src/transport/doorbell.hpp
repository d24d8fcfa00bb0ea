// The shm transport's doorbell: how an idle rank's poller sleeps without
// missing a frame, and how producers leave it asleep while one of the
// rank's own threads drains the rings inline (paper §III-D: BG/Q parks an
// idle thread until the wakeup unit sees a store to a watched address).
//
// One Doorbell per rank lives in the shared segment header:
//
//   * `word` — a 4-byte futex word.  Ringing bumps it and issues a
//     non-private FUTEX_WAKE (the sleeper is in another process).
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
//   poller    snapshot `word`; re-check the rings; FUTEX_WAIT on the
//             snapshot.
//
// The producer's and the withdrawing drainer's fences pair Dekker-style:
// either the producer reads the count after the withdrawal (and rings),
// or the drainer's re-check sees the frame (and rings).  A poller whose
// re-check missed a frame snapshotted `word` before the ring that
// follows it, so its FUTEX_WAIT returns at once or is woken.
//
// The type is header-only and holds no process-local state, so it can
// sit in a shared mapping (zero bytes are its initial state) and the
// schedule-fuzz harness drives the very same code with live
// BGQ_SCHED_POINTs.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <ctime>

#include "verify/schedule_point.hpp"

namespace bgq::transport {

struct alignas(64) Doorbell {
  /// park() without a deadline: only a ring ends the wait.
  static constexpr std::uint64_t kNoDeadline = UINT64_MAX;

  std::atomic<std::uint32_t> word;
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
    ring();
    return true;
  }

  /// Wake the poller unconditionally (also how it is told to stop).
  void ring() noexcept {
    word.fetch_add(1, std::memory_order_seq_cst);
    futex(FUTEX_WAKE, INT_MAX, nullptr);
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
    ring();
    return true;
  }

  // ---- poller -----------------------------------------------------------

  /// Sleep until a ring, `timeout_ns` (kNoDeadline: none) or a signal —
  /// unless `ready` (frames waiting, or a condition whose setter rings
  /// after setting it, such as a stop flag) holds after the snapshot.
  template <typename Pred>
  void park(Pred&& ready, std::uint64_t timeout_ns) noexcept {
    const std::uint32_t seen = word.load(std::memory_order_seq_cst);
    BGQ_SCHED_POINT("doorbell.snapshot");
    if (ready()) return;
    timespec ts{};
    timespec* deadline = nullptr;
    if (timeout_ns != kNoDeadline) {
      ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
      deadline = &ts;
    }
    BGQ_SCHED_BLOCK_BEGIN();
    futex(FUTEX_WAIT, seen, deadline);  // EAGAIN if rung since the snapshot
    BGQ_SCHED_BLOCK_END();
  }

 private:
  void futex(int op, std::uint32_t val, const timespec* ts) noexcept {
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), op, val,
              ts, nullptr, 0);
  }
};

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex word must be a plain address-free u32");

}  // namespace bgq::transport
