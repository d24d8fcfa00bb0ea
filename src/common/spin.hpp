// Idle-poll pacing.
//
// Emulates the idle-wait disciplines discussed in the paper (§III-D):
//   * a hot spin that hammers the core's pipeline (what the unoptimized
//     Charm++ idle poll did),
//   * the "L2 paced" spin where each probe stalls on an L2 atomic load
//     (~60 cycles on BG/Q), leaving pipeline slots to the sibling hardware
//     threads on the same core, and
//   * yielding the OS thread between probes.
// Threads that may sleep instead park on a wakeup::WaitGate.
#pragma once

#include <atomic>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace bgq {

/// One architectural pause; the cheapest way to yield pipeline slots.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Idle-poll pacing policies (paper §III-D).
enum class IdlePollPolicy {
  kHotSpin,   ///< re-probe as fast as possible (burns pipeline slots)
  kL2Paced,   ///< each probe behaves like a ~60-cycle L2 atomic load
  kOsYield,   ///< yield to the OS between probes (worst wake latency)
};

/// What an idle poll loop does between two probes that found no work.
inline void idle_pause(IdlePollPolicy policy) noexcept {
  switch (policy) {
    case IdlePollPolicy::kHotSpin: cpu_relax(); break;
    case IdlePollPolicy::kL2Paced:
      // The ~60-cycle stall of an L2 atomic load on BG/Q, approximated
      // on the host by a short burst of pauses.
      for (int i = 0; i < 8; ++i) cpu_relax();
      break;
    case IdlePollPolicy::kOsYield: std::this_thread::yield(); break;
  }
}

}  // namespace bgq
