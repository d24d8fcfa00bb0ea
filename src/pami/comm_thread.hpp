// Communication threads (paper §III-C).
//
// "To accelerate the message rate and communication processing we enabled
//  communication threads in the PAMI library.  These threads take advantage
//  of the wakeup unit ... to eliminate overheads when the communication
//  thread is idle.  Typically, a communication thread is enabled for four
//  worker threads. ... The communication load from each worker thread is
//  evenly distributed across all the communication threads."
//
// A CommThreadPool owns N host threads; each advances a fixed subset of
// PAMI contexts.  Those contexts' FIFO and work wakeups are bound to the
// servicing thread's WaitGate, so an idle comm thread parks (emulated
// `wait` instruction) with WaitGate::park and is woken by packet arrival
// or posted work (emulated wakeup-unit interrupt).  Before it parks it
// polls for a fixed budget, its only spin phase: a host park/wake costs
// far more than the wakeup unit's.  Worker-to-comm-thread load spreading
// is the caller's choice of which context each message goes through; the
// helper route() implements the paper's even distribution.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "pami/pami.hpp"
#include "trace/registry.hpp"
#include "wakeup/wakeup_unit.hpp"

namespace bgq::pami {

class CommThreadPool {
 public:
  /// Starts `nthreads` comm threads servicing `contexts`, partitioned
  /// round-robin (context i -> thread i % nthreads), counting sweeps and
  /// parks into `metrics` (comm.sweeps, comm.parks).  `thread_init`, if
  /// set, runs first on each comm thread (the runtime above uses it to
  /// assign allocator thread slots).
  CommThreadPool(trace::Registry& metrics, std::vector<Context*> contexts,
                 unsigned nthreads,
                 std::function<void(unsigned)> thread_init = {});
  ~CommThreadPool();

  CommThreadPool(const CommThreadPool&) = delete;
  CommThreadPool& operator=(const CommThreadPool&) = delete;

  /// Stop and join all threads (idempotent).
  void stop();

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Even worker->context distribution (paper §III-C): worker `w` of
  /// `nworkers` sends message number `seq` through this context index.
  /// Spreading over *all* contexts (not a fixed one per worker) is what
  /// lets several comm threads absorb a bursty worker.
  static unsigned route(unsigned worker, std::uint64_t seq,
                        unsigned ncontexts) {
    return static_cast<unsigned>((worker + seq) % ncontexts);
  }

 private:
  void run(unsigned tid);

  std::vector<Context*> contexts_;
  std::function<void(unsigned)> thread_init_;
  std::vector<std::unique_ptr<wakeup::WaitGate>> gates_;  // one per thread
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};

  trace::Cell& sweeps_;
  trace::Cell& parks_;
};

}  // namespace bgq::pami
