#include "pami/comm_thread.hpp"

#include <stdexcept>

#include "common/timing.hpp"
#include "trace/session.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::pami {

CommThreadPool::CommThreadPool(std::vector<Context*> contexts,
                               unsigned nthreads,
                               std::function<void(unsigned)> thread_init)
    : contexts_(std::move(contexts)), thread_init_(std::move(thread_init)) {
  if (nthreads == 0) throw std::invalid_argument("need >= 1 comm thread");
  if (contexts_.empty()) throw std::invalid_argument("no contexts to serve");

  gates_.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    gates_.push_back(std::make_unique<wakeup::WaitGate>());
  }
  // Bind every context's wakeups to its servicing thread's gate before any
  // thread starts polling.
  for (std::size_t c = 0; c < contexts_.size(); ++c) {
    contexts_[c]->bind_gate(gates_[c % nthreads].get());
  }
  threads_.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    threads_.emplace_back([this, t] { run(t); });
  }
}

CommThreadPool::~CommThreadPool() { stop(); }

void CommThreadPool::stop() {
  if (stop_.exchange(true)) {
    // Already stopped; just make sure joins happened.
  }
  for (auto& g : gates_) g->wake();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Unbind, so the contexts remain usable without the pool.
  for (Context* c : contexts_) c->bind_gate(nullptr);
}

namespace {
// Park deadline while reliability timers are armed — half the default
// initial RTO, so a retransmit is at most one park late.
constexpr std::uint64_t kTimerParkNs = 100'000;
// How long an idle comm thread keeps polling — yielding its core to any
// other runnable thread — before it parks (§III-D's idle-poll trade-off);
// the gate itself does not spin, so this is the only spin phase.  Here a
// park/wake round trip is an OS context switch of ~25 us, not the wakeup
// unit's ~0.4 us, so parking on every short gap between bursts put that
// cost on most messages of the next burst; the budget is a couple of
// round trips.
constexpr std::uint64_t kSpinBeforeParkNs = 50'000;
}  // namespace

void CommThreadPool::run(unsigned tid) {
  if (thread_init_) thread_init_(tid);
  wakeup::WaitGate& gate = *gates_[tid];
  const unsigned nthreads = static_cast<unsigned>(gates_.size());

  // The contexts this thread owns.
  std::vector<Context*> mine;
  for (std::size_t c = tid; c < contexts_.size(); c += nthreads) {
    mine.push_back(contexts_[c]);
  }

  // A comm thread drains its contexts' transport inline from waking to
  // parking (Context::join_drainers; no-ops in a single-process job).
  for (Context* c : mine) c->join_drainers();
  std::uint64_t idle_since = 0;  // 0: the last sweep found work
  while (!stop_.load(std::memory_order_acquire)) {
    BGQ_SCHED_POINT("comm.poll.sweep");
    std::size_t events = 0;
    for (Context* c : mine) events += c->advance();
    sweeps_.fetch_add(1, std::memory_order_relaxed);
    if (events != 0) {
      idle_since = 0;
      continue;
    }
    const std::uint64_t now = now_ns();
    if (idle_since == 0) idle_since = now;
    if (now - idle_since < kSpinBeforeParkNs) {
      std::this_thread::yield();
      continue;
    }
    idle_since = 0;

    // Idle: park on the wakeup gate (emulated `wait` instruction).  Stop
    // draining first; a frame still in a ring wakes the transport poller,
    // whose delivery then wakes this gate.  With reliability timers armed
    // (unacked packets / a backpressure backlog on a context we advance)
    // the park has a deadline: a lost ack never produces a wake(), only a
    // retransmit timeout.
    for (Context* c : mine) c->leave_drainers();
    bool timers = false;
    for (Context* c : mine) timers = timers || c->has_timers();
    const bool parked = gate.park(
        [&] {
          if (stop_.load(std::memory_order_acquire)) return true;
          for (Context* c : mine) {
            if (c->has_pending()) return true;
          }
          // Nothing pending: the commit follows, so the park counts now.
          parks_.fetch_add(1, std::memory_order_relaxed);
          trace::emit_here(trace::EventKind::kParkBegin, tid);
          return false;
        },
        timers ? kTimerParkNs : wakeup::WaitGate::kNoDeadline);
    if (parked) trace::emit_here(trace::EventKind::kParkEnd, tid);
    for (Context* c : mine) c->join_drainers();
  }
  for (Context* c : mine) c->leave_drainers();
}

}  // namespace bgq::pami
