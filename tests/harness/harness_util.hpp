// Shared driver for the concurrency-correctness harness tests: runs one
// set of thread bodies under the cooperative schedule fuzzer with a
// deadlock watchdog, and provides the generic fuzz-one-schedule loops for
// the queue family so the real structures and their seeded mutants go
// through identical machinery.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "transport/shm_ring.hpp"
#include "verify/history.hpp"
#include "verify/linearize.hpp"
#include "verify/scheduler.hpp"

namespace bgq::harness {

using verify::FuzzScheduler;
using verify::History;
using verify::LinResult;
using verify::Op;
using verify::OpKind;
using verify::ScheduleTrace;

struct RunOptions {
  std::uint64_t seed = 1;
  const std::vector<std::uint8_t>* replay = nullptr;
  bool deterministic_fallback = false;
  std::uint64_t max_points = 200000;
  /// Watchdog: if the bodies have not finished after this long the run is
  /// declared deadlocked, the scheduler goes free-run, and `rescue` is
  /// invoked repeatedly (e.g. a rescue gate.wake()) until threads drain.
  std::chrono::milliseconds watchdog{10000};
  std::function<void()> rescue;
};

struct RunResult {
  ScheduleTrace trace;
  bool deadlocked = false;
};

/// Execute `bodies` (one per thread, slot = index) under a FuzzScheduler.
inline RunResult run_schedule(const RunOptions& opt,
                              const std::vector<std::function<void()>>& bodies) {
  FuzzScheduler::Options so;
  so.seed = opt.seed;
  so.replay = opt.replay;
  so.deterministic_fallback = opt.deterministic_fallback;
  so.max_points = opt.max_points;
  FuzzScheduler sched(so);
  sched.reserve(static_cast<int>(bodies.size()));
  sched.install();

  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    threads.emplace_back([&, i] {
      {
        FuzzScheduler::ThreadGuard guard(sched, static_cast<int>(i));
        bodies[i]();
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  sched.start();

  RunResult r;
  const auto deadline = std::chrono::steady_clock::now() + opt.watchdog;
  while (done.load(std::memory_order_acquire) <
         static_cast<int>(bodies.size())) {
    if (!r.deadlocked && std::chrono::steady_clock::now() > deadline) {
      r.deadlocked = true;
      sched.enter_free_run();
    }
    if (r.deadlocked && opt.rescue) opt.rescue();
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  sched.uninstall();
  r.trace = sched.trace();
  return r;
}

/// Replay line for a failing schedule: everything needed to reproduce it.
inline std::string describe_run(std::uint64_t seed, const RunResult& r) {
  std::string s = "seed=" + std::to_string(seed);
  s += r.deadlocked ? " DEADLOCK" : "";
  s += r.trace.truncated ? " TRUNCATED" : "";
  s += " points=" + std::to_string(r.trace.points);
  s += " decisions=[";
  for (std::size_t i = 0; i < r.trace.choices.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(int(r.trace.choices[i]));
    s += '/';
    s += std::to_string(int(r.trace.arity[i]));
  }
  s += ']';
  return s;
}

// ---- generic queue fuzzing ------------------------------------------------

inline std::uint64_t* id_to_ptr(std::uint64_t id) {
  return reinterpret_cast<std::uint64_t*>(id);  // ids start at 1, never null
}
inline std::uint64_t ptr_to_id(std::uint64_t* p) {
  return reinterpret_cast<std::uint64_t>(p);
}

struct QueueFuzzConfig {
  std::size_t ring = 2;
  int producers = 2;
  int per_producer = 3;
  int consumer_attempt_cap = 400;
  std::uint64_t seed = 1;
  const std::vector<std::uint8_t>* replay = nullptr;
  bool deterministic_fallback = false;
  std::chrono::milliseconds watchdog{10000};
};

struct QueueFuzzOutcome {
  LinResult lin;
  RunResult run;
  std::vector<Op> history;
};

/// One fuzzed schedule over any queue with `bool enqueue(T)` /
/// `T try_dequeue()` (the L2AtomicQueue shape, including the mutants).
/// Producers are slots 0..P-1, the consumer is the last slot; after the
/// threads join, the driver drains the queue and records one final
/// dequeue-empty probe — the op that convicts any queue that lost a
/// message.
template <typename Queue, typename Spec = verify::BagQueueSpec>
QueueFuzzOutcome fuzz_queue_once(const QueueFuzzConfig& cfg) {
  Queue q(cfg.ring);
  History h(256);
  const int total = cfg.producers * cfg.per_producer;

  std::vector<std::function<void()>> bodies;
  for (int t = 0; t < cfg.producers; ++t) {
    bodies.emplace_back([&, t] {
      for (int i = 0; i < cfg.per_producer; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * cfg.per_producer + i + 1;
        const auto hd = h.begin(t, OpKind::kEnqueue, id);
        q.enqueue(id_to_ptr(id));
        h.end(hd);
      }
    });
  }
  bodies.emplace_back([&] {
    // Consumer: record successful dequeues; a failed poll keeps its handle
    // open so the eventual success carries the full interval, and a handle
    // still open at the attempt cap is abandoned (never closed).
    int got = 0;
    History::Handle hd = History::kNoHandle;
    for (int attempts = 0;
         got < total && attempts < cfg.consumer_attempt_cap; ++attempts) {
      if (hd == History::kNoHandle) {
        hd = h.begin(cfg.producers, OpKind::kDequeue);
      }
      if (std::uint64_t* p = q.try_dequeue()) {
        h.end(hd, ptr_to_id(p));
        hd = History::kNoHandle;
        ++got;
      }
    }
  });

  RunOptions ro;
  ro.seed = cfg.seed;
  ro.replay = cfg.replay;
  ro.deterministic_fallback = cfg.deterministic_fallback;
  ro.watchdog = cfg.watchdog;

  QueueFuzzOutcome out;
  out.run = run_schedule(ro, bodies);

  // Post-join drain from the (quiescent) driver, then the final emptiness
  // probe: with every enqueue completed and the queue drained dry, a bag
  // that is still non-empty means a message was lost.  The drain is capped:
  // a mutant whose emptiness protocol is broken (e.g. stale slots) would
  // otherwise hand out phantom messages forever — and the surplus dequeues
  // themselves convict it.
  const int drv = cfg.producers + 1;
  for (int d = 0; d < total + 4; ++d) {
    std::uint64_t* p = q.try_dequeue();
    if (!p) break;
    h.record(drv, OpKind::kDequeue, 0, ptr_to_id(p));
  }
  h.record(drv, OpKind::kDequeueEmpty);

  out.history = h.ops();
  out.lin = verify::check_linearizable<Spec>(out.history);
  if (h.overflowed()) {
    out.lin.verdict = verify::LinVerdict::kLimit;
    out.lin.message = "history capacity overflow";
  }
  return out;
}

// ---- generic gate fuzzing -------------------------------------------------

/// Take one unit of work if any is available.
inline bool take_one(std::atomic<int>& work) {
  int w = work.load(std::memory_order_acquire);
  while (w > 0) {
    if (work.compare_exchange_weak(w, w - 1, std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

struct GateFuzzConfig {
  int rounds = 3;        ///< work items the producer posts
  int waiters = 1;
  int waiter_cap = 25;   ///< recorded iterations per waiter (history budget)
  std::uint64_t seed = 1;
  const std::vector<std::uint8_t>* replay = nullptr;
  bool deterministic_fallback = false;
  std::chrono::milliseconds watchdog{5000};
};

struct GateFuzzOutcome {
  LinResult lin;
  RunResult run;
  std::vector<Op> history;
};

/// One fuzzed schedule over any gate with the prepare/cancel/commit/wake
/// protocol (WaitGate and MutantLatchGate).  The producer posts `rounds`
/// work items, waking the gate after each, then sets `done` and issues a
/// final flush wake; each waiter consumes work and sleeps through the
/// two-phase protocol when it finds none.  The recorded history is checked
/// against GateSpec: every commit must be justified by a wake that advanced
/// the epoch past the prepare's snapshot.
template <typename Gate>
GateFuzzOutcome fuzz_gate_once(const GateFuzzConfig& cfg) {
  Gate gate;
  History h(256);
  std::atomic<int> work{0};
  std::atomic<int> consumed{0};
  std::atomic<bool> done{false};

  std::vector<std::function<void()>> bodies;
  for (int t = 0; t < cfg.waiters; ++t) {
    bodies.emplace_back([&, t] {
      for (int iter = 0;
           iter < cfg.waiter_cap &&
           consumed.load(std::memory_order_acquire) < cfg.rounds;
           ++iter) {
        verify::schedule_point("gatefuzz.waiter.iter");
        if (take_one(work)) {
          consumed.fetch_add(1, std::memory_order_acq_rel);
          continue;
        }
        if (done.load(std::memory_order_acquire)) break;
        const auto hp = h.begin(t, OpKind::kPrepare);
        const auto seen = gate.prepare_wait();
        h.end(hp, seen);
        // The §II protocol: re-check for work after announcing intent.
        if (work.load(std::memory_order_acquire) > 0 ||
            done.load(std::memory_order_acquire)) {
          const auto hc = h.begin(t, OpKind::kCancel);
          gate.cancel_wait();
          h.end(hc);
          continue;
        }
        const auto hw = h.begin(t, OpKind::kCommit, seen);
        gate.commit_wait(seen);
        h.end(hw);
      }
    });
  }
  bodies.emplace_back([&] {
    const int t = cfg.waiters;
    for (int r = 0; r < cfg.rounds; ++r) {
      work.fetch_add(1, std::memory_order_acq_rel);
      const auto hw = h.begin(t, OpKind::kWake);
      gate.wake();
      h.end(hw);
      // Yield between rounds: without a point here the token could never
      // change hands between one wake's response and the next wake's
      // invocation, and no commit could ever be stamped inside that gap —
      // exactly where a spurious latch-commit must be caught.
      verify::schedule_point("gatefuzz.producer.gap");
    }
    done.store(true, std::memory_order_release);
    const auto hw = h.begin(t, OpKind::kWake);  // flush any parked waiter
    gate.wake();
    h.end(hw);
  });

  RunOptions ro;
  ro.seed = cfg.seed;
  ro.replay = cfg.replay;
  ro.deterministic_fallback = cfg.deterministic_fallback;
  ro.watchdog = cfg.watchdog;
  ro.rescue = [&] { gate.wake(); };

  GateFuzzOutcome out;
  out.run = run_schedule(ro, bodies);
  out.history = h.ops();
  out.lin = verify::check_linearizable<verify::GateSpec>(out.history);
  if (h.overflowed()) {
    out.lin.verdict = verify::LinVerdict::kLimit;
    out.lin.message = "history capacity overflow";
  }
  return out;
}

// ---- doorbell fuzzing -----------------------------------------------------

struct DoorbellFuzzConfig {
  std::size_t frames = 3;  ///< one-byte frames the producer publishes
  std::size_t ring = 2;    ///< ring capacity in bytes (< frames: full ring)
  int drainer_polls = 2;   ///< polls the drainer makes before it withdraws
  std::uint64_t seed = 1;
  const std::vector<std::uint8_t>* replay = nullptr;
  bool deterministic_fallback = false;
  std::chrono::milliseconds watchdog{5000};
};

struct DoorbellFuzzOutcome {
  RunResult run;
  std::size_t delivered = 0;
  std::string error;  ///< a frame delivered out of order
};

/// The poller's park: on the doorbell's gate, unless the bell (a mutant)
/// brings a park of its own.
template <typename Bell, typename Pred>
void park_poller(Bell& bell, Pred&& ready) {
  if constexpr (requires { bell.park(ready); }) {
    bell.park(ready);
  } else {
    bell.gate.park(ready);
  }
}

/// One fuzzed schedule of the shm doorbell handshake (the real
/// transport::Doorbell or a mutant of it) on one ring, in the shm
/// transport's three roles: a producer that publishes, rings on a full
/// ring and notifies; a drainer that joins the count, polls a few times
/// and withdraws mid-stream; and a poller that polls and parks with no
/// deadline, so a lost wakeup is a deadlock the watchdog reports (the
/// rescue rings until the run drains).  poll() admits one drainer at a
/// time, as the transport's try_lock does.
template <typename Bell>
DoorbellFuzzOutcome fuzz_doorbell_once(const DoorbellFuzzConfig& cfg) {
  transport::ShmRingCtrl ctrl;
  std::vector<std::byte> data(cfg.ring);
  transport::ShmRingView ring(&ctrl, data.data(), cfg.ring);
  Bell bell{};
  std::atomic_flag draining;  // clear
  std::atomic<std::size_t> delivered{0};
  std::string error;  // written only while `draining` is held

  auto frames_waiting = [&] { return ring.readable() != 0; };
  auto all_delivered = [&] {
    return delivered.load(std::memory_order_acquire) == cfg.frames;
  };
  auto poll = [&]() -> std::size_t {
    if (draining.test_and_set(std::memory_order_acquire)) return 0;
    std::size_t n = 0;
    std::byte b{};
    while (ring.peek(0, &b, 1)) {
      const std::size_t next = delivered.load(std::memory_order_relaxed);
      if (static_cast<std::size_t>(b) != next && error.empty()) {
        error = "frame " + std::to_string(static_cast<int>(b)) +
                " delivered as number " + std::to_string(next);
      }
      ring.consume(1);
      delivered.store(next + 1, std::memory_order_release);
      ++n;
    }
    draining.clear(std::memory_order_release);
    // The end of the test, not part of the handshake: a parked poller
    // learns that someone else delivered the last frame.
    if (n != 0 && all_delivered()) bell.gate.wake();
    return n;
  };

  // Slot order matters to the exhaustive driver, whose fallback runs the
  // lowest runnable slot: the producer goes last, so a producer spinning
  // on a full ring never starves the threads that would drain it.
  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {  // inline drainer
    bell.join();
    for (int i = 0; i < cfg.drainer_polls; ++i) poll();
    bell.leave(frames_waiting);
  });
  bodies.emplace_back([&] {  // poller
    while (!all_delivered()) {
      if (poll() != 0) continue;
      park_poller(bell, [&] { return frames_waiting() || all_delivered(); });
    }
  });
  bodies.emplace_back([&] {  // producer
    for (std::size_t f = 0; f < cfg.frames; ++f) {
      const auto b = static_cast<std::byte>(f);
      bool rang = false;
      while (!ring.try_push(&b, 1)) {
        if (!rang) bell.gate.wake();  // full ring: the poller makes room
        rang = true;
      }
      bell.notify(/*force=*/false);
    }
  });

  RunOptions ro;
  ro.seed = cfg.seed;
  ro.replay = cfg.replay;
  ro.deterministic_fallback = cfg.deterministic_fallback;
  ro.watchdog = cfg.watchdog;
  ro.rescue = [&] { bell.gate.wake(); };

  DoorbellFuzzOutcome out;
  out.run = run_schedule(ro, bodies);
  out.delivered = delivered.load();
  out.error = error;
  return out;
}

}  // namespace bgq::harness
