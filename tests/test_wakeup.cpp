// Tests for the wakeup-unit emulation (src/wakeup).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "wakeup/wakeup_unit.hpp"

namespace {

using bgq::wakeup::WaitGate;

TEST(WaitGate, WakeBeforeCommitDoesNotBlock) {
  WaitGate g;
  const auto seen = g.prepare_wait();
  g.wake();
  g.commit_wait(seen);  // must return immediately
  SUCCEED();
}

TEST(WaitGate, CancelWaitLeavesNoWaiters) {
  WaitGate g;
  g.prepare_wait();
  EXPECT_TRUE(g.has_waiters());
  g.cancel_wait();
  EXPECT_FALSE(g.has_waiters());
}

TEST(WaitGate, SleeperIsWokenByProducer) {
  WaitGate g;
  std::atomic<bool> work{false};
  std::atomic<bool> processed{false};

  std::thread sleeper([&] {
    for (;;) {
      if (work.load(std::memory_order_acquire)) {
        processed.store(true, std::memory_order_release);
        return;
      }
      const auto seen = g.prepare_wait();
      if (work.load(std::memory_order_acquire)) {
        g.cancel_wait();
        continue;
      }
      g.commit_wait(seen);
    }
  });

  // Give the sleeper a chance to park (not required for correctness).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  work.store(true, std::memory_order_release);
  g.wake();
  sleeper.join();
  EXPECT_TRUE(processed.load());
}

TEST(WaitGate, ManyIterationsNoLostWakeups) {
  // Stress the prepare/cancel/commit protocol: a producer-consumer pair
  // doing many short sleeps must never deadlock.
  WaitGate g;
  std::atomic<int> available{0};
  constexpr int kN = 20000;

  std::thread consumer([&] {
    int consumed = 0;
    while (consumed < kN) {
      if (available.load(std::memory_order_acquire) > consumed) {
        ++consumed;
        continue;
      }
      const auto seen = g.prepare_wait();
      if (available.load(std::memory_order_acquire) > consumed) {
        g.cancel_wait();
        continue;
      }
      g.commit_wait(seen);
    }
  });

  for (int i = 0; i < kN; ++i) {
    available.fetch_add(1, std::memory_order_release);
    g.wake();
  }
  consumer.join();
  SUCCEED();
}

TEST(WaitGate, MultipleSleepersAllWoken) {
  WaitGate g;
  std::atomic<bool> go{false};
  std::atomic<int> awake{0};
  std::vector<std::thread> sleepers;
  for (int t = 0; t < 4; ++t) {
    sleepers.emplace_back([&] {
      for (;;) {
        if (go.load(std::memory_order_acquire)) break;
        const auto seen = g.prepare_wait();
        if (go.load(std::memory_order_acquire)) {
          g.cancel_wait();
          break;
        }
        g.commit_wait(seen);
      }
      awake.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  go.store(true, std::memory_order_release);
  g.wake();
  for (auto& t : sleepers) t.join();
  EXPECT_EQ(awake.load(), 4);
}

TEST(WaitGate, GatesAreIndependent) {
  WaitGate a;
  WaitGate b;
  const auto seen = b.prepare_wait();
  a.wake();  // different gate: must not satisfy b
  EXPECT_TRUE(b.has_waiters());
  b.wake();
  b.commit_wait(seen);
  EXPECT_FALSE(b.has_waiters());
}

TEST(WaitGate, DeadlineEndsAParkWithoutAWake) {
  WaitGate g;
  const auto seen = g.prepare_wait();
  const auto t0 = std::chrono::steady_clock::now();
  g.commit_wait(seen, 2'000'000);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(2));
  EXPECT_FALSE(g.has_waiters());
}

TEST(WaitGate, ParksAcrossProcesses) {
  // The shm transport's layout: the gate sits in a shared mapping and is
  // never constructed — a fresh mapping's zero bytes are its initial
  // state — and the parked thread and the waker are different processes.
  struct Shared {
    WaitGate gate;
    std::atomic<std::uint32_t> flag;
  };
  void* page = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* shared = static_cast<Shared*>(page);
  auto flag_set = [shared] {
    return shared->flag.load(std::memory_order_acquire) != 0;
  };

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    constexpr std::uint64_t kDeadlineNs = 5'000'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    shared->gate.park(flag_set, kDeadlineNs);
    const bool in_time = std::chrono::steady_clock::now() - t0 <
                         std::chrono::nanoseconds(kDeadlineNs);
    ::_exit(flag_set() && in_time ? 0 : 1);
  }
  // Give the child a chance to park (not required for correctness).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  shared->flag.store(1, std::memory_order_release);
  shared->gate.wake();
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status)) << "child did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "child missed the flag or slept to its deadline";
  ::munmap(page, sizeof(Shared));
}

}  // namespace
