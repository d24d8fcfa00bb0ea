// Tests for the lockless queue family (src/queue): the paper's L2 atomic
// queue with overflow, the MPI-ordered variant and the mutex baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "l2atomic/l2_atomic.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "queue/mutex_queue.hpp"
#include "queue/ordered_l2_queue.hpp"

namespace {

using bgq::queue::L2AtomicQueue;
using bgq::queue::MutexQueue;
using bgq::queue::OrderedL2Queue;

std::uint64_t* tag(std::uint64_t v) {
  return reinterpret_cast<std::uint64_t*>(v + 1);  // +1: never nullptr
}
std::uint64_t untag(std::uint64_t* p) {
  return reinterpret_cast<std::uint64_t>(p) - 1;
}

TEST(L2AtomicQueue, EmptyDequeuesNull) {
  L2AtomicQueue<int*> q(8);
  EXPECT_EQ(q.try_dequeue(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(L2AtomicQueue, FifoWithinSingleProducer) {
  L2AtomicQueue<std::uint64_t*> q(16);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(q.enqueue(tag(i)));
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(untag(q.try_dequeue()), i);
  }
  EXPECT_EQ(q.try_dequeue(), nullptr);
}

TEST(L2AtomicQueue, CapacityRoundsToPowerOfTwo) {
  L2AtomicQueue<int*> q(100);
  EXPECT_EQ(q.capacity(), 128u);
}

TEST(L2AtomicQueue, OverflowsToMutexQueueWhenRingFull) {
  L2AtomicQueue<std::uint64_t*> q(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(tag(i)));
  // Ring full: the next enqueues take the overflow path.
  EXPECT_FALSE(q.enqueue(tag(4)));
  EXPECT_FALSE(q.enqueue(tag(5)));
  EXPECT_EQ(q.overflow_count(), 2u);

  // Consumer drains the lockless ring first, then overflow.
  std::vector<std::uint64_t> order;
  while (auto* p = q.try_dequeue()) order.push_back(untag(p));
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(L2AtomicQueue, RingReopensAfterDrain) {
  L2AtomicQueue<std::uint64_t*> q(4);
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(q.enqueue(tag(i))) << "round " << round;
    }
    for (std::uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(untag(q.try_dequeue()), i);
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(L2AtomicQueue, TryEnqueueFailsWhenFullInsteadOfSpilling) {
  L2AtomicQueue<std::uint64_t*> q(2);
  EXPECT_TRUE(q.try_enqueue(tag(0)));
  EXPECT_TRUE(q.try_enqueue(tag(1)));
  EXPECT_FALSE(q.try_enqueue(tag(2)));
  EXPECT_EQ(q.overflow_count(), 0u);
}

// --- direct overflow-path protocol coverage (§III-A, Fig. 2) ---------------

TEST(L2AtomicQueue, BoundedIncrementReturnsAllOnesSentinelAtBound) {
  // The failure protocol of the L2 bounded load-increment: once the counter
  // reaches the bound every attempt returns 0xFFFF'FFFF'FFFF'FFFF, and
  // raising the bound re-admits producers at the next ticket.
  bgq::l2::BoundedCounter bc(2);
  EXPECT_EQ(bc.bounded_increment(), 0u);
  EXPECT_EQ(bc.bounded_increment(), 1u);
  EXPECT_EQ(bc.bounded_increment(), bgq::l2::kBoundedFailure);
  EXPECT_EQ(bc.bounded_increment(), bgq::l2::kBoundedFailure);
  EXPECT_EQ(bc.bounded_increment(), 0xFFFF'FFFF'FFFF'FFFFull);
  EXPECT_TRUE(bc.full());
  bc.advance_bound(1);  // consumer drained one slot
  EXPECT_EQ(bc.bounded_increment(), 2u);
  EXPECT_EQ(bc.bounded_increment(), bgq::l2::kBoundedFailure);
}

TEST(L2AtomicQueue, FillToBoundThenSpillKeepsRingIntact) {
  L2AtomicQueue<std::uint64_t*> q(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(tag(i)));
  EXPECT_EQ(q.ring_size(), 4u);
  EXPECT_EQ(q.overflow_count(), 0u);
  // At the bound: enqueue reports the slow path was taken and the ring is
  // untouched.
  EXPECT_FALSE(q.enqueue(tag(4)));
  EXPECT_EQ(q.ring_size(), 4u);
  EXPECT_EQ(q.overflow_count(), 1u);
}

TEST(L2AtomicQueue, DrainRaisesBoundAndReopensFastPath) {
  L2AtomicQueue<std::uint64_t*> q(2);
  EXPECT_TRUE(q.enqueue(tag(0)));
  EXPECT_TRUE(q.enqueue(tag(1)));
  EXPECT_FALSE(q.enqueue(tag(2)));  // spill
  EXPECT_FALSE(q.enqueue(tag(3)));  // spill
  // Each ring dequeue advances the bound by one, so the fast path reopens
  // even while messages still sit in overflow (Charm++ needs no ordering).
  EXPECT_EQ(untag(q.try_dequeue()), 0u);
  EXPECT_TRUE(q.enqueue(tag(4))) << "drained slot must reopen the ring";
  EXPECT_EQ(q.overflow_count(), 2u);

  std::set<std::uint64_t> rest;
  while (auto* p = q.try_dequeue()) rest.insert(untag(p));
  EXPECT_EQ(rest, (std::set<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
}

TEST(L2AtomicQueue, RepeatedSpillDrainCyclesLoseNothing) {
  // Push the ring through many full->spill->drain cycles; every message
  // must come out exactly once whatever path it took.
  L2AtomicQueue<std::uint64_t*> q(2);
  std::set<std::uint64_t> seen;
  std::uint64_t next = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 5; ++i) q.enqueue(tag(next++));  // 2 fast, 3 spill
    while (auto* p = q.try_dequeue()) {
      EXPECT_TRUE(seen.insert(untag(p)).second) << "duplicate delivery";
    }
  }
  EXPECT_EQ(seen.size(), next);
  EXPECT_EQ(q.overflow_count(), 0u);
  EXPECT_TRUE(q.empty());
}

// Property: N producers x M messages, single consumer — every message is
// delivered exactly once regardless of ring size (overflow pressure is the
// parameter).
class L2QueueMpsc : public ::testing::TestWithParam<std::size_t> {};

TEST_P(L2QueueMpsc, AllMessagesDeliveredExactlyOnce) {
  const std::size_t ring_capacity = GetParam();
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 10000;

  L2AtomicQueue<std::uint64_t*> q(ring_capacity);
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> seen;
  seen.reserve(kProducers * kPerProducer);

  std::thread consumer([&] {
    while (true) {
      if (auto* p = q.try_dequeue()) {
        seen.push_back(untag(p));
      } else if (done.load(std::memory_order_acquire) && q.empty()) {
        // One final sweep: producers have finished and queue reads empty.
        while (auto* p2 = q.try_dequeue()) seen.push_back(untag(p2));
        return;
      }
    }
  });

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.enqueue(tag(static_cast<std::uint64_t>(t) * kPerProducer + i));
      }
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  ASSERT_EQ(seen.size(), kProducers * kPerProducer);
  std::set<std::uint64_t> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), seen.size()) << "duplicate delivery";
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), kProducers * kPerProducer - 1);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, L2QueueMpsc,
                         ::testing::Values(2, 8, 64, 1024),
                         [](const auto& info) {
                           return "ring" + std::to_string(info.param);
                         });

TEST(OrderedL2Queue, PreservesFifoAcrossOverflow) {
  OrderedL2Queue<std::uint64_t*> q(2);
  // Fill ring, spill to overflow, then drain: order must be global FIFO.
  for (std::uint64_t i = 0; i < 6; ++i) q.enqueue(tag(i));
  std::vector<std::uint64_t> order;
  while (auto* p = q.try_dequeue()) order.push_back(untag(p));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(OrderedL2Queue, LaterEnqueueCannotOvertakeOverflow) {
  OrderedL2Queue<std::uint64_t*> q(2);
  q.enqueue(tag(0));
  q.enqueue(tag(1));
  q.enqueue(tag(2));  // overflow
  // Drain one from the ring; slot opens, but message 3 must still queue
  // behind 2 (which sits in overflow).
  EXPECT_EQ(untag(q.try_dequeue()), 0u);
  q.enqueue(tag(3));
  std::vector<std::uint64_t> order;
  while (auto* p = q.try_dequeue()) order.push_back(untag(p));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(OrderedL2Queue, MpscDeliversAll) {
  OrderedL2Queue<std::uint64_t*> q(8);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  std::atomic<bool> done{false};
  std::size_t count = 0;

  std::thread consumer([&] {
    while (true) {
      if (q.try_dequeue()) {
        ++count;
      } else if (done.load() && q.empty()) {
        while (q.try_dequeue()) ++count;
        return;
      }
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) q.enqueue(tag(i));
    });
  }
  for (auto& p : producers) p.join();
  done.store(true);
  consumer.join();
  EXPECT_EQ(count, kProducers * kPerProducer);
}

TEST(MutexQueue, BasicFifo) {
  MutexQueue<std::uint64_t*> q;
  for (std::uint64_t i = 0; i < 5; ++i) q.enqueue(tag(i));
  EXPECT_EQ(q.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(untag(q.try_dequeue()), i);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.try_dequeue(), nullptr);
}

}  // namespace
