// Tests for the allocators (src/alloc): the paper's lockless pool
// allocator and the GNU-arena-style baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/arena_allocator.hpp"
#include "alloc/pool_allocator.hpp"
#include "trace/registry.hpp"

namespace {

using bgq::alloc::ArenaAllocator;
using bgq::alloc::IAllocator;
using bgq::alloc::PoolAllocator;
using bgq::trace::Registry;

// Both allocators must satisfy the same contract; run the shared suite
// against each.
enum class Kind { kArena, kPool };

class AllocatorContract : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<IAllocator> make(Kind k, unsigned nthreads) {
    if (k == Kind::kArena) {
      return std::make_unique<ArenaAllocator>(metrics_, nthreads);
    }
    return std::make_unique<PoolAllocator>(metrics_, nthreads);
  }

 private:
  Registry metrics_;
};

TEST_P(AllocatorContract, AllocateGivesWritableAlignedMemory) {
  auto a = make(GetParam(), 4);
  void* p = a->allocate(0, 100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
  std::memset(p, 0xAB, 100);
  a->deallocate(0, p);
}

TEST_P(AllocatorContract, ManySizesIncludingHuge) {
  auto a = make(GetParam(), 2);
  std::vector<void*> ptrs;
  for (std::size_t sz : {1u, 31u, 32u, 33u, 4096u, 65536u, 65537u,
                         1u << 20}) {
    void* p = a->allocate(1, sz);
    ASSERT_NE(p, nullptr) << sz;
    std::memset(p, 1, sz);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) a->deallocate(1, p);
}

TEST_P(AllocatorContract, ReuseAfterFree) {
  auto a = make(GetParam(), 1);
  void* p1 = a->allocate(0, 256);
  a->deallocate(0, p1);
  void* p2 = a->allocate(0, 256);
  a->deallocate(0, p2);
  SUCCEED();  // contract: no crash, no corruption (ASan-visible)
}

TEST_P(AllocatorContract, DistinctLiveBuffersDoNotAlias) {
  auto a = make(GetParam(), 1);
  constexpr int kN = 100;
  std::vector<char*> ptrs;
  for (int i = 0; i < kN; ++i) {
    auto* p = static_cast<char*>(a->allocate(0, 64));
    std::memset(p, i, 64);
    ptrs.push_back(p);
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(ptrs[i][0], static_cast<char>(i));
    EXPECT_EQ(ptrs[i][63], static_cast<char>(i));
  }
  for (auto* p : ptrs) a->deallocate(0, p);
}

TEST_P(AllocatorContract, CrossThreadFreeIsSafe) {
  // The paper's contended pattern: thread 0 allocates (a message source),
  // other threads free (the receivers).
  auto a = make(GetParam(), 4);
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<void*> bufs;
    for (int i = 0; i < 12; ++i) bufs.push_back(a->allocate(0, 512));
    std::vector<std::thread> ts;
    for (unsigned t = 1; t <= 3; ++t) {
      ts.emplace_back([&, t] {
        for (int i = static_cast<int>(t) - 1; i < 12; i += 3) {
          a->deallocate(t, bufs[static_cast<std::size_t>(i)]);
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  SUCCEED();
}

TEST_P(AllocatorContract, ParallelChurnDeliversDistinctBuffers) {
  auto a = make(GetParam(), 4);
  std::atomic<bool> failed{false};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      std::vector<void*> mine;
      for (int round = 0; round < 500; ++round) {
        for (int i = 0; i < 20; ++i) {
          auto* p = static_cast<unsigned char*>(a->allocate(t, 128));
          p[0] = static_cast<unsigned char>(t);
          mine.push_back(p);
        }
        for (void* p : mine) {
          if (static_cast<unsigned char*>(p)[0] !=
              static_cast<unsigned char>(t)) {
            failed.store(true);
          }
          a->deallocate(t, p);
        }
        mine.clear();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(failed.load()) << "two threads observed the same live buffer";
}

INSTANTIATE_TEST_SUITE_P(Allocators, AllocatorContract,
                         ::testing::Values(Kind::kArena, Kind::kPool),
                         [](const auto& info) {
                           return info.param == Kind::kArena ? "Arena"
                                                             : "Pool";
                         });

TEST(PoolAllocator, SecondAllocComesFromPool) {
  Registry metrics;
  PoolAllocator a(metrics, 1);
  void* p1 = a.allocate(0, 256);
  a.deallocate(0, p1);
  EXPECT_EQ(metrics.total("alloc.pool.hits"), 0u);
  void* p2 = a.allocate(0, 256);
  EXPECT_EQ(metrics.total("alloc.pool.hits"), 1u);
  EXPECT_EQ(p1, p2) << "pool should return the pooled buffer";
  a.deallocate(0, p2);
}

TEST(PoolAllocator, FreeBeyondThresholdSpillsToHeap) {
  Registry metrics;
  PoolAllocator a(metrics, 1, /*pool_slots=*/4);
  std::vector<void*> bufs;
  for (int i = 0; i < 10; ++i) bufs.push_back(a.allocate(0, 64));
  for (void* p : bufs) a.deallocate(0, p);
  EXPECT_GE(metrics.total("alloc.heap.frees"), 6u)
      << "only 4 slots fit in the pool";
}

TEST(PoolAllocator, HugeBuffersBypassPools) {
  Registry metrics;
  PoolAllocator a(metrics, 1);
  void* p = a.allocate(0, 1 << 20);
  a.deallocate(0, p);
  void* p2 = a.allocate(0, 1 << 20);
  a.deallocate(0, p2);
  EXPECT_EQ(metrics.total("alloc.pool.hits"), 0u);
}

TEST(PoolAllocator, DoubleFreeDetected) {
  Registry metrics;
  PoolAllocator a(metrics, 1, 16);
  void* p = a.allocate(0, 64);
  a.deallocate(0, p);
  EXPECT_THROW(a.deallocate(0, p), std::logic_error);
}

TEST(PoolAllocator, CrossThreadFreeReturnsBufferToOwnerPool) {
  Registry metrics;
  PoolAllocator a(metrics, 2);
  void* p = a.allocate(0, 128);      // owned by thread 0
  a.deallocate(1, p);                // freed by thread 1
  void* p2 = a.allocate(0, 128);     // thread 0 allocates again
  EXPECT_EQ(p, p2) << "buffer must return to the creating thread's pool";
  EXPECT_EQ(metrics.total("alloc.pool.hits"), 1u);
  a.deallocate(0, p2);
}

TEST(ArenaAllocator, DefaultArenaCountScalesDown) {
  Registry metrics;
  ArenaAllocator a(metrics, 16);
  EXPECT_EQ(a.arena_count(), 4u);  // one arena per four threads
  ArenaAllocator b(metrics, 2);
  EXPECT_EQ(b.arena_count(), 1u);
}

TEST(ArenaAllocator, ContentionCounterMovesUnderPressure) {
  // Many threads freeing into one arena must record contention events —
  // the effect Fig. 6 quantifies.  (Timesharing hosts may serialize
  // perfectly, so only assert the counter is readable and monotone.)
  Registry metrics;
  ArenaAllocator a(metrics, 8, /*narenas=*/1);
  const auto before = metrics.total("alloc.arena.contention");
  std::vector<void*> bufs;
  for (int i = 0; i < 64; ++i) bufs.push_back(a.allocate(0, 256));
  std::vector<std::thread> ts;
  std::atomic<std::size_t> next{0};
  for (unsigned t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= bufs.size()) return;
        a.deallocate(t, bufs[i]);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_GE(metrics.total("alloc.arena.contention"), before);
}

TEST(ArenaAllocator, RejectsZeroThreads) {
  Registry metrics;
  EXPECT_THROW(ArenaAllocator(metrics, 0), std::invalid_argument);
}

TEST(PoolAllocator, RejectsZeroThreads) {
  Registry metrics;
  EXPECT_THROW(PoolAllocator(metrics, 0), std::invalid_argument);
}

}  // namespace
