// Schedule-fuzzed exclusivity tests for the pool allocator (§III-B): under
// every explored interleaving of local allocs, local frees, and lockless
// cross-thread frees, no buffer may be live in two hands at once and no
// free may act on a dead buffer.  This target recompiles pool_allocator.cpp
// with BGQ_SCHEDULE_POINTS so the pool hot path itself yields to the
// fuzzer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "alloc/pool_allocator.hpp"
#include "harness_util.hpp"
#include "test_seed.hpp"
#include "verify/scheduler.hpp"

namespace {

using bgq::alloc::PoolAllocator;
using bgq::harness::ptr_to_id;
using bgq::harness::RunOptions;
using bgq::harness::run_schedule;
using bgq::test_support::announce_seed;
using bgq::test_support::harness_scale;
using bgq::verify::AllocSpec;
using bgq::verify::check_linearizable;
using bgq::verify::exhaust_schedules;
using bgq::verify::History;
using bgq::verify::LinResult;
using bgq::verify::OpKind;
using bgq::verify::ScheduleTrace;

inline std::uint64_t pid(void* p) {
  return ptr_to_id(static_cast<std::uint64_t*>(p));
}

struct AllocFuzzConfig {
  int owner_allocs = 6;   ///< buffers the owning thread allocates
  int handoffs = 3;       ///< of those, how many are freed cross-thread
  std::size_t pool_slots = 2;  ///< tiny threshold: spill path exercised
  std::uint64_t seed = 1;
  const std::vector<std::uint8_t>* replay = nullptr;
  bool deterministic_fallback = false;
};

struct AllocFuzzOutcome {
  LinResult lin;
  bgq::harness::RunResult run;
};

/// One fuzzed schedule: thread 0 owns a pool, allocates, frees some
/// buffers locally and hands the rest to thread 1, which frees them
/// cross-thread (the lockless enqueue into thread 0's pool).  Thread 0
/// then re-allocates so pool reuse races against the remote frees.
AllocFuzzOutcome fuzz_alloc_once(const AllocFuzzConfig& cfg) {
  bgq::trace::Registry metrics;
  PoolAllocator pa(metrics, /*nthreads=*/2, cfg.pool_slots);
  History h(256);
  std::vector<std::atomic<void*>> mailbox(cfg.handoffs);
  for (auto& m : mailbox) m.store(nullptr, std::memory_order_relaxed);

  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    std::vector<void*> kept;
    for (int i = 0; i < cfg.owner_allocs; ++i) {
      const auto hd = h.begin(0, OpKind::kAlloc);
      void* p = pa.allocate(0, 64);
      h.end(hd, pid(p));
      kept.push_back(p);
    }
    for (int i = 0; i < cfg.handoffs; ++i) {
      mailbox[i].store(kept[i], std::memory_order_release);
    }
    for (int i = cfg.handoffs; i < cfg.owner_allocs; ++i) {
      const auto hd = h.begin(0, OpKind::kFree, pid(kept[i]));
      pa.deallocate(0, kept[i]);
      h.end(hd);
    }
    // Re-allocate while the remote frees are (possibly) mid-enqueue into
    // this thread's pool: the dequeue side of the §III-B race.
    for (int i = 0; i < 2; ++i) {
      const auto ha = h.begin(0, OpKind::kAlloc);
      void* p = pa.allocate(0, 64);
      h.end(ha, pid(p));
      const auto hf = h.begin(0, OpKind::kFree, pid(p));
      pa.deallocate(0, p);
      h.end(hf);
    }
  });
  bodies.emplace_back([&] {
    int got = 0;
    for (int attempts = 0; got < cfg.handoffs && attempts < 4000;
         ++attempts) {
      bgq::verify::schedule_point("test.mailbox.poll");
      void* p = mailbox[got].load(std::memory_order_acquire);
      if (!p) continue;
      const auto hd = h.begin(1, OpKind::kFree, pid(p));
      pa.deallocate(1, p);
      h.end(hd);
      ++got;
    }
  });

  RunOptions ro;
  ro.seed = cfg.seed;
  ro.replay = cfg.replay;
  ro.deterministic_fallback = cfg.deterministic_fallback;

  AllocFuzzOutcome out;
  out.run = run_schedule(ro, bodies);
  out.lin = check_linearizable<AllocSpec>(h.ops());
  if (h.overflowed()) {
    out.lin.verdict = bgq::verify::LinVerdict::kLimit;
    out.lin.message = "history capacity overflow";
  }
  return out;
}

TEST(FuzzAlloc, PoolAllocatorPassesFuzzedSchedules) {
  const std::uint64_t base = announce_seed("FuzzAlloc.PoolAllocator", 0xA110C);
  const std::uint64_t n =
      std::max<std::uint64_t>(2000 / harness_scale(), 10);
  for (std::uint64_t i = 0; i < n; ++i) {
    AllocFuzzConfig cfg;
    cfg.seed = base + i;
    const auto out = fuzz_alloc_once(cfg);
    ASSERT_FALSE(out.run.deadlocked)
        << bgq::harness::describe_run(cfg.seed, out.run);
    ASSERT_TRUE(out.lin.ok())
        << bgq::harness::describe_run(cfg.seed, out.run) << "\n"
        << out.lin.message;
  }
}

TEST(FuzzAlloc, PoolReuseIsExercised) {
  // Sanity that the fuzz scenario actually drives the pool fast path (not
  // just heap fallbacks): across a batch of schedules the allocator must
  // report pool hits.  Uses the instrumented allocator directly.
  bgq::trace::Registry metrics;
  for (std::uint64_t i = 0; i < 50; ++i) {
    PoolAllocator pa(metrics, 2, 4);
    void* a = pa.allocate(0, 64);
    pa.deallocate(0, a);
    void* b = pa.allocate(0, 64);
    pa.deallocate(0, b);
  }
  EXPECT_GT(metrics.total("alloc.pool.hits"), 0u);
}

TEST(FuzzAlloc, ExhaustiveSmallBoundPoolAllocator) {
  std::uint64_t violations = 0;
  std::string first_bad;
  const std::uint64_t runs = exhaust_schedules(
      10, 30000, [&](const std::vector<std::uint8_t>& prefix) {
        AllocFuzzConfig cfg;
        cfg.owner_allocs = 2;
        cfg.handoffs = 1;
        cfg.seed = 3;
        cfg.replay = &prefix;
        cfg.deterministic_fallback = true;
        const auto out = fuzz_alloc_once(cfg);
        if (!out.lin.ok() || out.run.deadlocked) {
          ++violations;
          if (first_bad.empty()) {
            first_bad = bgq::harness::describe_run(cfg.seed, out.run) + "\n" +
                        out.lin.message;
          }
        }
        return out.run.trace;
      });
  EXPECT_EQ(violations, 0u) << first_bad;
  EXPECT_GT(runs, 20u);
  std::fprintf(stderr, "[ EXHAUST  ] PoolAllocator: %llu schedules\n",
               static_cast<unsigned long long>(runs));
}

}  // namespace
