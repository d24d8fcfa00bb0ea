// Figure 6: malloc/free performance with many threads, lockless pool
// allocator vs GNU-arena-style allocator.
//
// The paper's benchmark: all 64 threads on a node simultaneously allocate
// 100 buffers and free all 100, for a sweep of buffer sizes; the lockless
// pool removes the arena-mutex contention on the free path.  This host
// has 1 core, so we run the paper's thread count (the contention pattern
// is preserved through the futex path) and also a google-benchmark single-
// thread section for the uncontended costs.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/arena_allocator.hpp"
#include "alloc/pool_allocator.hpp"
#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"

using namespace bgq;

namespace {

/// Paper's kernel, iterated so thread startup amortizes on this 1-core
/// host: every thread repeatedly allocates 100 buffers; the frees are
/// issued by the *next* thread (the paper's contended pattern — message
/// receivers free the sender's buffers).  Returns ns per alloc+free pair.
double episode_ns_per_op(alloc::IAllocator& a, unsigned threads,
                         std::size_t bytes, int inner) {
  std::vector<std::vector<void*>> handoff(threads,
                                          std::vector<void*>(100));
  std::atomic<int> alloc_done{0}, free_done{0};
  std::vector<std::thread> ts;
  Timer t;
  for (unsigned tid = 0; tid < threads; ++tid) {
    ts.emplace_back([&, tid] {
      for (int it = 0; it < inner; ++it) {
        for (auto& b : handoff[tid]) b = a.allocate(tid, bytes);
        // Round barrier, then each thread frees a distinct victim's
        // buffers (cross-thread frees, no two threads share a victim).
        alloc_done.fetch_add(1);
        while (alloc_done.load() < static_cast<int>(threads) * (it + 1)) {
          std::this_thread::yield();
        }
        const unsigned victim = (tid + 1) % threads;
        for (auto& b : handoff[victim]) a.deallocate(tid, b);
        // Second barrier: nobody re-allocates into a slot that a peer is
        // still draining.
        free_done.fetch_add(1);
        while (free_done.load() < static_cast<int>(threads) * (it + 1)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  const double ops = 100.0 * threads * inner;
  return static_cast<double>(t.elapsed_ns()) / ops;
}

void run_figure6(bench::JsonReport& json) {
  std::printf("== Figure 6: contended malloc + cross-thread free "
              "(ns per alloc+free pair) ==\n");
  std::printf("paper: the lockless pool removes arena-mutex contention "
              "on the free path (multi-x on 64 BG/Q threads); on this "
              "1-core host residual contention shows as arena futex "
              "waits\n\n");
  constexpr unsigned kThreads = 8;
  constexpr int kInner = 100;

  TextTable tbl({"bytes", "arena_ns", "pool_ns", "speedup",
                 "arena_waits"});
  for (std::size_t bytes : {64u, 256u, 1024u, 4096u, 16384u}) {
    trace::Registry metrics;
    alloc::ArenaAllocator arena(metrics, kThreads);
    alloc::PoolAllocator pool(metrics, kThreads);
    episode_ns_per_op(pool, kThreads, bytes, 4);   // warm the pools
    episode_ns_per_op(arena, kThreads, bytes, 4);  // warm the free lists
    const double ta = episode_ns_per_op(arena, kThreads, bytes, kInner);
    const double tp = episode_ns_per_op(pool, kThreads, bytes, kInner);
    const std::uint64_t waits = metrics.total("alloc.arena.contention");
    tbl.row(bytes, ta, tp, ta / tp, waits);
    const std::string sz = std::to_string(bytes);
    json.add("fig6.arena_ns." + sz, ta);
    json.add("fig6.pool_ns." + sz, tp);
    json.add("fig6.arena_waits." + sz, waits);
  }
  tbl.print();
  std::printf("\n");
}

// ---- single-thread micro costs (google-benchmark) -------------------------

void BM_ArenaAllocFree(benchmark::State& state) {
  trace::Registry metrics;
  alloc::ArenaAllocator a(metrics, 1);
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = a.allocate(0, bytes);
    benchmark::DoNotOptimize(p);
    a.deallocate(0, p);
  }
}
BENCHMARK(BM_ArenaAllocFree)->Arg(256)->Arg(4096);

void BM_PoolAllocFree(benchmark::State& state) {
  trace::Registry metrics;
  alloc::PoolAllocator a(metrics, 1);
  const auto bytes = static_cast<std::size_t>(state.range(0));
  // Prime the pool.
  a.deallocate(0, a.allocate(0, bytes));
  for (auto _ : state) {
    void* p = a.allocate(0, bytes);
    benchmark::DoNotOptimize(p);
    a.deallocate(0, p);
  }
}
BENCHMARK(BM_PoolAllocFree)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_alloc");
  run_figure6(json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return json.write();
}
