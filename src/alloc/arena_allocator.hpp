// Baseline allocator emulating the GNU (ptmalloc2) arena design the paper
// measures against (§III-B).
//
// ptmalloc behaviour being modelled:
//   * allocate: the thread tries to take an arena that is not currently in
//     use by another thread (trylock scan from its preferred arena), and
//     locks it for the duration of the allocation;
//   * free: must lock the mutex of *the arena the buffer came from* —
//     regardless of which thread is freeing.  When many threads free
//     buffers allocated from one arena (the "many receivers free messages
//     from one source" pattern), they all contend on that one mutex.
//
// That free-side contention is exactly what Fig. 6 shows and what the
// lockless pool allocator removes.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "alloc/allocator.hpp"
#include "common/cacheline.hpp"
#include "trace/registry.hpp"

namespace bgq::alloc {

/// Mutex-per-arena allocator with per-size-class free lists.
class ArenaAllocator final : public IAllocator {
 public:
  /// glibc creates roughly `8 * cores` arenas, but a 64-thread BG/Q node
  /// saw heavy sharing; `arenas_per_thread` below 1 reproduces that
  /// pressure.  Default: one arena per four threads, the regime the paper's
  /// contention observation corresponds to.  Every time an allocate or
  /// free has to wait for an arena mutex counts in `metrics` as
  /// alloc.arena.contention.
  ArenaAllocator(trace::Registry& metrics, ThreadId nthreads,
                 std::size_t narenas = 0);
  ~ArenaAllocator() override;

  void* allocate(ThreadId tid, std::size_t bytes) override;
  void deallocate(ThreadId tid, void* p) override;
  ThreadId thread_count() const override { return nthreads_; }

  std::size_t arena_count() const { return arenas_.size(); }

 private:
  struct alignas(kL2Line) Arena {
    std::mutex mutex;
    std::vector<void*> free_lists[detail::kNumSizeClasses];
  };

  void* allocate_from(Arena& arena, std::uint32_t arena_id,
                      std::size_t bytes);

  const ThreadId nthreads_;
  std::vector<Arena> arenas_;
  trace::Cell& contention_;
};

}  // namespace bgq::alloc
