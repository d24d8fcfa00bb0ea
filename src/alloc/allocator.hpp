// Allocator interface shared by the baseline arena allocator and the
// paper's lockless pool allocator, so benches and the runtime can swap
// implementations (Fig. 6 and Fig. 8 compare them).
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgq::alloc {

/// Thread identifier within one SMP node (worker PE or comm thread index).
using ThreadId = std::uint32_t;

/// The slot of a thread registered with no allocator (tests, the main
/// thread).  Allocators serve it from the plain heap.
inline constexpr ThreadId kNoSlot = ~ThreadId{0};

/// Abstract message-buffer allocator.
///
/// Threads must be registered up front (the Charm++ runtime knows its
/// thread count at node boot); `tid` is the caller's slot, and each slot
/// has exactly one allocating thread.  deallocate() may be called from
/// *any* thread — cross-thread frees are the contended case the paper
/// optimizes — because the buffer's header, not `tid`, names its owner.
class IAllocator {
 public:
  virtual ~IAllocator() = default;

  /// Allocate at least `bytes` bytes, aligned to 16.
  virtual void* allocate(ThreadId tid, std::size_t bytes) = 0;

  /// Return a buffer obtained from allocate(); callable from any thread.
  virtual void deallocate(ThreadId tid, void* p) = 0;

  /// Number of registered threads.
  virtual ThreadId thread_count() const = 0;
};

/// The allocator a thread takes runtime buffers from, and its slot there.
struct ThreadBinding {
  IAllocator* pool = nullptr;  ///< null: the thread has no slot
  ThreadId slot = kNoSlot;
};

namespace detail {
inline thread_local ThreadBinding tls_binding{};
}  // namespace detail

/// Bind the calling thread to `slot` of `pool`.  The machine layer binds
/// its workers, comm threads and transport poller; unbound threads take
/// plain heap paths.
inline void bind_thread(IAllocator* pool, ThreadId slot) noexcept {
  detail::tls_binding = ThreadBinding{pool, slot};
}

/// The calling thread's binding.
inline const ThreadBinding& this_thread() noexcept {
  return detail::tls_binding;
}

namespace detail {

/// Header prepended to every buffer; 16 bytes keeps user data 16-aligned.
struct BufferHeader {
  std::uint32_t owner;       ///< allocating thread (pool) or arena id
  std::uint16_t size_class;  ///< index into the size-class table
  std::uint16_t kind;        ///< BufferKind discriminator
  std::uint64_t magic;       ///< corruption / double-free canary
};
static_assert(sizeof(BufferHeader) == 16);

enum BufferKind : std::uint16_t {
  kKindArena = 0xA1,
  kKindPool = 0xB2,
  kKindHeapDirect = 0xC3,  ///< larger than the largest size class
  kKindSlab = 0xD4,        ///< carved from a per-thread slab block; its
                           ///< memory is freed with the block, never alone
};

inline constexpr std::uint64_t kLiveMagic = 0xB19B1005A110Cull;
inline constexpr std::uint64_t kFreeMagic = 0xDEADF4EEDEADF4EEull;

/// Size classes: 32 B .. 64 KiB in powers of two (the message-size range
/// Charm++ allocates on the fast path); larger requests go to the heap.
inline constexpr std::size_t kNumSizeClasses = 12;

inline constexpr std::size_t class_bytes(std::size_t cls) {
  return std::size_t{32} << cls;
}

/// Smallest class that fits `bytes`, or kNumSizeClasses if too large.
inline std::size_t size_class_for(std::size_t bytes) {
  std::size_t cls = 0;
  while (cls < kNumSizeClasses && class_bytes(cls) < bytes) ++cls;
  return cls;
}

}  // namespace detail
}  // namespace bgq::alloc
