// Network transfer descriptors: one flat packet buffer per transfer.
//
// The BG/Q Messaging Unit supports three point-to-point packet types
// (§II-A): memory-FIFO packets (delivered into a reception FIFO), RDMA
// read and RDMA write.  The fabric moves whole *transfers* (a message's
// worth of packets); per-packet chunking enters through the wire-time
// formula and the packet counters, which is what the runtime above can
// observe.
//
// A Packet is one contiguous, trivially copyable buffer
//
//   [ header (64 B) | metadata | payload | acks (u64 each) ]
//
// and that buffer *is* the wire frame: a transport pushes frame() as-is
// into a shm ring or a socket, and the receiver validates the header
// against the frame size, then copies the frame into one fresh packet
// (transport/wire.hpp).  Buffers come from the allocating thread's slot
// in its process's pool allocator — the paper's lockless pool (§III-B),
// see alloc::bind_thread — or from the plain heap for threads with no
// slot.  A 16-byte prefix in front of the header names the owning
// allocator, so release() returns a buffer to the pool it came from on
// any thread; the prefix never travels.
//
// RDMA kinds never cross address spaces.  Their metadata is an RdmaOp
// (the copy the fabric performs plus a completion function pointer), and
// their payload is the completion's argument bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

#include "alloc/allocator.hpp"
#include "common/hash.hpp"
#include "topology/torus.hpp"

namespace bgq::net {

enum class TransferKind : std::uint8_t {
  kMemFifo,    ///< active-message packet into a reception FIFO
  kRdmaRead,   ///< rget: pull bytes from a remote registered buffer
  kRdmaWrite,  ///< rput: push bytes into a remote registered buffer
};

/// Reliability-protocol packet flags (net/fault.hpp, pami reliability).
/// Zero on every packet unless the sending client enabled reliability, so
/// the lossless fast path carries no protocol state.
enum PacketFlag : std::uint8_t {
  kPktReliable = 1u << 0,  ///< carries a sequence number; must be acked
  kPktAck = 1u << 1,       ///< standalone ack: `acks` only, no dispatch
};

/// An RDMA completion: a plain function pointer plus the bytes of the
/// trivially copyable callable it runs.  Both ride inside the RDMA
/// packet, so a transfer allocates nothing for its completion.
class Completion {
 public:
  static constexpr std::size_t kMaxBytes = 48;

  Completion() noexcept = default;

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Completion>>>
  Completion(F f) noexcept  // NOLINT(google-explicit-constructor)
      : run_([](void* args) { (*static_cast<F*>(args))(); }),
        bytes_(sizeof(F)) {
    static_assert(std::is_trivially_copyable_v<F> &&
                      std::is_trivially_destructible_v<F>,
                  "an RDMA completion travels as raw bytes");
    static_assert(sizeof(F) <= kMaxBytes && alignof(F) <= 16,
                  "RDMA completion captures too much");
    ::new (static_cast<void*>(args_)) F(f);
  }

  explicit operator bool() const noexcept { return run_ != nullptr; }

 private:
  friend struct Packet;
  void (*run_)(void* args) = nullptr;
  std::size_t bytes_ = 0;
  alignas(16) std::byte args_[kMaxBytes] = {};
};

/// An RDMA transfer's metadata: the copy the fabric performs and the
/// completion it then queues to the destination FIFO.
struct RdmaOp {
  const std::byte* src = nullptr;
  std::byte* dst = nullptr;
  std::uint64_t bytes = 0;
  void (*run)(void* args) = nullptr;  ///< null: no completion
};

/// One transfer: the 64-byte header of a packet buffer, followed in
/// memory by its body.  Created only through the factories below and
/// returned with release().  Owned by the fabric between inject() and
/// delivery, then by the receiver.
///
/// Host byte order (pinned little-endian, transport/wire.hpp).
/// `frame_bytes` and `kind` double as the prefix every transport frame
/// starts with; bytes [4, 36), `kind` through `nacks`, are everything the
/// receiver acts on besides the body, and packet_checksum covers them.
struct Packet {
  /// Whole frame: header + metadata + payload + acks.
  std::uint32_t frame_bytes;
  TransferKind kind;
  /// Protocol flags (PacketFlag bits).
  std::uint8_t flags;
  /// Active-message dispatch id (mem-FIFO only).
  std::uint16_t dispatch;
  topo::NodeId src;
  topo::NodeId dst;
  /// Reception FIFO at the destination this packet is steered to.
  std::uint16_t rec_fifo;
  /// Sending context index at the source endpoint: (src, src_ctx) names
  /// the sender half of the channel the seq number lives in.
  std::uint16_t src_ctx;
  std::uint32_t payload_bytes;
  /// Per-channel sequence number (1-based; 0 = unsequenced).
  std::uint64_t seq;
  std::uint16_t meta_bytes;
  /// Piggybacked (or, with kPktAck, standalone) acknowledged seqs for the
  /// reverse direction of the channel.
  std::uint16_t nacks;
  /// Number of 512-byte network packets this transfer consumed.
  std::uint32_t num_packets;
  /// Modeled one-way wire time stamped by the fabric at injection.
  std::uint64_t wire_ns;
  /// Causal trace id of the message this transfer carries (0 = untraced).
  /// Observability sidecar only: excluded from packet_checksum because the
  /// receiver never acts on it — a corrupted cid must not fail delivery.
  std::uint64_t cid;
  /// End-to-end checksum (packet_checksum) — computed by the sender,
  /// verified by the receiver.  Catches in-flight bit flips.
  std::uint64_t checksum;

  static constexpr std::size_t kMaxMetadata = 0xFFFF;
  static constexpr std::size_t kMaxAcks = 0xFFFF;

  // ---- body -------------------------------------------------------------
  std::byte* body() noexcept { return reinterpret_cast<std::byte*>(this + 1); }
  const std::byte* body() const noexcept {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
  std::byte* metadata() noexcept { return body(); }
  const std::byte* metadata() const noexcept { return body(); }
  std::byte* payload() noexcept { return body() + meta_bytes; }
  const std::byte* payload() const noexcept { return body() + meta_bytes; }
  std::size_t body_bytes() const noexcept {
    return frame_bytes - sizeof(Packet);
  }

  std::uint64_t ack(std::size_t i) const noexcept {
    std::uint64_t v;
    std::memcpy(&v, payload() + payload_bytes + i * sizeof(v), sizeof(v));
    return v;
  }
  void set_ack(std::size_t i, std::uint64_t v) noexcept {
    std::memcpy(payload() + payload_bytes + i * sizeof(v), &v, sizeof(v));
  }

  /// The bytes a transport ships: the buffer from this header on.
  const std::byte* frame() const noexcept {
    return reinterpret_cast<const std::byte*>(this);
  }

  /// Bytes the fabric's link model charges for this transfer.
  std::size_t transfer_bytes() const noexcept {
    return kind == TransferKind::kMemFifo
               ? std::size_t{meta_bytes} + payload_bytes
               : static_cast<std::size_t>(rdma().bytes);
  }

  // ---- RDMA kinds ---------------------------------------------------------
  RdmaOp& rdma() noexcept { return *reinterpret_cast<RdmaOp*>(body()); }
  const RdmaOp& rdma() const noexcept {
    return *reinterpret_cast<const RdmaOp*>(body());
  }
  /// Run the RDMA completion, if any, on its argument bytes.
  void complete() {
    if (rdma().run != nullptr) rdma().run(payload());
  }

  // ---- lifetime -----------------------------------------------------------

  /// A mem-FIFO packet with room for the given body: zeroed header with
  /// the lengths set, body uninitialized.
  static Packet* create(std::size_t meta, std::size_t payload,
                        std::size_t nacks = 0) {
    if (meta > kMaxMetadata || nacks > kMaxAcks ||
        payload > UINT32_MAX - sizeof(Packet) - meta - nacks * 8) {
      throw std::length_error("net::Packet: body too large for one frame");
    }
    const std::size_t n = sizeof(Packet) + meta + payload + nacks * 8;
    Packet* p = ::new (allocate(n)) Packet{};
    p->frame_bytes = static_cast<std::uint32_t>(n);
    p->meta_bytes = static_cast<std::uint16_t>(meta);
    p->payload_bytes = static_cast<std::uint32_t>(payload);
    p->nacks = static_cast<std::uint16_t>(nacks);
    return p;
  }

  /// An RDMA packet that copies `bytes` from `src` to `dst` and then runs
  /// `done` on the destination side.
  static Packet* create_rdma(TransferKind kind, const std::byte* src,
                             std::byte* dst, std::size_t bytes,
                             const Completion& done) {
    Packet* p = create(sizeof(RdmaOp), done.bytes_);
    p->kind = kind;
    ::new (static_cast<void*>(p->body())) RdmaOp{src, dst, bytes, done.run_};
    std::memcpy(p->payload(), done.args_, done.bytes_);
    return p;
  }

  /// Uninitialized room for a received frame of `frame_bytes` (at least
  /// a header); the caller copies a validated frame in.
  static Packet* create_frame(std::size_t frame_bytes) {
    return ::new (allocate(frame_bytes)) Packet;
  }

  /// A copy of this packet in a buffer from the calling thread's pool:
  /// the retransmit buffer's private copy, the chaos duplicate.
  Packet* clone() const {
    Packet* p = create_frame(frame_bytes);
    std::memcpy(static_cast<void*>(p), this, frame_bytes);
    return p;
  }

  /// `p` with room for exactly `nacks` acks: the header, metadata and
  /// payload move to a fresh buffer and `p` is released.
  static Packet* with_acks(Packet* p, std::size_t nacks) {
    if (nacks == p->nacks) return p;
    Packet* q = create(p->meta_bytes, p->payload_bytes, nacks);
    const std::uint32_t frame = q->frame_bytes;
    std::memcpy(static_cast<void*>(q), p,
                sizeof(Packet) + p->meta_bytes + p->payload_bytes);
    q->frame_bytes = frame;
    q->nacks = static_cast<std::uint16_t>(nacks);
    p->release();
    return q;
  }

  /// Return the buffer to the allocator it came from.  Any thread.
  void release() {
    auto* pre = reinterpret_cast<Prefix*>(reinterpret_cast<char*>(this) -
                                          sizeof(Prefix));
    if (pre->pool != nullptr) {
      pre->pool->deallocate(alloc::kNoSlot, pre);
    } else {
      ::operator delete(pre, std::align_val_t{16});
    }
  }

 private:
  /// Local bookkeeping in front of the header; never on the wire.
  struct alignas(16) Prefix {
    alloc::IAllocator* pool;
  };

  static void* allocate(std::size_t frame_bytes) {
    const alloc::ThreadBinding& t = alloc::this_thread();
    const std::size_t n = sizeof(Prefix) + frame_bytes;
    void* raw = t.pool != nullptr ? t.pool->allocate(t.slot, n)
                                  : ::operator new(n, std::align_val_t{16});
    return ::new (raw) Prefix{t.pool} + 1;
  }
};

static_assert(sizeof(Packet) == 64);
static_assert(std::is_trivially_copyable_v<Packet> &&
              std::is_standard_layout_v<Packet>);
static_assert(offsetof(Packet, kind) == 4 && offsetof(Packet, nacks) == 34);

/// Owning handle that releases a packet on scope exit.
struct PacketRelease {
  void operator()(Packet* p) const { p->release(); }
};
using PacketPtr = std::unique_ptr<Packet, PacketRelease>;

/// FNV-1a over everything the receiver acts on: one pass over the header
/// fields from `kind` through `nacks` (addressing, protocol fields and the
/// body lengths) and one over the body (metadata, payload, acks).  The
/// checksum field itself, the fabric's wire stamps and the cid sidecar
/// are excluded.
inline std::uint64_t packet_checksum(const Packet& p) noexcept {
  constexpr std::size_t kFirst = offsetof(Packet, kind);
  constexpr std::size_t kEnd = offsetof(Packet, num_packets);
  const std::uint64_t h =
      fnv1a(kFnvOffsetBasis, p.frame() + kFirst, kEnd - kFirst);
  return fnv1a(h, p.body(), p.body_bytes());
}

}  // namespace bgq::net
