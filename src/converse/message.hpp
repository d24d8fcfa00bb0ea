// Converse message layout.
//
// A message is a single allocation: a fixed-size header followed by
// payload.  Within an SMP process, messages move between PEs by pointer
// exchange (the paper's "local communication within the process is via
// pointer exchange"); across processes the header travels as PAMI
// metadata and the payload as the PAMI payload.
//
// The header has one 32-byte layout: what delivery needs, plus the causal
// trace id the message-lifecycle analyzer joins a message's hops by.
// Tracing is switched at run time (MachineConfig::trace_events): an
// untraced run leaves the id 0.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bgq::cvs {

/// Global processing-element rank.
using PeRank = std::uint32_t;

/// Registered handler index.
using HandlerId = std::uint16_t;

struct alignas(16) MsgHeader {
  std::uint32_t payload_bytes = 0;
  HandlerId handler = 0;
  /// Checkpoint epoch the message belongs to (fault-tolerant machines
  /// only; 0 otherwise).  Recovery bumps the machine epoch, so in-flight
  /// messages from before the rollback carry a stale tag and are
  /// discarded at execute time instead of double-applying.  Wraps at
  /// 2^16 — fine, since at most two epochs are ever live at once.
  std::uint16_t epoch = 0;
  PeRank src_pe = 0;
  PeRank dst_pe = 0;

  /// Causal trace id, stamped at send time when tracing is on; 0 means
  /// untraced.  Encoded as ((src_pe+1) << 32) | seq so it stays below
  /// 2^53 (exactly representable in the JSON exports' doubles) for any
  /// realistic PE count and message volume.
  std::uint64_t trace_id = 0;
};
// 24 bytes of fields, padded to 32 by the alignment that keeps every
// payload 16-byte aligned.
static_assert(sizeof(MsgHeader) == 32);

/// A Converse message.  Never constructed directly — allocated by
/// Pe::alloc_message / Process::alloc_message so the buffer comes from the
/// node's message allocator (pool or arena).
class Message {
 public:
  MsgHeader& header() noexcept { return *reinterpret_cast<MsgHeader*>(this); }
  const MsgHeader& header() const noexcept {
    return *reinterpret_cast<const MsgHeader*>(this);
  }

  std::byte* payload() noexcept {
    return reinterpret_cast<std::byte*>(this) + sizeof(MsgHeader);
  }
  const std::byte* payload() const noexcept {
    return reinterpret_cast<const std::byte*>(this) + sizeof(MsgHeader);
  }

  std::size_t payload_bytes() const noexcept {
    return header().payload_bytes;
  }
  std::size_t total_bytes() const noexcept {
    return sizeof(MsgHeader) + header().payload_bytes;
  }

  /// Reinterpret a raw allocation of total_bytes as a Message.
  static Message* from_raw(void* raw) { return static_cast<Message*>(raw); }
  void* raw() noexcept { return this; }
};

}  // namespace bgq::cvs
