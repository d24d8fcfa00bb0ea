// Frame formats shared by the shared-memory and socket transports.
//
// Every frame in a ring or on a stream starts with the same prefix:
//
//   u32  frame_bytes   (the whole frame, this field included)
//   u8   type          (a TransferKind for data frames, kFrameCtrl)
//
// A data frame is a net::Packet buffer pushed as-is: header, metadata,
// payload and acks, so its prefix is the header's `frame_bytes` and
// `kind`.  There is no data codec.  The receiver validates the header
// against the frame size before it allocates anything, takes one packet
// buffer from its own pool and copies the frame in once (packet_for).
// Only mem-FIFO packets travel: raw RDMA pointers cannot cross address
// spaces, and the machine layer forces the eager protocol for
// remote-process destinations.
//
// A ctrl frame carries one CtrlMsg through a small field-by-field codec;
// ctrl traffic is rare and carries variable-length blobs.
//
// Byte order is the host's, pinned little-endian at compile time: both
// ends of a job run on one host today, and a big-endian port would fail
// to build instead of silently misreading frames.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "transport/transport.hpp"

namespace bgq::transport::wire {

static_assert(std::endian::native == std::endian::little,
              "frames are host-order buffers; this host must be little-endian");

constexpr std::uint8_t kFrameData =
    static_cast<std::uint8_t>(net::TransferKind::kMemFifo);
/// Ctrl frames' type byte: no TransferKind uses it.
constexpr std::uint8_t kFrameCtrl = 0x80;

/// The prefix every frame starts with: u32 length + u8 type.
constexpr std::size_t kFrameOverhead = 5;

/// A frame that is malformed — corrupt or hostile input from another
/// process.  Thrown before anything is allocated for it.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The prefix of the frame at `p` (at least kFrameOverhead bytes).
inline std::uint32_t frame_length(const std::byte* p) noexcept {
  std::uint32_t n;
  std::memcpy(&n, p, sizeof(n));
  return n;
}
inline std::uint8_t frame_type(const std::byte* p) noexcept {
  return static_cast<std::uint8_t>(p[4]);
}

/// The bytes a transport ships for packet `p`: the packet buffer itself.
inline std::span<const std::byte> frame_of(const net::Packet& p) {
  if (p.kind != net::TransferKind::kMemFifo) {
    throw std::logic_error(
        "transport wire: RDMA transfers cannot cross processes");
  }
  return {p.frame(), p.frame_bytes};
}

/// Validate the header of a data frame of `frame_bytes` — `head` holds
/// its first min(frame_bytes, sizeof(net::Packet)) bytes — then return a
/// fresh packet from the calling thread's pool with that header copied
/// in.  The caller copies the body (frame_bytes - header bytes) after
/// it.  Every length is checked against the frame size first, so a
/// hostile frame cannot make the receiver allocate or read past it.
inline net::Packet* packet_for(const std::byte* head,
                               std::size_t frame_bytes) {
  if (frame_bytes < sizeof(net::Packet)) {
    throw FrameError("transport wire: data frame shorter than a header");
  }
  net::Packet h;
  std::memcpy(static_cast<void*>(&h), head, sizeof(h));
  if (h.kind != net::TransferKind::kMemFifo) {
    throw FrameError("transport wire: data frame kind is not mem-FIFO");
  }
  const std::uint64_t body = std::uint64_t{h.meta_bytes} + h.payload_bytes +
                             std::uint64_t{h.nacks} * sizeof(std::uint64_t);
  if (h.frame_bytes != frame_bytes ||
      sizeof(net::Packet) + body != frame_bytes) {
    throw FrameError(
        "transport wire: data frame lengths disagree with its size");
  }
  net::Packet* p = net::Packet::create_frame(frame_bytes);
  std::memcpy(static_cast<void*>(p), &h, sizeof(h));
  return p;
}

/// Validate a whole data frame and copy it into a fresh packet.
inline net::Packet* decode_packet(const std::byte* frame, std::size_t n) {
  net::Packet* p = packet_for(frame, n);
  std::memcpy(p->body(), frame + sizeof(net::Packet), p->body_bytes());
  return p;
}

// ---- ctrl frames ------------------------------------------------------------

inline void put_u16(std::vector<std::byte>& o, std::uint16_t v) {
  const auto* b = reinterpret_cast<const std::byte*>(&v);
  o.insert(o.end(), b, b + sizeof(v));
}
inline void put_u32(std::vector<std::byte>& o, std::uint32_t v) {
  const auto* b = reinterpret_cast<const std::byte*>(&v);
  o.insert(o.end(), b, b + sizeof(v));
}
inline void put_u64(std::vector<std::byte>& o, std::uint64_t v) {
  const auto* b = reinterpret_cast<const std::byte*>(&v);
  o.insert(o.end(), b, b + sizeof(v));
}

/// Bounds-checked cursor over a received ctrl body: a frame off the wire
/// can be anything, so truncation must be a loud error, not a wild read,
/// and leftover bytes an error too.
class Reader {
 public:
  Reader(const std::byte* p, std::size_t n) : p_(p), n_(n) {}

  template <typename T>
  T get() {
    T v;
    need(sizeof(v));
    std::memcpy(&v, p_ + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }
  std::vector<std::byte> bytes(std::size_t n) {
    need(n);
    std::vector<std::byte> out(p_ + pos_, p_ + pos_ + n);
    pos_ += n;
    return out;
  }
  /// Throw unless every byte was read: a body longer than its fields is
  /// as malformed as one that is shorter.
  void finish() const {
    if (pos_ != n_) {
      throw FrameError("transport wire: trailing bytes in frame");
    }
  }

 private:
  void need(std::size_t n) const {
    if (n > n_ - pos_) {
      throw FrameError("transport wire: truncated frame");
    }
  }
  const std::byte* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

/// Append one framed control message to `out`.
inline void encode_ctrl(const CtrlMsg& m, std::vector<std::byte>& out) {
  const std::size_t mark = out.size();
  put_u32(out, 0);  // frame length, patched below
  out.push_back(static_cast<std::byte>(kFrameCtrl));
  put_u16(out, m.type);
  put_u32(out, m.origin);
  put_u64(out, m.a);
  put_u64(out, m.b);
  put_u64(out, m.c);
  put_u32(out, static_cast<std::uint32_t>(m.blob.size()));
  out.insert(out.end(), m.blob.begin(), m.blob.end());
  const auto n = static_cast<std::uint32_t>(out.size() - mark);
  std::memcpy(out.data() + mark, &n, sizeof(n));
}

/// Decode a ctrl body (the frame after its kFrameOverhead prefix).
inline CtrlMsg decode_ctrl(const std::byte* body, std::size_t n) {
  Reader r(body, n);
  CtrlMsg m;
  m.type = r.get<std::uint16_t>();
  m.origin = r.get<std::uint32_t>();
  m.a = r.get<std::uint64_t>();
  m.b = r.get<std::uint64_t>();
  m.c = r.get<std::uint64_t>();
  m.blob = r.bytes(r.get<std::uint32_t>());
  r.finish();
  return m;
}

}  // namespace bgq::transport::wire
