// Stream-socket transport: a full mesh of Unix-domain (or TCP loopback)
// connections with length-prefixed framing, for jobs whose ranks cannot
// share memory.
//
// Connection establishment is deadlock-free by construction: every rank
// brings up its listener first, then connects to all lower ranks
// (retrying until their listeners appear), then accepts from all higher
// ranks; a connector identifies itself with a 4-byte hello.  Writes are
// blocking and serialized per peer, so a frame is never interleaved — a
// data frame is the packet buffer, written with one send; reads are
// non-blocking drains in poll(), and each complete data frame is copied
// once from the stream buffer into a packet (transport/wire.hpp).
//
// Liveness: the receiver stamps a frame's origin on arrival — on a
// socket, hearing from a peer *is* the only evidence it is alive — so
// heartbeats refresh the local last-heard table exactly as the shared
// fabric stamps do for the in-process and shm backends.  A peer that
// dies mid-run reads as EOF; its connection is parked and later writes
// to it are swallowed as blackholed, while the failure detector learns
// of the death from heartbeat silence as usual.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "transport/transport.hpp"

namespace bgq::transport {

class SocketTransport final : public Transport {
 public:
  /// Binds, connects the mesh and completes the hello handshake; throws
  /// std::runtime_error if any peer cannot be reached within the window.
  SocketTransport(trace::Registry& metrics, const Config& cfg);
  ~SocketTransport() override;

  Kind kind() const noexcept override { return Kind::kSocket; }
  bool endpoint_local(topo::NodeId ep) const noexcept override {
    return static_cast<unsigned>(ep) == rank_;
  }

  void inject(net::Packet* p) override;
  std::size_t poll() override;
  void send_ctrl(int dst, const CtrlMsg& m) override;

 private:
  struct Peer {
    int fd = -1;
    bool open = false;
    bool rx_closed = false;  ///< sent a malformed frame; no longer read
    std::unique_ptr<std::mutex> write_mu;
    std::vector<std::byte> rxbuf;  ///< partial-frame accumulation
  };

  std::string uds_path(unsigned rank) const;
  void connect_to(unsigned peer);
  void accept_from_higher();
  void send_frame(unsigned dst, const std::byte* frame, std::size_t bytes,
                  bool ctrl);
  std::size_t drain_peer(unsigned src);
  std::size_t parse_frames(unsigned src);

  const Config cfg_;
  const unsigned rank_;
  const unsigned nprocs_;
  int listen_fd_ = -1;
  std::vector<Peer> peers_;  ///< indexed by rank; self entry unused
  std::mutex poll_mu_;
};

}  // namespace bgq::transport
