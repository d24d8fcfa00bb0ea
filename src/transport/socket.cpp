#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/timing.hpp"
#include "transport/wire.hpp"

namespace bgq::transport {

namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("socket transport: " + what + ": " +
                           std::strerror(errno));
}

/// Blocking write of the whole buffer (EINTR-safe).  Returns false when
/// the peer is gone (EPIPE/ECONNRESET) — any other failure throws.
bool send_all(int fd, const std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      die("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Blocking read of exactly `n` bytes (handshake only).
bool recv_all(int fd, std::byte* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

std::string SocketTransport::uds_path(unsigned rank) const {
  return cfg_.socket_dir + "/" + cfg_.session + "." + std::to_string(rank) +
         ".sock";
}

SocketTransport::SocketTransport(trace::Registry& metrics, const Config& cfg)
    : Transport(metrics, cfg.nprocs),
      cfg_(cfg),
      rank_(cfg.rank),
      nprocs_(cfg.nprocs) {
  peers_.resize(nprocs_);
  for (auto& p : peers_) p.write_mu = std::make_unique<std::mutex>();

  // Listener first: lower ranks must be accept-ready before higher ranks
  // connect, and bringing it up before any connect() makes the mesh
  // bring-up order-free across concurrently launched ranks.
  if (cfg_.use_tcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) die("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.base_port + rank_));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      die("bind(port " + std::to_string(cfg_.base_port + rank_) + ")");
    }
  } else {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) die("socket");
    const std::string path = uds_path(rank_);
    ::unlink(path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket transport: path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      die("bind(" + path + ")");
    }
  }
  if (::listen(listen_fd_, static_cast<int>(nprocs_)) != 0) die("listen");

  for (unsigned q = 0; q < rank_; ++q) connect_to(q);
  accept_from_higher();
}

void SocketTransport::connect_to(unsigned peer) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  for (;;) {
    int fd = -1;
    if (cfg_.use_tcp) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) die("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port =
          htons(static_cast<std::uint16_t>(cfg_.base_port + peer));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      } else {
        ::close(fd);
        fd = -1;
      }
    } else {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) die("socket");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      const std::string path = uds_path(peer);
      std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0) {
        ::close(fd);
        fd = -1;
      }
    }
    if (fd >= 0) {
      std::byte hello[4];
      for (int i = 0; i < 4; ++i) {
        hello[i] = static_cast<std::byte>((rank_ >> (8 * i)) & 0xff);
      }
      if (send_all(fd, hello, sizeof hello)) {
        peers_[peer].fd = fd;
        peers_[peer].open = true;
        return;
      }
      ::close(fd);
    }
    reconnects_.add();
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("socket transport: rank " +
                               std::to_string(rank_) +
                               " could not reach rank " +
                               std::to_string(peer));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void SocketTransport::accept_from_higher() {
  for (unsigned n = rank_ + 1; n < nprocs_; ++n) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) die("accept");
    std::byte hello[4];
    if (!recv_all(fd, hello, sizeof hello)) {
      ::close(fd);
      throw std::runtime_error("socket transport: peer vanished in hello");
    }
    unsigned peer = 0;
    for (int i = 0; i < 4; ++i) {
      peer |= static_cast<unsigned>(hello[i]) << (8 * i);
    }
    if (peer <= rank_ || peer >= nprocs_ || peers_[peer].open) {
      ::close(fd);
      throw std::runtime_error("socket transport: bad hello rank " +
                               std::to_string(peer));
    }
    if (cfg_.use_tcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    peers_[peer].fd = fd;
    peers_[peer].open = true;
  }
}

SocketTransport::~SocketTransport() {
  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!cfg_.use_tcp) ::unlink(uds_path(rank_).c_str());
}

void SocketTransport::send_frame(unsigned dst, const std::byte* frame,
                                 std::size_t bytes, bool ctrl) {
  Peer& peer = peers_[dst];
  std::lock_guard<std::mutex> lock(*peer.write_mu);
  if (!peer.open) {
    note_blackholed();
    return;
  }
  if (!send_all(peer.fd, frame, bytes)) {
    // The peer process is gone.  Park the connection; the failure
    // detector declares the death from heartbeat silence.
    peer.open = false;
    note_blackholed();
    return;
  }
  if (!ctrl) injects_.add();
}

void SocketTransport::inject(net::Packet* p) {
  const net::PacketPtr owned(p);
  const auto frame = wire::frame_of(*p);
  send_frame(static_cast<unsigned>(p->dst), frame.data(), frame.size(),
             /*ctrl=*/false);
}

void SocketTransport::send_ctrl(int dst, const CtrlMsg& m) {
  std::vector<std::byte> frame;
  wire::encode_ctrl(m, frame);
  if (dst >= 0) {
    send_frame(static_cast<unsigned>(dst), frame.data(), frame.size(),
               /*ctrl=*/true);
    return;
  }
  for (unsigned j = 0; j < nprocs_; ++j) {
    if (j != rank_) send_frame(j, frame.data(), frame.size(), /*ctrl=*/true);
  }
}

std::size_t SocketTransport::parse_frames(unsigned src) {
  Peer& peer = peers_[src];
  std::size_t frames = 0;
  std::size_t off = 0;
  while (peer.rxbuf.size() - off >= wire::kFrameOverhead) {
    const std::byte* h = peer.rxbuf.data() + off;
    const std::uint32_t n = wire::frame_length(h);
    if (n < wire::kFrameOverhead) {
      throw wire::FrameError("socket transport: frame length " +
                             std::to_string(n) + " out of range");
    }
    // Nothing is allocated for a frame until all of it has arrived, so
    // a hostile length costs at most the bytes actually received.
    if (peer.rxbuf.size() - off < n) break;  // partial frame
    ++frames;
    if (wire::frame_type(h) != wire::kFrameCtrl) {
      // The sink (fabric) stamps the origin's liveness on delivery.
      net::PacketPtr p(wire::decode_packet(h, n));
      if (sink_ != nullptr) sink_->deliver_remote(p.release());
    } else {
      const CtrlMsg m = wire::decode_ctrl(h + wire::kFrameOverhead,
                                          n - wire::kFrameOverhead);
      if (liveness_enabled() && m.origin < nprocs_) {
        touch_liveness(static_cast<topo::NodeId>(m.origin), now_ns());
      }
      handle_ctrl(m);
    }
    off += n;
  }
  if (off > 0) {
    peer.rxbuf.erase(peer.rxbuf.begin(),
                     peer.rxbuf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return frames;
}

std::size_t SocketTransport::drain_peer(unsigned src) {
  Peer& peer = peers_[src];
  if (!peer.open || peer.rx_closed) return 0;
  std::byte chunk[16384];
  for (;;) {
    const ssize_t r = ::recv(peer.fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (r > 0) {
      peer.rxbuf.insert(peer.rxbuf.end(), chunk, chunk + r);
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r < 0 && errno == EINTR) continue;
    // EOF or reset: the peer process exited.  Keep whatever complete
    // frames already arrived; the detector handles the death.
    peer.open = false;
    break;
  }
  return parse_frames(src);
}

std::size_t SocketTransport::poll() {
  std::unique_lock<std::mutex> lock(poll_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return 0;
  polls_.add();
  if (liveness_enabled()) touch_liveness(rank_, now_ns());
  std::size_t frames = 0;
  for (unsigned i = 0; i < nprocs_; ++i) {
    if (i == rank_) continue;
    try {
      frames += drain_peer(i);
    } catch (const wire::FrameError&) {
      // The stream cannot be resynchronized past a bad frame.
      peers_[i].rx_closed = true;
      peers_[i].rxbuf.clear();
      note_frame_error(i);
    }
  }
  return frames;
}

}  // namespace bgq::transport
