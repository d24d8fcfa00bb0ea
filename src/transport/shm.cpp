#include "transport/shm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/timing.hpp"
#include "transport/wire.hpp"

namespace bgq::transport {

namespace {

constexpr std::uint64_t kShmMagic = 0x42475153484d3033ull;  // "BGQSHM03"
constexpr unsigned kMaxShmEndpoints = 64;

std::size_t align64(std::size_t n) { return (n + 63) & ~std::size_t{63}; }

std::string segment_path(const std::string& session) {
  return "/bgq-" + session;
}

}  // namespace

/// Segment header: creation handshake, the job-shared liveness state and
/// one doorbell per rank.
struct ShmHeader {
  std::uint64_t magic;
  std::uint32_t nprocs;
  std::uint64_t ring_bytes;
  std::atomic<std::uint32_t> ready;
  std::atomic<std::uint32_t> attached;
  alignas(64) std::atomic<std::uint32_t> dead[kMaxShmEndpoints];
  alignas(64) std::atomic<std::uint64_t> last_heard[kMaxShmEndpoints];
  Doorbell bells[kMaxShmEndpoints];
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "shared-segment atomics must be address-free");

ShmTransport::ShmTransport(trace::Registry& metrics, const Config& cfg)
    : Transport(metrics, cfg.nprocs), rank_(cfg.rank), nprocs_(cfg.nprocs) {
  if (nprocs_ > kMaxShmEndpoints) {
    throw std::runtime_error("shm transport: nprocs > " +
                             std::to_string(kMaxShmEndpoints));
  }
  name_ = segment_path(cfg.session);

  const std::size_t slice =
      align64(sizeof(ShmRingCtrl)) + align64(cfg.ring_bytes);
  const std::size_t rings_off = align64(sizeof(ShmHeader));
  map_bytes_ = rings_off + static_cast<std::size_t>(nprocs_) * nprocs_ * slice;

  if (rank_ == 0) {
    // A stale segment from a crashed prior job with the same session tag
    // would hand us garbage indices; always start from a fresh one.
    ::shm_unlink(name_.c_str());
    fd_ = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd_ < 0) {
      throw std::runtime_error("shm_open(create " + name_ +
                               "): " + std::strerror(errno));
    }
    if (::ftruncate(fd_, static_cast<off_t>(map_bytes_)) != 0) {
      throw std::runtime_error("ftruncate(" + name_ +
                               "): " + std::strerror(errno));
    }
  } else {
    // Retry-attach: our launcher starts all ranks at once, so rank 0 may
    // not have created the segment yet.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      fd_ = ::shm_open(name_.c_str(), O_RDWR, 0600);
      if (fd_ >= 0) {
        struct stat st {};
        if (::fstat(fd_, &st) == 0 &&
            static_cast<std::size_t>(st.st_size) >= map_bytes_) {
          break;  // created and sized; header handshake below
        }
        ::close(fd_);
        fd_ = -1;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("shm transport: timed out attaching to " +
                                 name_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  base_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                 fd_, 0);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    throw std::runtime_error("mmap(" + name_ + "): " + std::strerror(errno));
  }
  hdr_ = static_cast<ShmHeader*>(base_);

  auto* bytes = static_cast<std::byte*>(base_);
  auto ring_at = [&](unsigned i, unsigned j) {
    std::byte* p = bytes + rings_off +
                   (static_cast<std::size_t>(i) * nprocs_ + j) * slice;
    return ShmRingView(reinterpret_cast<ShmRingCtrl*>(p),
                       p + align64(sizeof(ShmRingCtrl)), cfg.ring_bytes);
  };

  if (rank_ == 0) {
    // ftruncate zero-fills, so the ring indices, death flags and stamps
    // are already in their initial state; placement-construction would
    // re-zero the same bits.  Publish the header last.
    hdr_->nprocs = nprocs_;
    hdr_->ring_bytes = cfg.ring_bytes;
    hdr_->magic = kShmMagic;
    hdr_->ready.store(1, std::memory_order_release);
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (hdr_->ready.load(std::memory_order_acquire) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        throw std::runtime_error("shm transport: segment " + name_ +
                                 " never became ready");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (hdr_->magic != kShmMagic || hdr_->nprocs != nprocs_ ||
        hdr_->ring_bytes != cfg.ring_bytes) {
      throw std::runtime_error(
          "shm transport: segment " + name_ +
          " does not match this rank's config (session collision?)");
    }
  }
  hdr_->attached.fetch_add(1, std::memory_order_acq_rel);

  tx_.resize(nprocs_);
  rx_.resize(nprocs_);
  rx_closed_ = std::vector<std::atomic<bool>>(nprocs_);
  tx_mu_.resize(nprocs_);
  for (unsigned j = 0; j < nprocs_; ++j) {
    tx_[j] = ring_at(rank_, j);
    rx_[j] = ring_at(j, rank_);
    tx_mu_[j] = std::make_unique<std::mutex>();
  }
}

ShmTransport::~ShmTransport() {
  if (base_ != nullptr) ::munmap(base_, map_bytes_);
  if (fd_ >= 0) ::close(fd_);
  if (rank_ == 0) ::shm_unlink(name_.c_str());
}

void ShmTransport::unlink_session(const std::string& session) {
  ::shm_unlink(segment_path(session).c_str());
}

void ShmTransport::kill_endpoint(topo::NodeId ep) {
  hdr_->dead[ep].store(1, std::memory_order_release);
}

bool ShmTransport::endpoint_dead(topo::NodeId ep) const noexcept {
  return hdr_->dead[ep].load(std::memory_order_acquire) != 0;
}

std::uint64_t ShmTransport::last_heard(topo::NodeId ep) const noexcept {
  return hdr_->last_heard[ep].load(std::memory_order_acquire);
}

void ShmTransport::touch_liveness(topo::NodeId ep, std::uint64_t t) noexcept {
  hdr_->last_heard[ep].store(t, std::memory_order_release);
}

void ShmTransport::push_frame(unsigned dst, const std::byte* frame,
                              std::size_t bytes, bool ctrl) {
  if (bytes > tx_[dst].capacity()) {
    throw std::runtime_error(
        "shm transport: frame of " + std::to_string(bytes) +
        " bytes exceeds ring capacity " + std::to_string(tx_[dst].capacity()) +
        " (raise ring_kb)");
  }
  std::lock_guard<std::mutex> lock(*tx_mu_[dst]);
  Doorbell& bell = hdr_->bells[dst];
  bool counted_full = false;
  while (!tx_[dst].try_push(frame, bytes)) {
    if (!counted_full) {
      // The rank's drainers may be busy: its poller makes the room.
      ring_full_.add();
      counted_full = true;
      bell.gate.wake();
      note_wake();
    }
    // A dead consumer will never drain its ring; dropping mirrors the
    // in-process fabric's blackhole.  Control frames to a declared-dead
    // rank are equally undeliverable.
    if (endpoint_dead(static_cast<topo::NodeId>(dst))) {
      note_blackholed();
      return;
    }
    std::this_thread::yield();
  }
  // Ctrl frames always wake the poller: the machine layer's services
  // must not wait for a worker to finish its handler.
  if (bell.notify(/*force=*/ctrl)) note_wake();
  if (!ctrl) injects_.add();
}

void ShmTransport::inject(net::Packet* p) {
  const net::PacketPtr owned(p);
  const auto frame = wire::frame_of(*p);
  push_frame(static_cast<unsigned>(p->dst), frame.data(), frame.size(),
             /*ctrl=*/false);
}

void ShmTransport::send_ctrl(int dst, const CtrlMsg& m) {
  std::vector<std::byte> frame;
  wire::encode_ctrl(m, frame);
  if (dst >= 0) {
    push_frame(static_cast<unsigned>(dst), frame.data(), frame.size(),
               /*ctrl=*/true);
    return;
  }
  for (unsigned j = 0; j < nprocs_; ++j) {
    if (j != rank_) push_frame(j, frame.data(), frame.size(), /*ctrl=*/true);
  }
}

std::size_t ShmTransport::drain_ring(unsigned src) {
  ShmRingView& ring = rx_[src];
  std::size_t frames = 0;
  // Room for a data frame's whole header; the prefix is its first bytes.
  std::byte head[sizeof(net::Packet)];
  while (ring.peek(0, head, wire::kFrameOverhead)) {
    const std::uint32_t n = wire::frame_length(head);
    if (n < wire::kFrameOverhead || n > ring.capacity()) {
      throw wire::FrameError("shm transport: frame length " +
                             std::to_string(n) + " out of range");
    }
    ++frames;
    // try_push publishes whole frames, so a readable prefix implies a
    // readable frame; a short peek below is corruption, not a race.
    if (wire::frame_type(head) == wire::kFrameCtrl) {
      std::vector<std::byte> body(n - wire::kFrameOverhead);
      if (!ring.peek(wire::kFrameOverhead, body.data(), body.size())) {
        throw wire::FrameError("shm transport: torn frame in ring");
      }
      ring.consume(n);
      handle_ctrl(wire::decode_ctrl(body.data(), body.size()));
      continue;
    }
    // The header is validated before the packet is allocated; the body
    // is then copied out of the ring straight into the packet.
    if (!ring.peek(0, head, std::min<std::size_t>(n, sizeof head))) {
      throw wire::FrameError("shm transport: torn frame in ring");
    }
    net::PacketPtr p(wire::packet_for(head, n));
    if (!ring.peek(sizeof(net::Packet), p->body(), p->body_bytes())) {
      throw wire::FrameError("shm transport: torn frame in ring");
    }
    ring.consume(n);
    if (sink_ != nullptr) sink_->deliver_remote(p.release());
  }
  return frames;
}

std::size_t ShmTransport::poll() {
  std::unique_lock<std::mutex> lock(poll_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return 0;
  polls_.add();
  std::size_t frames = 0;
  for (unsigned i = 0; i < nprocs_; ++i) {
    if (i == rank_ || rx_closed_[i].load(std::memory_order_relaxed)) continue;
    try {
      frames += drain_ring(i);
    } catch (const wire::FrameError&) {
      // The ring cannot be resynchronized past a bad frame.
      rx_closed_[i].store(true, std::memory_order_relaxed);
      note_frame_error(i);
    }
  }
  return frames;
}

bool ShmTransport::frames_waiting() const noexcept {
  for (unsigned i = 0; i < nprocs_; ++i) {
    if (i != rank_ && !rx_closed_[i].load(std::memory_order_relaxed) &&
        rx_[i].readable() != 0) {
      return true;
    }
  }
  return false;
}

void ShmTransport::note_wake() noexcept { doorbell_wakes_.add(); }

void ShmTransport::join_drainers() noexcept { hdr_->bells[rank_].join(); }

void ShmTransport::leave_drainers() noexcept {
  if (hdr_->bells[rank_].leave([this] { return frames_waiting(); })) {
    note_wake();
  }
}

void ShmTransport::await_frames(const std::atomic<bool>& stop,
                                std::uint64_t timeout_ns) {
  hdr_->bells[rank_].gate.park(
      [&] { return stop.load(std::memory_order_acquire) || frames_waiting(); },
      timeout_ns);
}

void ShmTransport::wake_poller() noexcept { hdr_->bells[rank_].gate.wake(); }

}  // namespace bgq::transport
