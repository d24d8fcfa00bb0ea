// Shared-memory transport: the job's OS processes map one POSIX shm
// segment holding a P×P matrix of SPSC byte rings (ring[i][j] carries
// frames from rank i to rank j), modeled after the MU reception FIFOs.
//
// Rank 0 creates and initializes the segment and publishes a ready flag;
// the other ranks retry-attach until it appears.  Endpoint death flags
// and last-heard stamps live in the segment header, so the sender-side
// liveness stamping performed by each rank's fabric is observed by every
// other rank's failure detector — the same single-writer-per-slot
// discipline as the in-process fabric, just in a shared mapping.
//
// A data frame is the packet buffer itself: inject() is one try_push of
// it, and whichever thread drains copies each inbound frame out of the
// ring once, into a packet from its own pool slot (transport/wire.hpp).
//
// Who drains: the threads that advance the rank's PAMI contexts poll the
// rings from their own advance loop, as a BG/Q thread polls the MU
// reception FIFOs.  The rank's poller thread parks on the wait gate of
// its doorbell in the segment header (transport/doorbell.hpp) and is rung
// only for ctrl frames, a full ring, or when no thread of the rank drains
// inline.
//
// Frames larger than the ring capacity can never be pushed; the
// transport rejects them loudly (raise ring_kb) instead of deadlocking.
// A full ring backpressures the producer (net.transport.ring_full); the
// stall breaks if the consumer's endpoint is declared dead.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "transport/doorbell.hpp"
#include "transport/shm_ring.hpp"
#include "transport/transport.hpp"

namespace bgq::transport {

struct ShmHeader;

class ShmTransport final : public Transport {
 public:
  /// Attaches (rank != 0) or creates (rank 0) the session's segment.
  /// Throws std::runtime_error on shm/mmap failure or attach timeout.
  ShmTransport(trace::Registry& metrics, const Config& cfg);
  ~ShmTransport() override;

  Kind kind() const noexcept override { return Kind::kShm; }
  bool endpoint_local(topo::NodeId ep) const noexcept override {
    return static_cast<unsigned>(ep) == rank_;
  }

  void inject(net::Packet* p) override;
  std::size_t poll() override;
  void send_ctrl(int dst, const CtrlMsg& m) override;

  void join_drainers() noexcept override;
  void leave_drainers() noexcept override;
  void await_frames(const std::atomic<bool>& stop,
                    std::uint64_t timeout_ns) override;
  void wake_poller() noexcept override;

  // Liveness and death state is shared across the job (segment header).
  void kill_endpoint(topo::NodeId ep) override;
  bool endpoint_dead(topo::NodeId ep) const noexcept override;
  std::uint64_t last_heard(topo::NodeId ep) const noexcept override;
  void touch_liveness(topo::NodeId ep, std::uint64_t t) noexcept override;

  const std::string& segment_name() const noexcept { return name_; }

  /// Remove a session's segment from the namespace (launcher cleanup;
  /// idempotent, missing segment is not an error).
  static void unlink_session(const std::string& session);

 private:
  void push_frame(unsigned dst, const std::byte* frame, std::size_t bytes,
                  bool ctrl);
  std::size_t drain_ring(unsigned src);
  /// Some open inbound ring holds a frame.
  bool frames_waiting() const noexcept;
  /// Count a doorbell ring (net.transport.doorbell_wakes).
  void note_wake() noexcept;

  const unsigned rank_;
  const unsigned nprocs_;
  std::string name_;
  int fd_ = -1;
  void* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  ShmHeader* hdr_ = nullptr;

  std::vector<ShmRingView> tx_;  ///< ring(rank_ -> j), indexed by j
  std::vector<ShmRingView> rx_;  ///< ring(i -> rank_), indexed by i
  /// rx_[i] sent a malformed frame and is no longer read.
  std::vector<std::atomic<bool>> rx_closed_;
  /// Process-local producer serialization per outbound ring (workers and
  /// comm threads inject concurrently; the ring itself is SPSC).
  std::vector<std::unique_ptr<std::mutex>> tx_mu_;
  std::mutex poll_mu_;  ///< one drainer at a time (try_lock in poll)
};

}  // namespace bgq::transport
