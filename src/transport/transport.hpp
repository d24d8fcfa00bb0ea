// The fabric's delivery contract, extracted behind an interface so the
// emulated machine can run over different byte-moving disciplines
// without the layers above (PAMI reliability, fault plans, causal
// tracing, FT heartbeats and buddy checkpoints) noticing.
//
// A Transport owns four things:
//
//   * the *data plane*: inject() ships a fabric Packet whose destination
//     endpoint lives in another OS process — the packet buffer is the
//     frame (transport/wire.hpp); poll() drains inbound frames, copies
//     each into a packet from the polling thread's pool and hands it to
//     the DeliverySink (the fabric), which performs the local
//     reception-FIFO handoff exactly as for an in-process transfer.  The
//     threads that advance the rank's PAMI contexts call poll() from
//     their own advance loop; the rank's poller thread drains only what
//     they leave (join_drainers / await_frames);
//   * the *control plane*: small reliable ordered frames the machine
//     layer uses for its distributed services (barrier merges, stop,
//     checkpoint blobs).  Control frames bypass the chaos layer — they
//     model the out-of-band service network, not the torus;
//   * *endpoint liveness*: per-endpoint death flags, last-heard stamps
//     and the blackhole counter used to live in Fabric; they are
//     delivery-discipline state (a shared-memory job shares the stamps,
//     a socket job learns liveness from frame arrivals), so they live
//     here and the fabric forwards;
//   * *counters*: injects/polls/ring_full/reconnects/frame_errors/
//     doorbell_wakes, cells in the machine's registry under
//     net.transport.*, and the blackhole count (net.blackholed).
//
// Dependency direction: this header depends only on the header-only
// packet descriptor; backends never include fabric.hpp.  The fabric
// depends on the transport (bgq_net links bgq_transport), implements
// DeliverySink, and defaults to an InProcTransport that reproduces the
// old behavior bit-identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/packet.hpp"
#include "trace/registry.hpp"
#include "transport/config.hpp"

namespace bgq::transport {

/// One machine-layer control message.  `type` is owned by the machine
/// layer (converse/machine.cpp defines the registry); a/b/c are small
/// scalar arguments and `blob` carries bulk payloads (checkpoint blobs).
struct CtrlMsg {
  std::uint16_t type = 0;
  std::uint32_t origin = 0;  ///< sender's transport rank
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::vector<std::byte> blob;
};

/// Where inbound data-plane packets go (the fabric implements this with
/// its reception-FIFO handoff).
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  /// Takes ownership of `p` (kMemFifo only — RDMA kinds never cross
  /// address spaces; the machine layer forces the eager protocol for
  /// remote-process destinations).
  virtual void deliver_remote(net::Packet* p) = 0;
};

using CtrlHandler = std::function<void(const CtrlMsg&)>;

class Transport {
 public:
  /// Counts into `metrics` (net.transport.*, net.blackholed).
  Transport(trace::Registry& metrics, std::size_t endpoints)
      : endpoints_(endpoints),
        injects_(metrics.cell("net.transport.injects")),
        polls_(metrics.cell("net.transport.polls")),
        ring_full_(metrics.cell("net.transport.ring_full")),
        reconnects_(metrics.cell("net.transport.reconnects")),
        frame_errors_(metrics.cell("net.transport.frame_errors")),
        doorbell_wakes_(metrics.cell("net.transport.doorbell_wakes")),
        blackholed_(metrics.cell("net.blackholed")) {
    dead_ = std::vector<std::atomic<bool>>(endpoints);
    last_heard_ = std::vector<std::atomic<std::uint64_t>>(endpoints);
  }
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual Kind kind() const noexcept = 0;
  std::size_t endpoint_count() const noexcept { return endpoints_; }

  /// True when packets to endpoint `ep` are delivered by the local
  /// fabric's in-memory handoff (no transport hop).
  virtual bool endpoint_local(topo::NodeId ep) const noexcept = 0;

  // ---- data plane --------------------------------------------------------

  /// Ship a packet whose destination endpoint is remote.  Takes
  /// ownership.  Lossless and per-pair ordered (chaos is injected on the
  /// sender's fabric *before* this call, exactly where the in-process
  /// fabric rolls its dice).
  virtual void inject(net::Packet* p) = 0;

  /// Drain inbound frames: data packets go to the sink, control messages
  /// to the ctrl handler.  Returns frames processed.  Any thread of the
  /// rank may call it; one drains at a time and concurrent callers return
  /// 0 at once.  A malformed frame (wire::FrameError) is counted, closes
  /// its peer's inbound stream and kills that endpoint; poll() returns
  /// normally and keeps draining the other peers.
  virtual std::size_t poll() = 0;

  /// The calling thread starts (join) or stops (leave) draining this
  /// rank's inbound frames from its own advance loop.  While one does,
  /// producers leave the poller asleep for data frames; the last one out
  /// wakes it if frames are waiting.  No-ops for backends whose poller
  /// never sleeps.
  virtual void join_drainers() noexcept {}
  virtual void leave_drainers() noexcept {}

  /// The poller's idle step after a poll() that found nothing: sleep
  /// until a producer rings this rank's doorbell, `stop` is set, or
  /// `timeout_ns` passes (shm); or just yield (backends without a
  /// doorbell).
  virtual void await_frames(const std::atomic<bool>& stop,
                            std::uint64_t timeout_ns) {
    (void)stop;
    (void)timeout_ns;
    std::this_thread::yield();
  }
  /// Call after setting await_frames()'s `stop` flag: ends the sleep.
  virtual void wake_poller() noexcept {}

  /// Push out any locally queued bytes (socket write backlogs).  Called
  /// around barriers and at shutdown; lossless transports may no-op.
  virtual void flush() {}

  // ---- control plane -----------------------------------------------------

  /// Send a control message to rank `dst` (-1 = every other rank).
  /// Reliable, per-pair FIFO with respect to other ctrl *and* data
  /// frames on the same pair.  No-op for in-process transports.
  virtual void send_ctrl(int dst, const CtrlMsg& m) {
    (void)dst;
    (void)m;
  }

  void set_sink(DeliverySink* s) noexcept { sink_ = s; }
  void set_ctrl_handler(CtrlHandler h) { on_ctrl_ = std::move(h); }

  // ---- endpoint liveness & death (backend-agnostic home) -----------------

  /// Blackhole an endpoint: every future transfer from or to it is
  /// swallowed, modeling a dead node's NIC.  Irreversible for the run.
  virtual void kill_endpoint(topo::NodeId ep) {
    dead_[ep].store(true, std::memory_order_release);
  }
  virtual bool endpoint_dead(topo::NodeId ep) const noexcept {
    return dead_[ep].load(std::memory_order_acquire);
  }

  /// Turn on last-heard stamping (one clock read per transfer; off by
  /// default, the failure detector enables it).
  virtual void enable_liveness() noexcept {
    liveness_.store(true, std::memory_order_release);
  }
  bool liveness_enabled() const noexcept {
    return liveness_.load(std::memory_order_acquire);
  }
  /// Last ns timestamp endpoint `ep` was heard from (0 = never).
  virtual std::uint64_t last_heard(topo::NodeId ep) const noexcept {
    return last_heard_[ep].load(std::memory_order_acquire);
  }
  virtual void touch_liveness(topo::NodeId ep, std::uint64_t t) noexcept {
    last_heard_[ep].store(t, std::memory_order_release);
  }

  /// Count a transfer swallowed because an endpoint on either side was
  /// dead.
  void note_blackholed() noexcept { blackholed_.add(); }

 protected:
  void handle_ctrl(const CtrlMsg& m) {
    if (on_ctrl_) on_ctrl_(m);
  }

  /// A malformed frame from `src`: count it and treat the peer as failed
  /// (the caller stops reading its stream).
  void note_frame_error(unsigned src) {
    frame_errors_.add();
    kill_endpoint(static_cast<topo::NodeId>(src));
  }

  const std::size_t endpoints_;
  DeliverySink* sink_ = nullptr;
  CtrlHandler on_ctrl_;

  std::vector<std::atomic<bool>> dead_;
  std::vector<std::atomic<std::uint64_t>> last_heard_;
  std::atomic<bool> liveness_{false};

  trace::Cell& injects_;         ///< data packets shipped out
  trace::Cell& polls_;           ///< poll() calls
  trace::Cell& ring_full_;       ///< producer stalls on a full ring
  trace::Cell& reconnects_;      ///< socket connect retries
  trace::Cell& frame_errors_;    ///< malformed frames; each closes a peer
  /// Doorbell rings this rank issued to wake a parked poller, a peer's or
  /// its own (shm only; stopping the poller is not counted).
  trace::Cell& doorbell_wakes_;
  trace::Cell& blackholed_;
};

/// The in-process "transport": every endpoint is local, so the data and
/// control planes are never exercised.  Exists so the fabric has exactly
/// one home for death/liveness state regardless of backend — with this
/// default the refactored fabric is bit-identical to the old one.
class InProcTransport final : public Transport {
 public:
  InProcTransport(trace::Registry& metrics, std::size_t endpoints)
      : Transport(metrics, endpoints) {}

  Kind kind() const noexcept override { return Kind::kInProc; }
  bool endpoint_local(topo::NodeId) const noexcept override { return true; }

  void inject(net::Packet* p) override {
    p->release();
    throw std::logic_error(
        "InProcTransport::inject: every endpoint is local");
  }
  std::size_t poll() override {
    polls_.add();
    return 0;
  }
};

}  // namespace bgq::transport
