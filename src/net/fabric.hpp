// In-process torus fabric: the functional-mode stand-in for the BG/Q
// Messaging Unit + 5D torus (§II-A).
//
// Each simulated node owns a set of reception FIFOs (lockless MPSC queues
// of Packet*, polled by PAMI contexts).  A FIFO serviced by a comm thread
// is bound to that thread's WaitGate, so the parked thread is woken on
// packet arrival — the emulated wakeup-unit path; an unbound FIFO (its
// context advanced by a worker that never parks) skips the wake.
//
// Delivery discipline: *synchronous with modeled wire time.*  inject()
// routes the transfer, stamps Packet::wire_ns from the torus hop count and
// the link model, and enqueues it at the destination immediately.  The
// host's real time measures pure software overhead (the thing the paper's
// optimizations target); wire time is added analytically by the benches.
// A background pacing thread would add host-scheduler noise larger than
// the BG/Q wire times being modeled (a few host cores, shared by every
// runtime thread), so determinism wins.  Congestion-sensitive,
// machine-scale timing lives in src/sim.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/cacheline.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "topology/torus.hpp"
#include "transport/transport.hpp"
#include "wakeup/wakeup_unit.hpp"

namespace bgq::net {

/// A reception FIFO: lockless MPSC queue of packets plus, when a comm
/// thread services it, that thread's wait gate.
class ReceptionFifo {
 public:
  explicit ReceptionFifo(std::size_t capacity = 4096) : q_(capacity) {}

  /// Fabric side.  Lossless: a full lockless ring spills to the queue's
  /// mutex-protected overflow (counted — see spills()).
  void deliver(Packet* p) {
    if (!q_.enqueue(p)) spills_.fetch_add(1, std::memory_order_relaxed);
    wake();
  }

  /// Fabric side, overload mode (FaultPlan::reject_on_full): enqueue only
  /// if the lockless ring has room.  Returns false — packet refused, still
  /// owned by the caller — when the FIFO is full.
  bool try_deliver(Packet* p) {
    if (!q_.try_enqueue(p)) return false;
    wake();
    return true;
  }

  /// Polling side (single consumer: the owning context).
  Packet* poll() { return q_.try_dequeue(); }

  bool empty() const { return q_.empty(); }

  /// Deliveries that missed the lockless ring and took the overflow path.
  std::uint64_t spills() const noexcept {
    return spills_.load(std::memory_order_relaxed);
  }

  /// Wake the bound gate, if any, after a store its thread waits for —
  /// a delivery, or work posted to the FIFO's context.
  void wake() const noexcept {
    if (wakeup::WaitGate* g = gate_.load(std::memory_order_acquire)) {
      g->wake();
    }
  }

  /// Point arrivals at the gate of the thread that services this FIFO —
  /// the comm-thread pool binds every FIFO it services to the servicing
  /// thread's own gate (one thread may advance several contexts); nullptr
  /// unbinds.  Call before traffic starts.
  void bind_gate(wakeup::WaitGate* g) noexcept {
    gate_.store(g, std::memory_order_release);
  }

 private:
  queue::L2AtomicQueue<Packet*> q_;
  std::atomic<wakeup::WaitGate*> gate_{nullptr};
  std::atomic<std::uint64_t> spills_{0};
};

/// The whole-machine fabric for functional runs.
///
/// Addressing: the torus ranks *physical nodes*; each node hosts
/// `endpoints_per_node` endpoints (processes).  Packet src/dst are endpoint
/// ids (node * endpoints_per_node + local).  Endpoints sharing a node are 0
/// torus hops apart — their transfers still pay the MU base latency, which
/// is exactly the Fig. 5 "different processes, same node" loopback case.
class Fabric : public transport::DeliverySink {
 public:
  /// `rec_fifos_per_node`: one per PAMI context, so each context polls its
  /// own FIFO without locks (BG/Q provides 272 per node; we allocate what
  /// the runtime asks for).  `fifo_capacity` sizes each reception FIFO's
  /// lockless ring (MachineConfig::rec_fifo_capacity plumbs it through).
  /// `transport` selects the delivery discipline for endpoints hosted by
  /// other OS processes (not owned; must outlive the fabric); when null
  /// the fabric owns an InProcTransport and behaves exactly as before.
  Fabric(const topo::Torus& torus, NetworkParams params,
         unsigned rec_fifos_per_endpoint, unsigned endpoints_per_node = 1,
         std::size_t fifo_capacity = 4096,
         transport::Transport* transport = nullptr);
  ~Fabric() override;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const topo::Torus& torus() const noexcept { return torus_; }
  const NetworkParams& params() const noexcept { return params_; }
  unsigned rec_fifos_per_node() const noexcept { return fifos_per_node_; }
  unsigned endpoints_per_node() const noexcept { return endpoints_per_node_; }
  std::size_t endpoint_count() const noexcept {
    return torus_.node_count() * endpoints_per_node_;
  }

  /// Physical node hosting an endpoint.
  topo::NodeId node_of(topo::NodeId endpoint) const noexcept {
    return endpoint / endpoints_per_node_;
  }

  /// Inject a transfer.  Takes ownership of `p`.  For kMemFifo the packet
  /// is handed to the destination FIFO (the receiver releases it); for
  /// RDMA kinds the copy is performed and the packet, carrying its
  /// completion, is queued to the destination FIFO.
  void inject(Packet* p);

  ReceptionFifo& reception_fifo(topo::NodeId node, unsigned fifo);

  // ---- fault injection (net/fault.hpp) ----------------------------------

  /// Install (or, with a disabled plan, remove) the chaos layer.  Call
  /// before traffic flows; the faulty path serializes injections on a
  /// mutex, the default lossless path is untouched.
  void set_fault_plan(const FaultPlan& plan);
  bool faults_enabled() const noexcept { return faults_ != nullptr; }

  /// Release every packet the fabric still holds — in reception FIFOs and
  /// the chaos layer's delay list — to the allocator that owns it.  The
  /// machine calls this after its threads stop and before it destroys
  /// the processes whose pools own the buffers; the destructor repeats
  /// it for standalone fabrics.
  void release_undelivered();

  // ---- transport (multi-process delivery) -------------------------------

  /// The delivery discipline for endpoints hosted by other OS processes.
  /// Also the backend-agnostic home of endpoint death/liveness state.
  transport::Transport& transport() noexcept { return *transport_; }
  const transport::Transport& transport() const noexcept {
    return *transport_;
  }

  /// Drain the transport's inbound frames into local reception FIFOs
  /// (no-op for the in-process transport).  Returns frames processed.
  std::size_t progress() { return transport_->poll(); }

  /// transport::DeliverySink: a packet another rank's fabric injected for
  /// one of our endpoints.  Takes ownership; performs the same reception
  /// FIFO handoff as a local transfer.
  void deliver_remote(Packet* p) override;

  // ---- endpoint death + liveness (fault tolerance) ----------------------
  // State lives in the transport so shared-memory jobs can share it; these
  // forwards keep the fabric's callers backend-agnostic.

  /// Blackhole an endpoint: every future transfer from or to it is
  /// swallowed (counted in blackholed()), modeling a dead node whose NIC
  /// neither sends nor acks.  Irreversible for the run.
  void kill_endpoint(topo::NodeId endpoint) {
    transport_->kill_endpoint(endpoint);
  }
  bool endpoint_dead(topo::NodeId endpoint) const noexcept {
    return transport_->endpoint_dead(endpoint);
  }

  /// Turn on per-endpoint last-heard stamping: every inject() records a
  /// host timestamp for its *source* endpoint, so any traffic — data,
  /// acks, heartbeats — refreshes the sender's liveness.  Off by default
  /// (one clock read per transfer).
  void enable_liveness() noexcept { transport_->enable_liveness(); }
  /// Last ns timestamp endpoint `ep` was heard from (0 = never).
  std::uint64_t last_heard(topo::NodeId ep) const noexcept {
    return transport_->last_heard(ep);
  }
  /// Stamp `ep` as alive now — the failure detector seeds all endpoints
  /// at run start so nobody is declared dead before traffic begins.
  void touch_liveness(topo::NodeId ep, std::uint64_t now_ns) noexcept {
    transport_->touch_liveness(ep, now_ns);
  }

  /// Transfers swallowed because an endpoint on either side was dead.
  std::uint64_t blackholed() const noexcept {
    return transport_->blackholed();
  }

  // Injected-fault counters (all zero without a plan).
  std::uint64_t faults_dropped() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t faults_duplicated() const noexcept {
    return dups_.load(std::memory_order_relaxed);
  }
  std::uint64_t faults_delayed() const noexcept {
    return delays_.load(std::memory_order_relaxed);
  }
  std::uint64_t faults_corrupted() const noexcept {
    return bitflips_.load(std::memory_order_relaxed);
  }
  /// Deliveries refused by a full FIFO (reject_on_full overload mode).
  std::uint64_t fifo_rejects() const noexcept {
    return rejects_.load(std::memory_order_relaxed);
  }
  /// Deliveries that took a FIFO's overflow path, summed over all FIFOs.
  std::uint64_t fifo_spills() const noexcept;

 private:
  struct FaultState;

  /// Terminal delivery (post-fault stage): remote routing, RDMA copy +
  /// FIFO handoff.
  void deliver_packet(Packet* p);
  /// Local reception-FIFO handoff shared by local and remote arrivals.
  void fifo_handoff(Packet* p);
  /// The chaos path: mature delayed packets, roll the dice on `p`.
  void inject_faulty(Packet* p);

  const topo::Torus torus_;
  const NetworkParams params_;
  const unsigned fifos_per_node_;
  const unsigned endpoints_per_node_;

  // fifos_[endpoint * fifos_per_node_ + fifo]; ReceptionFifo is immovable.
  std::vector<std::unique_ptr<ReceptionFifo>> fifos_;

  std::unique_ptr<FaultState> faults_;

  std::unique_ptr<transport::Transport> owned_transport_;
  transport::Transport* transport_;  ///< never null after construction

  // Under a fault plan every inject may write these, from every injecting
  // thread.  Aligning the first one gives the block a line of its own, the
  // object's tail padding included, so no read-mostly data shares it —
  // neither this object's nor that of whatever the heap places next to it.
  alignas(kL2Line) std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> bitflips_{0};
  std::atomic<std::uint64_t> rejects_{0};
};

}  // namespace bgq::net
