#include "net/fabric.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/timing.hpp"
#include "trace/session.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::net {

/// Chaos-layer state.  All fault decisions are serialized on `mu` so the
/// seeded PRNG stream — and therefore the whole fault schedule — is a
/// deterministic function of the injection order.
struct Fabric::FaultState {
  struct Delayed {
    Packet* p = nullptr;
    unsigned ttl = 0;  ///< matures when this many injects have passed
  };

  explicit FaultState(const FaultPlan& pl) : plan(pl), rng(pl.seed) {}

  FaultPlan plan;
  Xoshiro256 rng;
  std::vector<Delayed> delayed;
  std::mutex mu;
};

Fabric::Fabric(const topo::Torus& torus, NetworkParams params,
               unsigned rec_fifos_per_endpoint, unsigned endpoints_per_node,
               std::size_t fifo_capacity, transport::Transport* transport)
    : torus_(torus),
      params_(params),
      fifos_per_node_(rec_fifos_per_endpoint),
      endpoints_per_node_(endpoints_per_node) {
  if (rec_fifos_per_endpoint == 0) {
    throw std::invalid_argument("need at least one reception FIFO per node");
  }
  if (endpoints_per_node == 0) {
    throw std::invalid_argument("need at least one endpoint per node");
  }
  if (fifo_capacity == 0) {
    throw std::invalid_argument("reception FIFO capacity must be > 0");
  }
  fifos_.reserve(endpoint_count() * fifos_per_node_);
  for (std::size_t i = 0; i < endpoint_count() * fifos_per_node_; ++i) {
    fifos_.push_back(std::make_unique<ReceptionFifo>(fifo_capacity));
  }
  if (transport != nullptr) {
    if (transport->endpoint_count() != endpoint_count()) {
      throw std::invalid_argument(
          "transport endpoint count does not match the fabric's");
    }
    transport_ = transport;
  } else {
    owned_transport_ =
        std::make_unique<bgq::transport::InProcTransport>(endpoint_count());
    transport_ = owned_transport_.get();
  }
  transport_->set_sink(this);
}

Fabric::~Fabric() { release_undelivered(); }

void Fabric::release_undelivered() {
  if (faults_ != nullptr) {
    for (auto& d : faults_->delayed) d.p->release();
    faults_->delayed.clear();
  }
  for (auto& f : fifos_) {
    while (Packet* p = f->poll()) p->release();
  }
}

ReceptionFifo& Fabric::reception_fifo(topo::NodeId node, unsigned fifo) {
  return *fifos_[static_cast<std::size_t>(node) * fifos_per_node_ +
                 (fifo % fifos_per_node_)];
}

void Fabric::set_fault_plan(const FaultPlan& plan) {
  faults_ = plan.enabled() ? std::make_unique<FaultState>(plan) : nullptr;
}

std::uint64_t Fabric::fifo_spills() const noexcept {
  std::uint64_t total = 0;
  for (const auto& f : fifos_) total += f->spills();
  return total;
}

void Fabric::inject(Packet* p) {
  // A dead endpoint neither emits nor absorbs traffic: transfers touching
  // one vanish before any accounting, exactly like a powered-off node's
  // NIC.  (Retransmits to a dead peer are culled separately at the PAMI
  // layer once the sender learns of the death.)
  if (transport_->endpoint_dead(p->src) ||
      transport_->endpoint_dead(p->dst)) {
    transport_->note_blackholed();
    p->release();
    return;
  }
  if (transport_->liveness_enabled()) {
    transport_->touch_liveness(p->src, now_ns());
  }

  const int hops = torus_.hops(node_of(p->src), node_of(p->dst));
  const std::size_t bytes = p->transfer_bytes();
  p->num_packets = params_.packets_for(bytes);
  p->wire_ns = params_.wire_time_ns(bytes, hops);
  if (p->kind == TransferKind::kRdmaRead) {
    // rget pays the request round trip before data flows back.
    p->wire_ns += params_.rdma_setup_ns +
                  params_.wire_time_ns(0, hops);
  }

  if (faults_ != nullptr) {
    inject_faulty(p);
  } else {
    deliver_packet(p);
  }
}

void Fabric::deliver_packet(Packet* p) {
  switch (p->kind) {
    case TransferKind::kMemFifo:
      if (!transport_->endpoint_local(p->dst)) {
        // The destination endpoint lives in another OS process: the
        // chaos layer has already rolled its dice above, so the
        // transport hop models a lossless wire (its own reliability is
        // the kernel's / the ring's).
        transport_->inject(p);
        break;
      }
      fifo_handoff(p);
      break;
    case TransferKind::kRdmaRead:
    case TransferKind::kRdmaWrite:
      // Same address space: perform the MU's DMA copy here, then deliver
      // the completion notification to the destination FIFO.  The machine
      // layer forces the eager protocol for remote-process destinations,
      // so RDMA kinds never reach the transport.
      if (const RdmaOp& op = p->rdma(); op.bytes != 0) {
        std::memcpy(op.dst, op.src, op.bytes);
      }
      if (p->cid != 0) {
        trace::emit_here(trace::EventKind::kNetDeliver,
                         static_cast<std::uint32_t>(p->dst), p->cid);
      }
      reception_fifo(p->dst, p->rec_fifo).deliver(p);
      break;
  }
}

void Fabric::fifo_handoff(Packet* p) {
  ReceptionFifo& fifo = reception_fifo(p->dst, p->rec_fifo);
  // Read the trace fields before publishing: deliver() hands the
  // packet to the receiver, which may free it before we return.
  const std::uint64_t cid = p->cid;
  const std::uint32_t dst = static_cast<std::uint32_t>(p->dst);
  if (faults_ != nullptr && faults_->plan.reject_on_full) {
    // Overload mode: a full FIFO refuses the packet outright.  The
    // sender's reliability layer sees the missing ack and retransmits
    // — refusal becomes backpressure, not loss.
    if (!fifo.try_deliver(p)) {
      rejects_.fetch_add(1, std::memory_order_relaxed);
      p->release();
      return;
    }
  } else {
    fifo.deliver(p);
  }
  if (cid != 0) {
    trace::emit_here(trace::EventKind::kNetDeliver, dst, cid);
  }
}

void Fabric::deliver_remote(Packet* p) {
  // Receive side of a cross-process transfer.  The sender's fabric did
  // the dead-check against *its* view; re-check against ours so a frame
  // already in flight when the death was declared locally is swallowed
  // exactly like an in-process transfer would have been.
  if (transport_->endpoint_dead(p->src) ||
      transport_->endpoint_dead(p->dst)) {
    transport_->note_blackholed();
    p->release();
    return;
  }
  if (transport_->liveness_enabled()) {
    transport_->touch_liveness(p->src, now_ns());
  }
  fifo_handoff(p);
}

void Fabric::inject_faulty(Packet* p) {
  FaultState& fs = *faults_;

  // Decisions under the lock; deliveries outside it (delivery can contend
  // on the destination FIFO's overflow mutex or wake a sleeping thread).
  std::vector<Packet*> deliver_now;
  Packet* dup = nullptr;

  BGQ_SCHED_BLOCK_BEGIN();
  {
    std::lock_guard<std::mutex> lock(fs.mu);

    // Every inject ages the held-back packets; matured ones re-enter
    // delivery *after* the current packet, which is the reordering.
    for (std::size_t i = 0; i < fs.delayed.size();) {
      if (--fs.delayed[i].ttl == 0) {
        deliver_now.push_back(fs.delayed[i].p);
        fs.delayed[i] = fs.delayed.back();
        fs.delayed.pop_back();
      } else {
        ++i;
      }
    }

    // Faults touch mem-FIFO transfers only (see net/fault.hpp): the RDMA
    // kinds model the MU's DMA engine, which the runtime trusts.
    if (p != nullptr && p->kind == TransferKind::kMemFifo) {
      const FaultPlan& plan = fs.plan;
      if (plan.bitflip > 0.0 && fs.rng.uniform() < plan.bitflip) {
        // Flip one bit somewhere the receiver will look: payload first,
        // metadata next, the checksum field as a last resort.
        bitflips_.fetch_add(1, std::memory_order_relaxed);
        if (p->payload_bytes != 0) {
          const std::uint64_t bit = fs.rng.below(p->payload_bytes * 8ull);
          p->payload()[bit / 8] ^= std::byte{1} << (bit % 8);
        } else if (p->meta_bytes != 0) {
          const std::uint64_t bit = fs.rng.below(p->meta_bytes * 8ull);
          p->metadata()[bit / 8] ^= std::byte{1} << (bit % 8);
        } else {
          p->checksum ^= 1ull << fs.rng.below(64);
        }
      }
      if (plan.drop > 0.0 && fs.rng.uniform() < plan.drop) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        p->release();
        p = nullptr;
      }
      if (p != nullptr && plan.duplicate > 0.0 &&
          fs.rng.uniform() < plan.duplicate) {
        dups_.fetch_add(1, std::memory_order_relaxed);
        dup = p->clone();
      }
      if (p != nullptr && plan.delay > 0.0 && fs.rng.uniform() < plan.delay) {
        delays_.fetch_add(1, std::memory_order_relaxed);
        const unsigned ttl = static_cast<unsigned>(
            1 + fs.rng.below(fs.plan.max_delay_injects));
        fs.delayed.push_back({p, ttl});
        p = nullptr;
      }
    }
  }
  BGQ_SCHED_BLOCK_END();

  if (p != nullptr) deliver_packet(p);
  if (dup != nullptr) deliver_packet(dup);
  for (Packet* m : deliver_now) deliver_packet(m);
}

}  // namespace bgq::net
