#include "pami/pami.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/timing.hpp"
#include "trace/session.hpp"
#include "verify/schedule_point.hpp"

namespace bgq::pami {

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(Client& client, std::uint16_t index,
                 trace::Registry& metrics)
    : client_(client),
      index_(index),
      work_(1024),
      posted_sends_(1024),
      retransmits_(metrics.cell("net.retransmits")),
      dup_acks_(metrics.cell("net.dup_acks")),
      acks_piggy_(metrics.cell("net.acks.piggybacked")),
      acks_alone_(metrics.cell("net.acks.standalone")),
      corrupt_(metrics.cell("net.corrupt_drops")),
      dedup_(metrics.cell("net.dedup_drops")),
      stalls_(metrics.cell("comm.backpressure_stalls")),
      dedup_evicted_(metrics.cell("net.dedup.evicted")),
      dead_drops_(metrics.cell("net.dead_peer_drops")) {}

Context::~Context() {
  for (auto& [key, ch] : chans_) {
    for (auto& pend : ch.pending) pend.copy->release();
  }
  for (net::Packet* p : backlog_) p->release();
  // A killed process's contexts die with posted work still queued (the
  // monitor may have raced a heartbeat post against the kill), and a run
  // that stops its comm threads may leave posted sends behind: hand those
  // back to their owner to free.
  while (WorkItem* w = work_.try_dequeue()) delete w;
  while (void* item = posted_sends_.try_dequeue()) {
    send_fn_(send_owner_, nullptr, item);
  }
}

net::ReceptionFifo& Context::fifo() {
  return client_.fabric().reception_fifo(client_.endpoint(), index_);
}

// Both send flavours copy the payload into the packet before they return;
// they differ only in the immediate size limit.
void Context::send_immediate(const SendParams& p) {
  if (p.metadata_bytes + p.payload_bytes > kImmediateMax) {
    throw std::invalid_argument("send_immediate: exceeds immediate limit");
  }
  submit(p);
}

void Context::send(const SendParams& p) { submit(p); }

void Context::submit(const SendParams& p) {
  net::Packet* pkt = net::Packet::create(p.metadata_bytes, p.payload_bytes);
  pkt->src = client_.endpoint();
  pkt->dst = p.dest;
  pkt->dispatch = p.dispatch;
  pkt->rec_fifo = p.dest_context;
  pkt->cid = p.cid;
  if (p.metadata_bytes != 0) {
    std::memcpy(pkt->metadata(), p.metadata, p.metadata_bytes);
  }
  if (p.payload_bytes != 0) {
    std::memcpy(pkt->payload(), p.payload, p.payload_bytes);
  }
  if (client_.reliable() && !p.best_effort) {
    reliable_submit(pkt);
  } else {
    if (pkt->cid != 0) {
      trace::emit_here(trace::EventKind::kNetInject,
                       static_cast<std::uint32_t>(pkt->dst), pkt->cid);
    }
    client_.fabric().inject(pkt);
  }
}

void Context::rget(EndpointId remote, const std::byte* remote_src,
                   std::byte* local_dst, std::size_t bytes,
                   const net::Completion& done) {
  net::Packet* pkt = net::Packet::create_rdma(
      net::TransferKind::kRdmaRead, remote_src, local_dst, bytes, done);
  pkt->src = remote;                 // where the data lives
  pkt->dst = client_.endpoint();     // completion lands back here
  pkt->rec_fifo = index_;
  client_.fabric().inject(pkt);
}

void Context::rput(EndpointId remote, std::byte* remote_dst,
                   const std::byte* local_src, std::size_t bytes,
                   std::uint16_t dest_context,
                   const net::Completion& remote_done) {
  net::Packet* pkt = net::Packet::create_rdma(
      net::TransferKind::kRdmaWrite, local_src, remote_dst, bytes,
      remote_done);
  pkt->src = client_.endpoint();
  pkt->dst = remote;
  pkt->rec_fifo = dest_context;
  client_.fabric().inject(pkt);
}

void Context::process(net::Packet* p) {
  const net::PacketPtr owned(p);
  if (p->kind == net::TransferKind::kMemFifo) {
    // Sequenced / ack packets first pass through the reliability layer,
    // which consumes corrupted, duplicate, and pure-ack packets; only
    // fresh data falls through to dispatch.
    if (p->flags != 0 && !reliable_receive(p)) return;
    // Exactly-once per delivered message even under retransmit: duplicates
    // were filtered above, so this is the dispatch hop of the lifecycle.
    if (p->cid != 0) {
      trace::emit_here(trace::EventKind::kMsgRecv,
                       static_cast<std::uint32_t>(p->src), p->cid);
    }
    const DispatchFn& fn = client_.dispatch(p->dispatch);
    if (!fn) throw std::logic_error("packet for unregistered dispatch id");
    DispatchArgs args;
    args.context = this;
    args.origin = p->src;
    args.metadata = p->metadata();
    args.metadata_bytes = p->meta_bytes;
    args.payload = p->payload();
    args.payload_bytes = p->payload_bytes;
    fn(args);
  } else {
    // RDMA completion notification: the copy already happened at inject.
    p->complete();
  }
}

std::size_t Context::advance(std::size_t max_events) {
  std::size_t events = 0;
  while (events < max_events) {
    if (net::Packet* p = fifo().poll()) {
      process(p);
      ++events;
      continue;
    }
    // An empty FIFO: pull the rank's inbound frames into it, as a BG/Q
    // context polls the MU reception FIFOs itself.
    if (drain_ != nullptr && drain_->poll() != 0) continue;
    // Control work before sends, so a send flood cannot starve a
    // heartbeat.
    if (WorkItem* w = work_.try_dequeue()) {
      w->fn();
      delete w;
      ++events;
      continue;
    }
    if (void* item = posted_sends_.try_dequeue()) {
      send_fn_(send_owner_, this, item);
      ++events;
      continue;
    }
    break;
  }
  // Timers and queues of the reliability layer: drain the backpressure
  // backlog, retransmit expired packets, flush owed acks.  A no-op (and
  // zero added events) unless the client enabled reliability.
  events += reliability_tick();
  return events;
}

// ---------------------------------------------------------------------------
// Context: reliability protocol (see pami/reliability.hpp for the sketch).
// All of this runs on the context's advancing thread — the PAMI thread
// contract already serializes it, so no locks.
// ---------------------------------------------------------------------------

Context::Channel& Context::channel(EndpointId ep, std::uint16_t ctx) {
  return chans_[(static_cast<std::uint64_t>(ep) << 16) | ctx];
}

void Context::reliable_submit(net::Packet* pkt) {
  pkt->flags |= net::kPktReliable;
  pkt->src_ctx = index_;
  Channel& ch = channel(pkt->dst, pkt->rec_fifo);
  const ReliabilityParams& rp = client_.reliability();
  // Backpressure: a full retransmit window (or an already-backed-up
  // backlog — keep submission order) queues the send locally instead of
  // overrunning the peer.  advance() drains as acks free window slots.
  if (!backlog_.empty() || ch.pending.size() >= rp.window) {
    if (backlog_.size() >= rp.backlog_max) {
      pkt->release();
      throw std::runtime_error(
          "pami reliability: backpressure backlog overflow "
          "(application is outrunning the network)");
    }
    if (pkt->cid != 0) {
      trace::emit_here(trace::EventKind::kNetBacklog,
                       static_cast<std::uint32_t>(pkt->dst), pkt->cid);
    }
    backlog_.push_back(pkt);
    backlog_count_.fetch_add(1, std::memory_order_relaxed);
    stalls_.add();
    return;
  }
  transmit(ch, pkt);
}

void Context::transmit(Channel& ch, net::Packet* pkt) {
  const ReliabilityParams& rp = client_.reliability();
  pkt->seq = ch.next_seq++;
  // Piggyback acks owed to this same peer on the outgoing data packet.
  const std::size_t take = std::min(
      {rp.max_piggyback, ch.owed_acks.size(), net::Packet::kMaxAcks});
  if (take != 0) {
    pkt = net::Packet::with_acks(pkt, take);
    take_acks(ch, *pkt);
    acks_piggy_.add(take);
  }
  pkt->checksum = net::packet_checksum(*pkt);
  // The retransmit buffer keeps a private clone: the fabric owns (and may
  // corrupt, drop, or release) the injected original.
  ch.pending.push_back(
      Pending{pkt->seq, pkt->clone(), now_ns() + rp.rto_ns, rp.rto_ns, 0});
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  BGQ_SCHED_POINT("pami.rel.transmit");
  if (pkt->cid != 0) {
    trace::emit_here(trace::EventKind::kNetInject,
                     static_cast<std::uint32_t>(pkt->dst), pkt->cid);
  }
  client_.fabric().inject(pkt);
}

void Context::take_acks(Channel& ch, net::Packet& pkt) {
  const std::size_t first = ch.owed_acks.size() - pkt.nacks;
  for (std::size_t i = 0; i < pkt.nacks; ++i) {
    pkt.set_ack(i, ch.owed_acks[first + i]);
  }
  ch.owed_acks.resize(first);
  owed_total_ -= pkt.nacks;
}

void Context::ack_one(Channel& ch, std::uint64_t seq) {
  for (std::size_t i = 0; i < ch.pending.size(); ++i) {
    if (ch.pending[i].seq == seq) {
      ch.pending[i].copy->release();
      ch.pending.erase(ch.pending.begin() + static_cast<std::ptrdiff_t>(i));
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
  dup_acks_.add();  // already acked (first ack raced a retransmit)
}

bool Context::reliable_receive(net::Packet* p) {
  BGQ_SCHED_POINT("pami.rel.recv");
  // Corruption: drop silently — no ack, so the sender's retransmit
  // recovers the clean copy.
  if (net::packet_checksum(*p) != p->checksum) {
    corrupt_.add();
    return false;
  }
  Channel& ch = channel(p->src, p->src_ctx);
  for (std::size_t i = 0; i < p->nacks; ++i) ack_one(ch, p->ack(i));
  if ((p->flags & net::kPktAck) != 0) {
    return false;  // pure ack: no dispatch, no receive count
  }
  // Dedup: an already-delivered seq is re-acked (the first ack may have
  // been lost) but never re-dispatched — exactly-once delivery.  The
  // sliding horizon bounds the above-watermark table: a seq that far
  // behind max_seen cannot be live (the sender's window caps unacked
  // seqs at `window` << horizon), so it must be an ancient duplicate
  // whose table entry may already have been evicted.
  const ReliabilityParams& rrp = client_.reliability();
  const std::uint64_t seq = p->seq;
  const bool below_horizon =
      rrp.dedup_horizon != 0 && seq + rrp.dedup_horizon <= ch.max_seen;
  const bool seen =
      below_horizon || seq <= ch.recv_cum ||
      std::find(ch.recv_above.begin(), ch.recv_above.end(), seq) !=
          ch.recv_above.end();
  if (seen) {
    dedup_.add();
    ch.owed_acks.push_back(seq);
    ++owed_total_;
    return false;
  }
  // Mark delivered: advance the cumulative watermark, absorbing any
  // contiguous run parked above it (reordered arrivals).
  if (seq == ch.recv_cum + 1) {
    ++ch.recv_cum;
    bool advanced = true;
    while (advanced && !ch.recv_above.empty()) {
      advanced = false;
      for (std::size_t i = 0; i < ch.recv_above.size(); ++i) {
        if (ch.recv_above[i] == ch.recv_cum + 1) {
          ++ch.recv_cum;
          ch.recv_above[i] = ch.recv_above.back();
          ch.recv_above.pop_back();
          advanced = true;
          break;
        }
      }
    }
  } else {
    ch.recv_above.push_back(seq);
  }
  if (seq > ch.max_seen) ch.max_seen = seq;
  // Age out above-watermark entries that fell below the horizon: any
  // future duplicate of them is caught by the below_horizon test above,
  // so the table stays bounded without losing exactly-once.
  if (rrp.dedup_horizon != 0 && ch.max_seen > rrp.dedup_horizon) {
    const std::uint64_t floor = ch.max_seen - rrp.dedup_horizon;
    for (std::size_t i = 0; i < ch.recv_above.size();) {
      if (ch.recv_above[i] <= floor) {
        ch.recv_above[i] = ch.recv_above.back();
        ch.recv_above.pop_back();
        dedup_evicted_.add();
      } else {
        ++i;
      }
    }
  }
  ch.owed_acks.push_back(seq);
  ++owed_total_;
  return true;  // fresh data: caller dispatches it
}

std::size_t Context::reliability_tick() {
  if (!client_.reliable()) return 0;
  const ReliabilityParams& rp = client_.reliability();
  std::size_t activity = 0;

  // Drain the backpressure backlog while windows have room (FIFO order:
  // the head blocking keeps submission order per channel).  Sends bound
  // for a peer that died since submission are culled, not transmitted.
  while (!backlog_.empty()) {
    net::Packet* pkt = backlog_.front();
    if (client_.fabric().endpoint_dead(pkt->dst)) {
      backlog_.pop_front();
      backlog_count_.fetch_sub(1, std::memory_order_relaxed);
      pkt->release();
      dead_drops_.add();
      ++activity;
      continue;
    }
    Channel& ch = channel(pkt->dst, pkt->rec_fifo);
    if (ch.pending.size() >= rp.window) break;
    backlog_.pop_front();
    backlog_count_.fetch_sub(1, std::memory_order_relaxed);
    transmit(ch, pkt);
    ++activity;
  }

  // Retransmit expired unacked packets with exponential backoff.  An
  // expired packet whose peer is dead will never be acked: cull it (the
  // FT layer rolls the message back by epoch) rather than burning
  // retries into a blackhole and throwing.
  if (outstanding_.load(std::memory_order_relaxed) != 0) {
    const std::uint64_t now = now_ns();
    for (auto& [key, ch] : chans_) {
      for (std::size_t i = 0; i < ch.pending.size();) {
        Pending& pend = ch.pending[i];
        if (pend.deadline_ns > now) {
          ++i;
          continue;
        }
        if (client_.fabric().endpoint_dead(pend.copy->dst)) {
          pend.copy->release();
          ch.pending.erase(ch.pending.begin() +
                           static_cast<std::ptrdiff_t>(i));
          outstanding_.fetch_sub(1, std::memory_order_relaxed);
          dead_drops_.add();
          ++activity;
          continue;
        }
        if (++pend.tries > rp.max_retries) {
          throw std::runtime_error(
              "pami reliability: retransmit retries exhausted (seq " +
              std::to_string(pend.seq) + "; peer unreachable?)");
        }
        pend.rto_ns = std::min(pend.rto_ns * 2, rp.rto_max_ns);
        pend.deadline_ns = now + pend.rto_ns;
        BGQ_SCHED_POINT("pami.rel.retransmit");
        if (pend.copy->cid != 0) {
          trace::emit_here(trace::EventKind::kNetRetransmit,
                           static_cast<std::uint32_t>(pend.copy->dst),
                           pend.copy->cid);
        }
        client_.fabric().inject(pend.copy->clone());
        retransmits_.add();
        ++activity;
        ++i;
      }
    }
  }

  // Flush acks that found no data packet to piggyback on as standalone
  // batched ack packets (unsequenced: a lost ack is re-owed on dedup).
  if (owed_total_ != 0) {
    for (auto& [key, ch] : chans_) {
      while (!ch.owed_acks.empty()) {
        const std::size_t take = std::min(
            {rp.max_ack_batch, ch.owed_acks.size(), net::Packet::kMaxAcks});
        net::Packet* ack = net::Packet::create(0, 0, take);
        ack->src = client_.endpoint();
        ack->dst = static_cast<EndpointId>(key >> 16);
        ack->rec_fifo = static_cast<std::uint16_t>(key & 0xFFFF);
        ack->flags = net::kPktAck;
        ack->src_ctx = index_;
        take_acks(ch, *ack);
        acks_alone_.add(take);
        ack->checksum = net::packet_checksum(*ack);
        BGQ_SCHED_POINT("pami.rel.ackflush");
        client_.fabric().inject(ack);
        ++activity;
      }
    }
  }
  return activity;
}

void Context::post_send(void* item) {
  posted_sends_.enqueue(item);
  // Same gate as packet arrivals: the advancing thread parks in one place.
  fifo().wake();
}

void Context::post_work(std::function<void()> fn) {
  work_.enqueue(new WorkItem{std::move(fn)});
  fifo().wake();
}

bool Context::has_pending() const {
  auto& self = const_cast<Context&>(*this);
  return !self.fifo().empty() || !self.work_.empty() ||
         !self.posted_sends_.empty();
}

void Context::bind_gate(wakeup::WaitGate* g) { fifo().bind_gate(g); }

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(trace::Registry& metrics, net::Fabric& fabric,
               EndpointId endpoint, unsigned ncontexts)
    : fabric_(fabric), endpoint_(endpoint) {
  if (ncontexts == 0 || ncontexts > fabric.rec_fifos_per_node()) {
    throw std::invalid_argument(
        "context count must be in [1, reception FIFOs per endpoint]");
  }
  contexts_.reserve(ncontexts);
  for (unsigned i = 0; i < ncontexts; ++i) {
    contexts_.push_back(std::make_unique<Context>(
        *this, static_cast<std::uint16_t>(i), metrics));
  }
}

void Client::set_dispatch(std::uint16_t id, DispatchFn fn) {
  if (id >= kMaxDispatch) throw std::invalid_argument("dispatch id too big");
  dispatch_table_[id] = std::move(fn);
}

}  // namespace bgq::pami
