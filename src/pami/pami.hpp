// PAMI-like active messaging library (§II-B) over the in-process fabric.
//
// The real PAMI (Parallel Active Messaging Interface) is BG/Q's low-level
// messaging layer: a Client per process, multiple Context objects that
// different threads drive concurrently without mutexes, active-message
// sends that fire registered dispatch callbacks on the destination, and
// one-sided rget/rput.  This module reproduces that API shape so the
// Converse machine layer above is the real algorithm from the paper:
//
//   PAMI_Send_immediate -> Context::send_immediate   (single MU descriptor,
//                                                     payload copied inline)
//   PAMI_Send           -> Context::send             (metadata + payload
//                                                     descriptors)
//   PAMI_Rget / Rput    -> Context::rget / rput      (one-sided RDMA)
//   PAMI_Context_advance-> Context::advance          (poll FIFO + work;
//                                                     multi-process ranks
//                                                     also drain the
//                                                     transport)
//   PAMI_Context_post   -> Context::post_send        (lockless handoff of a
//                                                     caller-owned send
//                                                     descriptor to the
//                                                     advancing thread; no
//                                                     allocation)
//   work queues         -> Context::post_work        (lockless closure for
//                                                     rare control work)
//
// Thread contract (same as PAMI): distinct contexts may be driven by
// distinct threads concurrently with no locks; calls into ONE context must
// be externally serialized.  post_send() and post_work() are the
// exception — they are the lockless MPSC channels any thread may use to
// hand work to the thread advancing the context.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "net/packet.hpp"
#include "pami/reliability.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "trace/registry.hpp"
#include "wakeup/wakeup_unit.hpp"

namespace bgq::pami {

class Client;
class Context;

using EndpointId = topo::NodeId;

/// Arguments handed to an active-message dispatch callback.  Pointers are
/// valid only for the duration of the callback (the receiver copies out,
/// exactly as with real PAMI dispatches).
struct DispatchArgs {
  Context* context = nullptr;
  EndpointId origin = 0;
  const std::byte* metadata = nullptr;
  std::size_t metadata_bytes = 0;
  const std::byte* payload = nullptr;
  std::size_t payload_bytes = 0;
};

using DispatchFn = std::function<void(const DispatchArgs&)>;

/// Parameters for send / send_immediate.
struct SendParams {
  EndpointId dest = 0;
  std::uint16_t dispatch = 0;
  /// Which of the destination's contexts (reception FIFOs) to target.
  std::uint16_t dest_context = 0;
  const void* metadata = nullptr;
  std::size_t metadata_bytes = 0;
  const void* payload = nullptr;
  std::size_t payload_bytes = 0;
  /// Causal trace id carried through to the packet (0 = untraced).
  std::uint64_t cid = 0;
  /// Skip the reliability layer even when the client enabled it: the
  /// packet goes out unsequenced, unacked, never retransmitted.  For
  /// traffic where loss is harmless and retransmit state per dead peer is
  /// not (heartbeats).
  bool best_effort = false;
};

/// One PAMI context: a reception FIFO, lockless queues of posted sends and
/// work, and the send machinery.  Created via Client.
class Context {
 public:
  /// PAMI_Send_immediate limit on BG/Q (payload + metadata must fit one
  /// network packet's worth of immediate data).
  static constexpr std::size_t kImmediateMax = 128;

  /// Takes this context's reliability counters from `metrics`.
  Context(Client& client, std::uint16_t index, trace::Registry& metrics);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  std::uint16_t index() const noexcept { return index_; }
  Client& client() noexcept { return client_; }

  /// Short-message send: payload+metadata copied into a single descriptor.
  /// Requires metadata_bytes + payload_bytes <= kImmediateMax.  Both send
  /// flavours copy, so the payload buffer is reusable on return.
  void send_immediate(const SendParams& p);

  /// General eager send (two descriptors: metadata, payload).  Any size.
  void send(const SendParams& p);

  /// One-sided RDMA read: pull `bytes` from `remote_src` (registered on
  /// endpoint `remote`) into `local_dst`; `done` runs on this context's
  /// advancing thread when the data has landed.  Completions are small
  /// trivially copyable callables that travel inside the packet.
  void rget(EndpointId remote, const std::byte* remote_src,
            std::byte* local_dst, std::size_t bytes,
            const net::Completion& done);

  /// One-sided RDMA write: push bytes into `remote_dst` on endpoint
  /// `remote`; `remote_done` (optional) runs on the remote context's
  /// advancing thread after the data is visible there.
  void rput(EndpointId remote, std::byte* remote_dst,
            const std::byte* local_src, std::size_t bytes,
            std::uint16_t dest_context = 0,
            const net::Completion& remote_done = {});

  /// Poll this context: deliver arrived packets to dispatch callbacks, run
  /// RDMA completions, execute posted work.  When the reception FIFO is
  /// empty and the context drains a transport, pull the rank's inbound
  /// frames first, as a BG/Q context polls the MU reception FIFOs itself.
  /// Returns events processed.
  std::size_t advance(std::size_t max_events = SIZE_MAX);

  /// Make advance() drain `t` (this rank's remote transport) whenever the
  /// reception FIFO runs dry; nullptr (the default) turns it off.  Set
  /// before any thread advances the context.
  void drain_transport(transport::Transport* t) noexcept { drain_ = t; }

  /// The advancing thread starts / stops counting as one of the rank's
  /// inline drainers (Transport::join_drainers); no-ops unless the
  /// context drains a transport.  A worker brackets its scheduler loop
  /// with them, a comm thread each stretch between parks.
  void join_drainers() noexcept {
    if (drain_ != nullptr) drain_->join_drainers();
  }
  void leave_drainers() noexcept {
    if (drain_ != nullptr) drain_->leave_drainers();
  }

  /// What the advancing thread does with a send handed over by
  /// post_send(): `fn(owner, ctx, item)` sends `item` on `ctx`.  A context
  /// destroyed with sends still queued calls `fn(owner, nullptr, item)`
  /// for each instead, and the owner frees what never went out.
  using SendFn = void (*)(void* owner, Context* ctx, void* item);

  /// Set the handler of posted sends, once, before the first post_send().
  void set_send_handler(SendFn fn, void* owner) noexcept {
    send_fn_ = fn;
    send_owner_ = owner;
  }

  /// Hand `item`, a send descriptor the caller owns, to whichever thread
  /// advances this context; that thread passes it to the send handler.
  /// Lockless MPSC and allocation-free (the queue spills under a lock only
  /// when its ring is full); wakes the advancing thread if it is parked.
  void post_send(void* item);

  /// Hand a closure to whichever thread advances this context (lockless
  /// MPSC; wakes the advancing thread if it is parked).  Allocates a work
  /// item per call: for rare control work, not per-message sends.
  void post_work(std::function<void()> fn);

  /// True when the FIFO, the posted sends or the work queue has anything
  /// pending.
  bool has_pending() const;

  /// True when the reliability layer has timed work (unacked packets or a
  /// backpressure backlog): the advancing thread must not park forever —
  /// a lost ack produces no wake(), only a timeout.
  bool has_timers() const noexcept {
    return outstanding_.load(std::memory_order_relaxed) != 0 ||
           backlog_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Wake `g` on packet arrival and posted work: the comm-thread pool
  /// binds the gate its servicing thread parks on (nullptr unbinds).
  void bind_gate(wakeup::WaitGate* g);

  // Point-in-time queue depths (advisory off the advancing thread; the
  // hang watchdog reads them for its diagnostic dump).
  std::size_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }
  std::size_t backlog_size() const noexcept {
    return backlog_count_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkItem {
    std::function<void()> fn;
  };

  /// Retransmit-buffer entry: a private clone of an unacked packet.
  struct Pending {
    std::uint64_t seq = 0;
    net::Packet* copy = nullptr;
    std::uint64_t deadline_ns = 0;
    std::uint64_t rto_ns = 0;
    unsigned tries = 0;
  };

  /// Both directions of the flow between this context and one peer
  /// (endpoint, context).  Sender half: seq allocation + retransmit
  /// buffer.  Receiver half: dedup state + owed acks.
  struct Channel {
    std::uint64_t next_seq = 1;          // 0 means "unsequenced" on the wire
    std::vector<Pending> pending;        // unacked, ordered by send time

    std::uint64_t recv_cum = 0;          // all seqs <= this were delivered
    std::uint64_t max_seen = 0;          // highest seq ever received
    std::vector<std::uint64_t> recv_above;  // delivered seqs > recv_cum
    std::vector<std::uint64_t> owed_acks;   // to piggyback or flush
  };

  net::ReceptionFifo& fifo();
  void process(net::Packet* p);
  /// The one body of send and send_immediate: fill a packet from `p` and
  /// inject it (through the reliability layer when armed).
  void submit(const SendParams& p);

  // Reliability internals (pami.cpp); all run on the advancing thread.
  Channel& channel(EndpointId ep, std::uint16_t ctx);
  void reliable_submit(net::Packet* pkt);
  void transmit(Channel& ch, net::Packet* pkt);
  bool reliable_receive(net::Packet* p);
  /// Move the newest `pkt.nacks` acks owed on `ch` into `pkt`.
  void take_acks(Channel& ch, net::Packet& pkt);
  void ack_one(Channel& ch, std::uint64_t seq);
  std::size_t reliability_tick();

  Client& client_;
  const std::uint16_t index_;
  transport::Transport* drain_ = nullptr;  ///< what advance() drains, or null

  queue::L2AtomicQueue<WorkItem*> work_;
  queue::L2AtomicQueue<void*> posted_sends_;
  SendFn send_fn_ = nullptr;
  void* send_owner_ = nullptr;

  // Channels keyed by (peer endpoint << 16) | peer context.  Only the
  // advancing thread touches this (PAMI thread contract), so no locks.
  std::unordered_map<std::uint64_t, Channel> chans_;
  std::deque<net::Packet*> backlog_;  // backpressured sends, FIFO order
  // Mutated only by the advancing thread; relaxed atomics because the
  // hang watchdog's diagnostic dump reads them from the monitor thread.
  std::atomic<std::size_t> outstanding_{0};  // unacked across channels
  std::atomic<std::size_t> backlog_count_{0};  // == backlog_.size()
  std::size_t owed_total_ = 0;        // owed acks across channels

  // Reliability-protocol counters (net.* cells; all zero unless the
  // client enabled reliability).  Written by the advancing thread; the
  // hang watchdog's dump reads the totals mid-run.
  trace::Cell& retransmits_;
  trace::Cell& dup_acks_;     ///< acks for an already-acked seq
  trace::Cell& acks_piggy_;
  trace::Cell& acks_alone_;
  trace::Cell& corrupt_;
  trace::Cell& dedup_;
  trace::Cell& stalls_;       ///< sends queued behind a full window
  trace::Cell& dedup_evicted_;  ///< dedup entries aged past the horizon
  /// Unacked/backlogged packets culled because their peer died.
  trace::Cell& dead_drops_;
};

/// One PAMI client per process (endpoint); owns the contexts and the
/// dispatch table shared by them.
class Client {
 public:
  static constexpr std::size_t kMaxDispatch = 256;

  /// Its contexts count into `metrics`.
  Client(trace::Registry& metrics, net::Fabric& fabric, EndpointId endpoint,
         unsigned ncontexts);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Context& context(unsigned i) { return *contexts_[i]; }
  unsigned context_count() const noexcept {
    return static_cast<unsigned>(contexts_.size());
  }

  EndpointId endpoint() const noexcept { return endpoint_; }
  net::Fabric& fabric() noexcept { return fabric_; }

  /// Register the callback for a dispatch id.  Must happen before traffic
  /// with that id arrives (PAMI_Dispatch_set has the same requirement).
  void set_dispatch(std::uint16_t id, DispatchFn fn);

  /// Dispatch lookup, bounds-checked: a dispatch id off the wire can be
  /// anything (a bit flip away from valid), so an out-of-range id must be
  /// a loud error, not an out-of-bounds read.
  const DispatchFn& dispatch(std::uint16_t id) const {
    if (id >= kMaxDispatch) {
      throw std::out_of_range("pami: dispatch id " + std::to_string(id) +
                              " out of range");
    }
    return dispatch_table_[id];
  }

  /// Turn on the ack/retransmit reliability protocol for every context of
  /// this client (see pami/reliability.hpp).  Call before traffic flows;
  /// both communicating clients must enable it.
  void enable_reliability(const ReliabilityParams& params = {}) {
    reliability_ = params;
    reliable_ = true;
  }
  bool reliable() const noexcept { return reliable_; }
  const ReliabilityParams& reliability() const noexcept {
    return reliability_;
  }

 private:
  net::Fabric& fabric_;
  const EndpointId endpoint_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::array<DispatchFn, kMaxDispatch> dispatch_table_;
  ReliabilityParams reliability_{};
  bool reliable_ = false;
};

}  // namespace bgq::pami
