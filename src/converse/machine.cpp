#include "converse/machine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "alloc/arena_allocator.hpp"
#include "alloc/pool_allocator.hpp"
#include "common/spin.hpp"
#include "common/timing.hpp"
#include "ft/manager.hpp"
#include "trace/trace_io.hpp"
#include "tram/aggregator.hpp"
#include "transport/shm.hpp"
#include "transport/socket.hpp"

namespace bgq::cvs {

namespace {

// PAMI dispatch ids used by the machine layer.
constexpr std::uint16_t kDispatchEager = 1;
constexpr std::uint16_t kDispatchRzvReq = 2;
constexpr std::uint16_t kDispatchRzvAck = 3;
// Best-effort peer heartbeat (fault tolerance): the packet's arrival
// already refreshed the sender's last-heard stamp at inject time, so the
// dispatch itself is a no-op.
constexpr std::uint16_t kDispatchHeartbeat = 4;

/// Rendezvous control payload: the source message, read back by rget and
/// freed on ack (same address space stands in for the memory-region
/// handle + offset the real protocol ships).
struct RzvToken {
  Message* src_msg;
};

/// A fresh cell under `name` in the machine registry of `process`.
trace::Cell& cell_of(Process& process, const char* name) {
  return process.machine().metrics().cell(name);
}

/// How long a rank waits at the end of a multi-process run for peers to
/// report quiesced before it tears its transport down anyway.
constexpr std::uint64_t kQuiesceTimeoutNs = 1'000'000'000;

/// Longest a parked transport poller sleeps without a doorbell ring.  It
/// owns no context and no retransmit timer, so nothing is due when it
/// wakes; the deadline only bounds the cost of a wakeup the handshake
/// failed to deliver.
constexpr std::uint64_t kPollerSafetyNetNs = 10'000'000;

}  // namespace

// ---------------------------------------------------------------------------
// Pe
// ---------------------------------------------------------------------------

Pe::Pe(Process& process, PeRank rank, unsigned local_index)
    : process_(process),
      rank_(rank),
      local_(local_index),
      msgs_sent_(cell_of(process, "pe.msgs.sent")),
      sends_intra_(cell_of(process, "pe.sends.intra")),
      sends_network_(cell_of(process, "pe.sends.network")),
      msgs_executed_(cell_of(process, "pe.msgs.executed")),
      busy_ns_(cell_of(process, "pe.busy_ns")),
      idle_probes_(cell_of(process, "pe.idle.probes")) {
  Machine& mach = process_.machine();
  const auto& cfg = mach.config();
  if (cfg.use_l2_atomics) {
    l2_queue_ = std::make_unique<queue::L2AtomicQueue<void*>>(2048);
  } else {
    mutex_queue_ = std::make_unique<queue::MutexQueue<void*>>();
  }
  ring_ = mach.trace_session().make_ring(
      static_cast<std::uint32_t>(process_.endpoint()), local_,
      "pe" + std::to_string(rank_));
}

Machine& Pe::machine() noexcept { return process_.machine(); }

Message* Pe::alloc_message(std::size_t payload_bytes, HandlerId handler) {
  void* raw = process_.allocator().allocate(
      Process::current_tid(), sizeof(MsgHeader) + payload_bytes);
  auto* m = Message::from_raw(raw);
  // Zero all 32 bytes, the tail padding too: the header travels as PAMI
  // metadata, and a pool buffer's stale bytes must not go with it.
  std::memset(static_cast<void*>(&m->header()), 0, sizeof(MsgHeader));
  m->header().payload_bytes = static_cast<std::uint32_t>(payload_bytes);
  m->header().handler = handler;
  m->header().src_pe = rank_;
  return m;
}

void Pe::free_message(Message* m) {
  process_.allocator().deallocate(Process::current_tid(), m->raw());
}

void Pe::send_message(PeRank dst, Message* m) {
  m->header().dst_pe = dst;
  m->header().src_pe = rank_;
  Machine& mach = machine();
  msgs_sent_.owner_add();
  if (mach.ft_armed()) {
    m->header().epoch = static_cast<std::uint16_t>(mach.msg_epoch());
    mach.note_sent();
  }
  if (ring_ != nullptr) {
    // Stamp the causal id (origin PE + per-PE sequence, kept below 2^53 so
    // it survives the JSON exports' doubles) and open the lifecycle.
    MsgHeader& h = m->header();
    h.trace_id = (static_cast<std::uint64_t>(rank_ + 1) << 32) | ++trace_seq_;
    ring_->emit({now_ns(), dst, trace::EventKind::kMsgSend, h.trace_id});
  }
  if (mach.process_of(dst) == mach.process_of(rank_)) {
    // Same SMP process: pointer exchange straight into the peer's queue.
    sends_intra_.owner_add();
    mach.pe(dst).enqueue(m);
    return;
  }
  // Remote destination: the aggregation router may absorb a small message
  // into a per-destination batch (it re-sends via this same path, as a
  // batch message the router declines to re-batch).
  if (tram::Router* tr = mach.tram_router();
      tr != nullptr && tr->offer(*this, dst, m)) {
    return;
  }
  sends_network_.owner_add();
  process_.net_send(*this, m);
}

void Pe::send(PeRank dst, HandlerId handler, const void* payload,
              std::size_t bytes) {
  Message* m = alloc_message(bytes, handler);
  if (bytes != 0) std::memcpy(m->payload(), payload, bytes);
  send_message(dst, m);
}

void Pe::broadcast(HandlerId handler, const void* payload, std::size_t bytes,
                   bool skip_self) {
  const auto n = static_cast<PeRank>(machine().pe_count());
  for (PeRank p = 0; p < n; ++p) {
    if (skip_self && p == rank_) continue;
    send(p, handler, payload, bytes);
  }
}

void Pe::enqueue(Message* m) {
  // Producer-side trace tick, on the *sender's* track (null-bound
  // threads skip at the cost of one thread-local load).
  trace::emit_here(trace::EventKind::kMsgEnqueue, rank_,
                   m->header().trace_id);
  if (l2_queue_) {
    l2_queue_->enqueue(m->raw());
  } else {
    mutex_queue_->enqueue(m->raw());
  }
}

void Pe::execute(Message* m) {
  Machine& mach = machine();
  if (mach.ft_armed()) {
    // Stale-epoch discard: the message was sent before a rollback, so
    // executing it would double-apply pre-crash work.  Touches neither
    // quiescence counter — the rollback already re-zeroed them.
    if (m->header().epoch !=
        static_cast<std::uint16_t>(mach.msg_epoch())) {
      mach.note_stale_drop();
      free_message(m);
      return;
    }
  }
  const HandlerId h = m->header().handler;
  // The handler owns (and may free or forward) the message: capture the
  // causal id before invoking it.
  const std::uint64_t cid = m->header().trace_id;
  const std::uint64_t t0 = now_ns();
  if (ring_) ring_->emit({t0, h, trace::EventKind::kHandlerBegin, cid});
  machine().handler(h)(*this, m);
  const std::uint64_t t1 = now_ns();
  busy_ns_.owner_add(t1 - t0);
  msgs_executed_.owner_add();
  if (mach.ft_armed()) mach.note_executed();
  if (ring_) ring_->emit({t1, h, trace::EventKind::kHandlerEnd, cid});
}

bool Pe::pump_one() {
  void* raw = l2_queue_ ? l2_queue_->try_dequeue()
                        : mutex_queue_->try_dequeue();
  if (raw != nullptr) {
    Message* m = Message::from_raw(raw);
    if (ring_) {
      const MsgHeader& h = m->header();
      ring_->emit(
          {now_ns(), h.handler, trace::EventKind::kMsgDequeue, h.trace_id});
    }
    execute(m);
    return true;
  }
  // No queued message: progress the network if this worker owns a context
  // (non-SMP and SMP-without-comm-threads modes).
  if (owned_context_ != nullptr) {
    return owned_context_->advance() != 0;
  }
  return false;
}

void Pe::scheduler_loop() {
  Machine& mach = machine();
  const bool ft = mach.ft_armed();
  ft::Manager* mgr = ft ? mach.ft_manager() : nullptr;
  tram::Router* tr = mach.tram_router();
  // From here to exit this worker drains the rank's transport inline.
  if (owned_context_ != nullptr) owned_context_->join_drainers();
  bool idle = false;
  while (!mach.stopping()) {
    if (ft && mach.process_killed(process_.endpoint())) break;  // crashed
    if (pump_one()) {
      if (idle) {
        idle = false;
        if (ring_) ring_->emit({now_ns(), 0, trace::EventKind::kIdleEnd});
      }
      continue;
    }
    // No local work: flush aggregation buffers whose timeout expired —
    // before FT protocol work, since quiescence counts staged records as
    // sent-but-unexecuted and would otherwise wait on them.
    if (tr != nullptr && tr->tick(*this)) {
      if (idle) {
        idle = false;
        if (ring_) ring_->emit({now_ns(), 0, trace::EventKind::kIdleEnd});
      }
      continue;
    }
    // FT protocol work (checkpoint / recovery) only once the local queue
    // is drained — rendezvous with the queue's messages already applied.
    if (mgr != nullptr && mgr->poll(*this)) {
      if (idle) {
        idle = false;
        if (ring_) ring_->emit({now_ns(), 0, trace::EventKind::kIdleEnd});
      }
      continue;
    }
    if (!idle) {
      idle = true;
      if (ring_) ring_->emit({now_ns(), 0, trace::EventKind::kIdleBegin});
    }
    // Idle poll (§III-D): yield between probes.  This host has fewer
    // cores than the runtime has threads, so yielding is what keeps
    // functional runs live; bench_idlepoll measures the other policies.
    idle_probes_.owner_add();
    idle_pause(IdlePollPolicy::kOsYield);
  }
  if (idle && ring_) {
    ring_->emit({now_ns(), 0, trace::EventKind::kIdleEnd});
  }
  if (owned_context_ != nullptr) owned_context_->leave_drainers();
}

void Pe::exit_all() { machine().request_stop(); }

void Pe::barrier() { machine().worker_barrier(this); }

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Machine& machine, pami::EndpointId endpoint)
    : machine_(machine), endpoint_(endpoint) {
  const MachineConfig& cfg = machine.config();
  const unsigned workers = cfg.effective_workers_per_process();
  const unsigned commthreads = cfg.effective_comm_threads();
  unsigned nthreads = workers + std::max(1u, commthreads);
  if (machine.multiproc()) poller_slot_ = nthreads++;

  if (cfg.use_pool_allocator) {
    allocator_ =
        std::make_unique<alloc::PoolAllocator>(machine.metrics(), nthreads);
  } else {
    allocator_ =
        std::make_unique<alloc::ArenaAllocator>(machine.metrics(), nthreads);
  }

  client_ = std::make_unique<pami::Client>(machine.metrics(), machine.fabric(),
                                           endpoint,
                                           cfg.contexts_per_process());
  // An active fault plan drops packets: only acks and retransmits make
  // delivery exactly-once again.
  if (machine.fabric().faults_enabled()) {
    client_->enable_reliability(cfg.reliability);
  }
  register_dispatches();
  for (unsigned i = 0; i < client_->context_count(); ++i) {
    client_->context(i).set_send_handler(&Process::posted_send, this);
  }

  pes_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    const auto rank = static_cast<PeRank>(
        static_cast<std::size_t>(endpoint) * workers + w);
    pes_.push_back(std::make_unique<Pe>(*this, rank, w));
    if (commthreads == 0) {
      // Each worker advances its own context.
      pes_.back()->owned_context_ = &client_->context(w);
    }
  }
}

void Process::register_dispatches() {
  client_->set_dispatch(kDispatchEager, [this](const pami::DispatchArgs& a) {
    on_eager(a);
  });
  client_->set_dispatch(kDispatchRzvReq,
                        [this](const pami::DispatchArgs& a) {
                          on_rendezvous_req(a);
                        });
  client_->set_dispatch(kDispatchRzvAck,
                        [this](const pami::DispatchArgs& a) {
                          on_rendezvous_ack(a);
                        });
  // Heartbeats carry no data: their inject already refreshed the fabric's
  // last-heard stamp for the sender, which is all the detector reads.
  client_->set_dispatch(kDispatchHeartbeat, [](const pami::DispatchArgs&) {});
}

void Process::post_heartbeats() {
  // Runs on the monitor thread: hand the sends to whichever thread
  // advances context 0 (the PAMI thread contract's post_work exception).
  pami::Context& ctx = client_->context(0);
  Machine* mach = &machine_;
  const auto self = endpoint_;
  ctx.post_work([mach, self, &ctx] {
    for (std::size_t p = 0; p < mach->process_count(); ++p) {
      if (p == self || mach->process_killed(p)) continue;
      pami::SendParams hb;
      hb.dest = static_cast<pami::EndpointId>(p);
      hb.dispatch = kDispatchHeartbeat;
      hb.best_effort = true;  // losing one is fine; the next refreshes
      ctx.send_immediate(hb);
    }
  });
}

void Process::net_send(Pe& src_pe, Message* m) {
  if (comm_pool_ != nullptr) {
    // Offload to a comm thread; spread this worker's traffic over all of
    // them (§III-C even distribution).
    const unsigned idx = pami::CommThreadPool::route(
        src_pe.local_index(), src_pe.send_seq_++,
        client_->context_count());
    // The message is its own send descriptor (the destination PE travels
    // in its header): the handoff allocates nothing.
    client_->context(idx).post_send(m);
    return;
  }
  send_on_context(*src_pe.owned_context_, m);
}

void Process::posted_send(void* self, pami::Context* ctx, void* item) {
  auto* proc = static_cast<Process*>(self);
  auto* m = static_cast<Message*>(item);
  if (ctx == nullptr) {
    proc->allocator_->deallocate(current_tid(), m->raw());
    return;
  }
  proc->send_on_context(*ctx, m);
}

void Process::send_on_context(pami::Context& ctx, Message* m) {
  const PeRank dst = m->header().dst_pe;
  const auto dst_ep =
      static_cast<pami::EndpointId>(machine_.process_of(dst));
  const auto dest_ctx = static_cast<std::uint16_t>(
      m->header().src_pe % machine_.config().contexts_per_process());
  const std::size_t bytes = m->payload_bytes();

  pami::SendParams p;
  p.dest = dst_ep;
  p.dest_context = dest_ctx;
  p.metadata = &m->header();
  p.metadata_bytes = sizeof(MsgHeader);
  p.cid = m->header().trace_id;

  // Rendezvous ships a raw source-buffer pointer and pulls it with rget —
  // meaningless across address spaces, so remote-process destinations go
  // eager at any size (the eager path copies the payload either way).
  const bool rzv = bytes > machine_.config().eager_max &&
                   machine_.process_local(dst_ep);
  if (rzv) {
    // Rendezvous (§III): ship a short request carrying the source buffer
    // token; the receiver rgets the payload and acks so we can free.
    RzvToken token{m};
    p.dispatch = kDispatchRzvReq;
    p.payload = &token;
    p.payload_bytes = sizeof(token);
    ctx.send_immediate(p);
    return;  // m stays alive until the ack
  }

  p.dispatch = kDispatchEager;
  p.payload = m->payload();
  p.payload_bytes = bytes;
  if (sizeof(MsgHeader) + bytes <= pami::Context::kImmediateMax) {
    ctx.send_immediate(p);
  } else {
    ctx.send(p);
  }
  // Both send flavours copied the payload: the message is free to go.
  allocator_->deallocate(current_tid(), m->raw());
}

void Process::on_eager(const pami::DispatchArgs& a) {
  void* raw = allocator_->allocate(current_tid(),
                                   sizeof(MsgHeader) + a.payload_bytes);
  auto* m = Message::from_raw(raw);
  std::memcpy(&m->header(), a.metadata, sizeof(MsgHeader));
  if (a.payload_bytes != 0) {
    std::memcpy(m->payload(), a.payload, a.payload_bytes);
  }
  deliver(m);
}

void Process::deliver(Message* m) {
  const unsigned local = machine_.local_of(m->header().dst_pe);
  if (comm_pool_ == nullptr && pes_.size() == 1) {
    // Non-SMP: the advancing thread *is* the PE; invoke the handler inline
    // straight from the network poll (no cross-thread queue — the source
    // of non-SMP's latency edge in Fig. 4).
    pes_[0]->execute(m);
    return;
  }
  pes_[local]->enqueue(m);
}

void Process::on_rendezvous_req(const pami::DispatchArgs& a) {
  MsgHeader hdr;
  std::memcpy(&hdr, a.metadata, sizeof(hdr));
  RzvToken token;
  std::memcpy(&token, a.payload, sizeof(token));

  void* raw = allocator_->allocate(current_tid(),
                                   sizeof(MsgHeader) + hdr.payload_bytes);
  auto* m = Message::from_raw(raw);
  std::memcpy(&m->header(), a.metadata, sizeof(MsgHeader));

  pami::Context* ctx = a.context;
  const pami::EndpointId origin = a.origin;
  const auto src_ctx = static_cast<std::uint16_t>(
      hdr.src_pe % machine_.config().contexts_per_process());

  // Pull the payload from the source buffer, then hand the message to the
  // destination PE and ack the sender so it can free.
  ctx->rget(origin,
            reinterpret_cast<const std::byte*>(token.src_msg->payload()),
            m->payload(), hdr.payload_bytes,
            [this, ctx, origin, src_ctx, token, m] {
              deliver(m);
              pami::SendParams ack;
              ack.dest = origin;
              ack.dest_context = src_ctx;
              ack.dispatch = kDispatchRzvAck;
              ack.payload = &token;
              ack.payload_bytes = sizeof(token);
              ctx->send_immediate(ack);
            });
}

void Process::on_rendezvous_ack(const pami::DispatchArgs& a) {
  RzvToken token;
  std::memcpy(&token, a.payload, sizeof(token));
  allocator_->deallocate(current_tid(), token.src_msg->raw());
}

void Process::start_comm_threads(unsigned n) {
  std::vector<pami::Context*> ctxs;
  for (unsigned i = 0; i < client_->context_count(); ++i) {
    ctxs.push_back(&client_->context(i));
  }
  const unsigned workers = worker_count();
  Machine* mach = &machine_;
  const auto ep = static_cast<std::uint32_t>(endpoint_);
  comm_pool_ = std::make_unique<pami::CommThreadPool>(
      mach->metrics(), std::move(ctxs), n,
      [this, workers, mach, ep](unsigned comm_tid) {
        // Comm threads use allocator slots after the workers'.
        bind_thread(workers + comm_tid);
        if (mach->trace_session().enabled()) {
          mach->trace_session().adopt_thread(
              ep, workers + comm_tid,
              "comm" + std::to_string(ep) + "." + std::to_string(comm_tid));
        }
      });
}

void Process::stop_comm_threads() {
  if (comm_pool_) comm_pool_->stop();
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg),
      torus_(topo::Torus::bgq_partition(cfg.nodes)),
      ring_drops_(metrics_.cell("trace.ring.drops")),
      ring_hwm_(metrics_.cell("trace.ring.hwm")),
      trace_(cfg.trace_events, cfg.trace_ring_events),
      stale_drops_(metrics_.cell("ft.stale_drops")) {
  // The FT manager's and the tram router's counters report (as zeros)
  // on machines without one.
  for (const char* name :
       {"ft.checkpoints", "ft.checkpoints_skipped", "ft.recoveries",
        "ft.crashes", "ft.heartbeats", "ft.watchdog_dumps",
        "ft.checkpoint_bytes", "ft.recovery_ns", "ft.detect_ns"}) {
    metrics_.intern(name);
  }
  for (const char* name : tram::kCounterNames) metrics_.intern(name);
  // Transport backend: an explicit config wins; otherwise BGQ_TRANSPORT
  // lets the bgq-run launcher make any existing binary host one rank of a
  // multi-process job.
  if (!cfg_.transport.remote()) {
    cfg_.transport = transport::Config::from_env();
  }
  multiproc_ = cfg_.transport.remote();
  if (multiproc_) {
    quiesced_ = std::vector<std::atomic<std::uint64_t>>(cfg_.process_count());
    if (cfg_.transport.nprocs != cfg_.process_count()) {
      throw std::invalid_argument(
          "transport nprocs does not match the machine's process count");
    }
    if (cfg_.effective_workers_per_process() != 1) {
      // Ranks coordinate through one protocol PE each; SMP workers would
      // need a per-rank sub-barrier nothing here exercises.
      throw std::invalid_argument(
          "multi-process transports require one worker per process");
    }
    switch (cfg_.transport.kind) {
      case transport::Kind::kShm:
        transport_ = std::make_unique<transport::ShmTransport>(
            metrics_, cfg_.transport);
        break;
      case transport::Kind::kSocket:
        transport_ = std::make_unique<transport::SocketTransport>(
            metrics_, cfg_.transport);
        break;
      case transport::Kind::kInProc:
        break;  // unreachable: remote() gated above
    }
  }
  fabric_ = std::make_unique<net::Fabric>(
      metrics_, torus_, cfg_.net, cfg_.contexts_per_process(),
      cfg_.effective_processes_per_node(), cfg_.rec_fifo_capacity,
      transport_.get());
  if (multiproc_) {
    fabric_->transport().set_ctrl_handler(
        [this](const transport::CtrlMsg& m) { on_ctrl(m); });
  }
  // Chaos layer: an explicit plan in the config wins; otherwise the
  // BGQ_FAULT_PLAN environment variable lets any existing run go faulty.
  net::FaultPlan plan =
      cfg_.faults.enabled() ? cfg_.faults : net::FaultPlan::from_env();
  // Crash events only fire on runs that armed fault tolerance: an
  // environment-wide plan (the CI recovery job sets one) must not kill
  // processes under tests that have no checkpoint/restart or watchdog to
  // survive or even notice it.
  if (!cfg_.ft.armed()) plan.crashes.clear();
  if (plan.enabled()) fabric_->set_fault_plan(plan);
  ft_armed_ = cfg_.ft.armed();
  barrier_slots_ = std::vector<BarrierSlot>(cfg_.pe_count());
  if (ft_armed_) {
    if (cfg_.ft.enabled) fabric_->enable_liveness();
    ft_ = std::make_unique<ft::Manager>(*this, cfg_.ft,
                                        std::move(plan.crashes));
  }
  // The aggregation router registers its deaggregation handler here,
  // before any application handler, so it deterministically owns id 0.
  if (cfg_.tram.enabled) {
    tram_ = std::make_unique<tram::Router>(*this, cfg_.tram);
  }
  const std::size_t nproc = cfg_.process_count();
  processes_.reserve(nproc);
  for (std::size_t p = 0; p < nproc; ++p) {
    processes_.push_back(std::make_unique<Process>(
        *this, static_cast<pami::EndpointId>(p)));
  }
  if (multiproc_) {
    // Whoever advances a local context drains the rank's inbound frames
    // itself when its reception FIFO runs dry (no poller handoff).
    pami::Client& cl = processes_[cfg_.transport.rank]->client();
    for (unsigned i = 0; i < cl.context_count(); ++i) {
      cl.context(i).drain_transport(transport_.get());
    }
  }
}

Machine::~Machine() {
  for (auto& p : processes_) p->stop_comm_threads();
  // Packets still queued in the fabric belong to the processes' pools,
  // which die with processes_ — before the fabric.
  fabric_->release_undelivered();
}

HandlerId Machine::register_handler(HandlerFn fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<HandlerId>(handlers_.size() - 1);
}

void Machine::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  if (multiproc_ && !stop_sent_.exchange(true, std::memory_order_acq_rel)) {
    // Receivers store stop_ directly (no re-broadcast), so the exchange
    // guard means each rank originates at most one kStop storm.
    transport::CtrlMsg m;
    m.type = ctrl::kStop;
    try {
      send_ctrl(-1, std::move(m));
    } catch (...) {
      // A peer torn down mid-shutdown is fine; its own exit stops it.
    }
  }
}

void Machine::send_ctrl(int dst, transport::CtrlMsg m) {
  if (!multiproc_) return;
  m.origin = cfg_.transport.rank;
  fabric_->transport().send_ctrl(dst, m);
}

void Machine::on_ctrl(const transport::CtrlMsg& m) {
  switch (m.type) {
    case ctrl::kStop:
      stop_.store(true, std::memory_order_release);
      return;
    case ctrl::kQuiesced:
      // One FIFO per pair: a peer's generations arrive in order.
      if (m.origin < quiesced_.size()) {
        quiesced_[m.origin].store(m.a, std::memory_order_release);
      }
      return;
    case ctrl::kBarrier: {
      // Merge a remote PE's arrival count (monotone max: counts only
      // grow, and re-deliveries must never move a slot backwards).
      if (m.a >= barrier_slots_.size()) return;
      auto& slot = barrier_slots_[m.a].n;
      std::uint64_t cur = slot.load(std::memory_order_acquire);
      while (cur < m.b &&
             !slot.compare_exchange_weak(cur, m.b,
                                         std::memory_order_acq_rel)) {
      }
      return;
    }
    default:
      if (m.type >= ctrl::kFtBase && ft_ != nullptr) ft_->on_ctrl(m);
      return;
  }
}

void Machine::worker_barrier(Pe* self) {
  // Per-PE-slot barrier that keeps the caller's network progressing.  A PE
  // parked in a blocking barrier could never run its reliability
  // retransmit timer; on a faulty fabric, peers still waiting on a dropped
  // message from that PE would then wait forever.
  //
  // Each PE counts its own arrivals; the barrier completes when every
  // *live* PE's count has reached the caller's.  Per-slot counting (vs a
  // shared sense-reversing counter) is what lets the barrier skip PEs of a
  // declared-dead process without the shared count going permanently
  // short.  The caller bails out if its own process was killed or the
  // machine is stopping — its peers will stop waiting for it once the
  // failure detector declares the process dead.
  // Collective alignment drains this PE's aggregation buffers first: a
  // barrier-synchronized peer may be waiting on exactly the messages a
  // lazy batch is holding back.
  if (tram_ != nullptr) tram_->drain(*self);
  const std::size_t me = self->rank();
  const std::uint64_t target =
      barrier_slots_[me].n.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (multiproc_) {
    // Remote PEs' slots are fed by their ranks' kBarrier broadcasts (the
    // ctrl handler merges them with a monotone max); ship ours out.
    transport::CtrlMsg bm;
    bm.type = ctrl::kBarrier;
    bm.a = me;
    bm.b = target;
    send_ctrl(-1, std::move(bm));
  }
  pami::Context* ctx = self->owned_context();
  const unsigned wpp = cfg_.effective_workers_per_process();
  for (std::size_t i = 0; i < barrier_slots_.size(); ++i) {
    while (barrier_slots_[i].n.load(std::memory_order_acquire) < target) {
      if (stopping()) return;
      // Handlers executed inline from advance() (non-SMP delivery) can
      // stage fresh records while we park: keep the timeout flush live.
      if (tram_ != nullptr) tram_->tick(*self);
      if (ft_armed_) {
        // A declared-dead or killed process's PEs are never arriving; a
        // killed-but-undeclared slot must be skipped too, or a crash that
        // lands mid-protocol wedges every survivor in this loop before
        // the detector (which needs them to keep running) can declare it.
        if (process_dead(i / wpp) || process_killed(i / wpp)) break;
        if (process_killed(process_of(me))) return;  // we crashed
      }
      if (ctx != nullptr) ctx->advance();
      std::this_thread::yield();
    }
  }
}

void Machine::tram_tick(Pe& pe) {
  if (tram_ != nullptr) tram_->tick(pe);
}

void Machine::await_crash(std::uint64_t n) {
  if (ft_ == nullptr) return;
  ft_->wake();
  while (crash_watermark_.load(std::memory_order_acquire) == n &&
         !stopping()) {
    std::this_thread::yield();
  }
}

void Machine::kill_process(std::size_t p) {
  // The failure itself, nothing more: endpoints blackhole (fabric refuses
  // transfers to/from the process), comm threads stop, and the process's
  // workers notice process_killed() at the top of their scheduler loops.
  // Survivors learn of the death only through heartbeat silence — the
  // detector, not this call, sets the declared-dead mask.
  if (fabric_->endpoint_dead(static_cast<topo::NodeId>(p))) return;
  fabric_->kill_endpoint(static_cast<topo::NodeId>(p));
  processes_[p]->stop_comm_threads();
  if (ft_) ft_->on_killed(static_cast<unsigned>(p));
}

void Machine::run(const std::function<void(Pe&)>& init) {
  stop_.store(false, std::memory_order_release);
  stop_sent_.store(false, std::memory_order_release);
  ++run_gen_;

  const unsigned commthreads = cfg_.effective_comm_threads();
  if (commthreads != 0) {
    for (auto& p : processes_) {
      if (process_local(p->endpoint())) p->start_comm_threads(commthreads);
    }
  }
  if (multiproc_) {
    // The poller drains what the advancing threads leave — ctrl frames
    // while they are busy, everything while none drains inline — and
    // sleeps on the transport's doorbell in between.  It must be live
    // before the first barrier; what it drains is allocated from its own
    // pool slot.
    poller_stop_.store(false, std::memory_order_release);
    poller_ = std::thread([this] {
      Process& local = *processes_[cfg_.transport.rank];
      local.bind_thread(local.poller_slot_);
      transport::Transport& tp = fabric_->transport();
      while (!poller_stop_.load(std::memory_order_acquire)) {
        if (fabric_->progress() == 0) {
          tp.await_frames(poller_stop_, kPollerSafetyNetNs);
        }
      }
    });
  }
  if (ft_) ft_->start();  // monitor thread: crashes, heartbeats, watchdog

  // Every Process object exists on every rank (so endpoint addressing,
  // placement and checkpoint re-homing stay global computations), but
  // only the local rank's PEs get threads in a multi-process job.
  std::vector<std::thread> workers;
  workers.reserve(pe_count());
  for (auto& proc : processes_) {
    if (!process_local(proc->endpoint())) continue;
    for (unsigned w = 0; w < proc->worker_count(); ++w) {
      Pe* pe = &proc->pe(w);
      workers.emplace_back([this, proc = proc.get(), pe, w, &init] {
        proc->bind_thread(w);
        trace::Session::bind_thread(pe->ring_);
        worker_barrier(pe);  // everyone exists before any traffic flows
        init(*pe);
        pe->scheduler_loop();
      });
    }
  }
  for (auto& t : workers) t.join();

  if (ft_) ft_->stop();
  for (auto& p : processes_) p->stop_comm_threads();
  if (multiproc_) {
    // Workers, comm threads and the FT monitor are gone: this rank
    // injects nothing more.  The poller goes too; the handshake drains
    // on this thread until the peers say the same (a blocked socket
    // writer on the far side would wedge its shutdown otherwise).
    poller_stop_.store(true, std::memory_order_release);
    fabric_->transport().wake_poller();
    if (poller_.joinable()) poller_.join();
    quiesce_peers();
  }
}

void Machine::quiesce_peers() {
  const std::size_t self = cfg_.transport.rank;
  if (process_killed(self)) return;  // a dead rank's frames don't matter
  transport::CtrlMsg q;
  q.type = ctrl::kQuiesced;
  q.a = run_gen_;
  try {
    send_ctrl(-1, std::move(q));
    fabric_->transport().flush();
  } catch (...) {
    // A peer torn down mid-shutdown: its death or the deadline ends the
    // wait below.
  }
  const std::uint64_t deadline = now_ns() + kQuiesceTimeoutNs;
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    while (p != self &&
           quiesced_[p].load(std::memory_order_acquire) < run_gen_ &&
           !process_killed(p) && !process_dead(p) && now_ns() < deadline) {
      if (fabric_->progress() == 0) std::this_thread::yield();
    }
  }
}

trace::Report Machine::metrics_report() {
  // Trace-ring health: total events lost to full rings and the worst
  // per-ring occupancy high-water mark.  Emitted unconditionally (zeros
  // when tracing is off) so a truncated trace is visible in any report
  // instead of silently biasing the analyzer.
  std::uint64_t ring_drops = 0, ring_hwm = 0;
  for (const auto& rs : trace_.ring_stats()) {
    ring_drops += rs.dropped;
    ring_hwm = std::max(ring_hwm, rs.high_water);
  }
  ring_drops_.set(ring_drops);
  ring_hwm_.set(ring_hwm);
  return metrics_.report();
}

void Machine::write_chrome_trace(std::ostream& os) {
  trace::write_chrome_trace(os, trace_.collect());
}

void Machine::write_flat_trace(std::ostream& os) {
  trace::write_flat_trace(os, trace_.collect());
}

}  // namespace bgq::cvs
