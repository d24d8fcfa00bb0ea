// The Converse-like machine layer (§III): processes, worker PEs, the
// scheduler loop, intra-node pointer-exchange queues, and the PAMI machine
// layer with eager + rendezvous protocols.
//
// A Machine hosts every simulated node of the job in one host process.
// Layout:
//
//   Machine
//     └─ Process (one per Charm++ OS process; = PAMI endpoint)
//          ├─ pami::Client (contexts = comm threads, or one per worker)
//          ├─ IAllocator   (pool or arena; shared by the process's threads)
//          ├─ Pe x W       (worker threads, each with its scheduler queue)
//          └─ CommThreadPool (kSmpCommThreads mode only)
//
// Pe ranks are global and dense: process p owns PEs [p*W, (p+1)*W).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/allocator.hpp"
#include "converse/config.hpp"
#include "converse/message.hpp"
#include "net/fabric.hpp"
#include "pami/comm_thread.hpp"
#include "pami/pami.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "queue/mutex_queue.hpp"
#include "topology/torus.hpp"
#include "trace/trace.hpp"

namespace bgq::ft {
class Manager;
}  // namespace bgq::ft

namespace bgq::tram {
class Router;
}  // namespace bgq::tram

namespace bgq::cvs {

class Machine;
class Process;
class Pe;

/// Control-message type registry for the transport's out-of-band plane
/// (transport::CtrlMsg::type).  The machine layer owns types below
/// kFtBase and routes everything at or above it to the FT manager.
namespace ctrl {
inline constexpr std::uint16_t kStop = 1;     ///< request_stop broadcast
inline constexpr std::uint16_t kBarrier = 2;  ///< a=pe rank, b=arrival count
inline constexpr std::uint16_t kQuiesced = 3;  ///< a=run generation
inline constexpr std::uint16_t kFtBase = 16;
inline constexpr std::uint16_t kFtRegs = 16;      ///< a=sent b=executed c=gen
inline constexpr std::uint16_t kCkptReq = 17;     ///< pull ranks into ckpt
inline constexpr std::uint16_t kCkptPlan = 18;    ///< a=seq b=go c=members
inline constexpr std::uint16_t kCkptBlob = 19;    ///< a=seq b=proc, blob
inline constexpr std::uint16_t kCkptDone = 20;    ///< a=seq, to the leader
inline constexpr std::uint16_t kCkptCommit = 21;  ///< a=seq c=members
inline constexpr std::uint16_t kRecBlob = 22;     ///< a=seq b=proc, blob
}  // namespace ctrl

/// A Converse handler.  Owns the message: it must either free it
/// (pe.free_message) or forward it (pe.send_message).
using HandlerFn = std::function<void(Pe&, Message*)>;

/// One worker processing element.
class Pe {
 public:
  Pe(Process& process, PeRank rank, unsigned local_index);

  Pe(const Pe&) = delete;
  Pe& operator=(const Pe&) = delete;

  PeRank rank() const noexcept { return rank_; }
  unsigned local_index() const noexcept { return local_; }
  Process& process() noexcept { return process_; }
  Machine& machine() noexcept;

  // ---- messaging (the CmiSyncSend family) --------------------------------

  /// Allocate a message with room for `payload_bytes`.
  Message* alloc_message(std::size_t payload_bytes, HandlerId handler);

  /// Free a message (handlers call this when done).
  void free_message(Message* m);

  /// Send-and-free: ownership of `m` passes to the runtime.
  void send_message(PeRank dst, Message* m);

  /// Copying send convenience: allocates, copies `bytes`, sends.
  void send(PeRank dst, HandlerId handler, const void* payload,
            std::size_t bytes);

  /// Send a copy to every PE (including self unless skip_self).
  void broadcast(HandlerId handler, const void* payload, std::size_t bytes,
                 bool skip_self = false);

  /// Direct enqueue to this PE (used by dispatch callbacks and intra-node
  /// senders; thread-safe MPSC).
  void enqueue(Message* m);

  // ---- scheduler ---------------------------------------------------------

  /// Process queued messages until the machine stops.
  void scheduler_loop();

  /// Run at most one queued message; returns true if one ran.  Lets user
  /// init functions interleave their own work with message processing.
  bool pump_one();

  /// Ask every PE's scheduler to return (CsdExitScheduler, machine-wide).
  void exit_all();

  /// Machine-wide worker barrier (benchmark phase alignment).
  void barrier();

  /// This PE's event ring, or nullptr when the run was configured
  /// without tracing (MachineConfig::trace_events).  Layers above the
  /// machine (e.g. the parallel MD driver's phase markers) emit here.
  trace::EventRing* trace_ring() noexcept { return ring_; }

  /// The PAMI context this worker advances itself (modes without comm
  /// threads), or nullptr when comm threads own all contexts.  Exposed for
  /// layers (many-to-many, FFT) that inject bursts directly.
  pami::Context* owned_context() noexcept { return owned_context_; }

 private:
  friend class Process;
  friend class Machine;
  friend class tram::Router;  // same-PE records execute inline on deagg

  void execute(Message* m);

  Process& process_;
  const PeRank rank_;
  const unsigned local_;

  // One of the two is active, per MachineConfig::use_l2_atomics.
  std::unique_ptr<queue::L2AtomicQueue<void*>> l2_queue_;
  std::unique_ptr<queue::MutexQueue<void*>> mutex_queue_;

  // Context this worker advances (modes without comm threads), else null.
  pami::Context* owned_context_ = nullptr;

  // This PE's counters: cells the machine registry owns and only this
  // PE's thread writes (Cell::owner_add).  The tram router, on this
  // thread, adds the records it runs inline to msgs_executed_ and
  // busy_ns_.
  trace::Cell& msgs_sent_;      ///< pe.msgs.sent
  trace::Cell& sends_intra_;    ///< pe.sends.intra
  trace::Cell& sends_network_;  ///< pe.sends.network
  trace::Cell& msgs_executed_;  ///< pe.msgs.executed
  trace::Cell& busy_ns_;        ///< pe.busy_ns
  trace::Cell& idle_probes_;    ///< pe.idle.probes

  trace::EventRing* ring_ = nullptr;  // owned by the trace session
  std::uint64_t send_seq_ = 0;   // round-robin context routing
  std::uint64_t trace_seq_ = 0;  // per-PE causal-id allocation
};

/// One Charm++ OS process (PAMI endpoint).
class Process {
 public:
  Process(Machine& machine, pami::EndpointId endpoint);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  Machine& machine() noexcept { return machine_; }
  pami::EndpointId endpoint() const noexcept { return endpoint_; }
  pami::Client& client() noexcept { return *client_; }
  alloc::IAllocator& allocator() noexcept { return *allocator_; }

  Pe& pe(unsigned local) { return *pes_[local]; }
  unsigned worker_count() const {
    return static_cast<unsigned>(pes_.size());
  }

  /// Allocator thread-slot of the calling thread (workers, then comm
  /// threads, then the transport poller), or alloc::kNoSlot for a thread
  /// the machine did not launch.
  static alloc::ThreadId current_tid() noexcept {
    return alloc::this_thread().slot;
  }

  /// Bind the calling thread to `slot` of this process's allocator: its
  /// messages and packet buffers come from there.  One thread per slot.
  void bind_thread(alloc::ThreadId slot) noexcept {
    alloc::bind_thread(allocator_.get(), slot);
  }

  /// Machine-layer send of a fully-built message to the remote PE named in
  /// its header.  Chooses immediate / eager / rendezvous and routes
  /// through the right context.  Takes ownership of `m`.
  void net_send(Pe& src_pe, Message* m);

  /// Start comm threads (kSmpCommThreads mode); called by Machine.
  void start_comm_threads(unsigned n);
  void stop_comm_threads();
  pami::CommThreadPool* comm_pool() { return comm_pool_.get(); }

  /// Queue one round of best-effort peer heartbeats onto this process's
  /// context-0 work queue (FT monitor thread calls this periodically).
  void post_heartbeats();

 private:
  friend class Pe;
  friend class Machine;
  friend class tram::Router;  // deaggregation re-enters deliver()

  void register_dispatches();
  /// Send `m` (to the PE in its header) on `ctx`, eager or rendezvous.
  void send_on_context(pami::Context& ctx, Message* m);
  /// The contexts' handler of posted sends (pami::Context::SendFn):
  /// `item` is a Message that net_send handed to a comm thread; a null
  /// `ctx` means the context died first, and the message is freed.
  static void posted_send(void* self, pami::Context* ctx, void* item);

  /// Hand a received message to its destination PE (inline in non-SMP).
  void deliver(Message* m);

  // Dispatch handlers (run on whichever thread advances the context).
  void on_eager(const pami::DispatchArgs& a);
  void on_rendezvous_req(const pami::DispatchArgs& a);
  void on_rendezvous_ack(const pami::DispatchArgs& a);

  Machine& machine_;
  const pami::EndpointId endpoint_;
  std::unique_ptr<alloc::IAllocator> allocator_;
  std::unique_ptr<pami::Client> client_;
  std::vector<std::unique_ptr<Pe>> pes_;
  std::unique_ptr<pami::CommThreadPool> comm_pool_;
  /// Allocator slot of the transport poller (the last one; multi-process
  /// jobs only — the poller allocates the inbound packets it drains).
  alloc::ThreadId poller_slot_ = alloc::kNoSlot;
};

/// The whole simulated job.
class Machine {
 public:
  explicit Machine(MachineConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const noexcept { return cfg_; }
  const topo::Torus& torus() const noexcept { return torus_; }
  net::Fabric& fabric() noexcept { return *fabric_; }

  std::size_t pe_count() const noexcept { return cfg_.pe_count(); }
  Process& process(std::size_t i) { return *processes_[i]; }
  std::size_t process_count() const noexcept { return processes_.size(); }

  /// Register a handler on all PEs; returns its id.  Do this before run().
  HandlerId register_handler(HandlerFn fn);
  const HandlerFn& handler(HandlerId id) const { return handlers_[id]; }

  /// Launch: one host thread per PE runs `init(pe)` then the scheduler
  /// loop; comm threads run alongside.  Returns when every PE's scheduler
  /// has exited (someone called pe.exit_all()).
  void run(const std::function<void(Pe&)>& init);

  /// Map global PE rank -> owning process index / local worker index.
  std::size_t process_of(PeRank pe) const noexcept {
    return pe / cfg_.effective_workers_per_process();
  }
  unsigned local_of(PeRank pe) const noexcept {
    return pe % cfg_.effective_workers_per_process();
  }
  Pe& pe(PeRank rank) {
    return processes_[process_of(rank)]->pe(local_of(rank));
  }

  bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  /// Stop every PE's scheduler.  In a multi-process job the first call
  /// also broadcasts a kStop control frame so the other ranks stop too.
  void request_stop() noexcept;

  // ---- multi-process transport (src/transport/) --------------------------

  /// True when this OS process hosts only one emulated process of a
  /// larger job (MachineConfig::transport, or BGQ_TRANSPORT).
  bool multiproc() const noexcept { return multiproc_; }
  /// The transport rank this OS process hosts (0 when single-process).
  unsigned local_rank() const noexcept { return cfg_.transport.rank; }
  /// Emulated process `p`'s threads run in this OS process.
  bool process_local(std::size_t p) const noexcept {
    return !multiproc_ || p == cfg_.transport.rank;
  }
  /// Send a machine-layer control message (`dst` = transport rank, -1 =
  /// every other rank).  Stamps the origin; no-op single-process.
  void send_ctrl(int dst, transport::CtrlMsg m);

  /// Worker barrier: callable only from PE threads during run().  Pass the
  /// calling PE so the barrier can keep advancing its PAMI context while
  /// waiting — a PE blocked without network progress could never
  /// retransmit, which deadlocks barrier-synchronized apps on a lossy
  /// fabric (the reason this is not a std::barrier).  Liveness-aware: PEs
  /// of a declared-dead process are not waited for, and the caller bails
  /// out if its own process dies or the machine stops.
  void worker_barrier(Pe* self);

  // ---- message aggregation (src/tram/) -----------------------------------

  /// The streaming aggregator, or nullptr when MachineConfig::tram is
  /// off.  Created before any application handler registers, so its
  /// deaggregation handler always gets the first id.
  tram::Router* tram_router() noexcept { return tram_.get(); }

  /// Timeout-flush hook for wait loops outside the scheduler (the FT
  /// quiescence wait): no-op without a router.
  void tram_tick(Pe& pe);

  // ---- fault tolerance (src/ft/) -----------------------------------------

  /// True when the run has any FT service armed (checkpoint/restart or
  /// the hang watchdog) — gates every FT hook on the hot paths.
  bool ft_armed() const noexcept { return ft_armed_; }
  ft::Manager* ft_manager() noexcept { return ft_.get(); }

  /// Current message epoch.  Stamped (truncated to 16 bits) into every
  /// application message when FT is armed; execute() discards mismatches.
  std::uint32_t msg_epoch() const noexcept {
    return msg_epoch_.load(std::memory_order_acquire);
  }
  void bump_msg_epoch() noexcept {
    msg_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Global quiescence counters: application messages sent vs executed
  /// (FT-armed runs only; stale discards touch neither).
  std::uint64_t ft_sent() const noexcept {
    return ft_sent_.load(std::memory_order_acquire);
  }
  std::uint64_t ft_executed() const noexcept {
    return ft_executed_.load(std::memory_order_acquire);
  }
  void note_sent() {
    const std::uint64_t n =
        ft_sent_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (n == crash_watermark_.load(std::memory_order_acquire)) {
      await_crash(n);
    }
  }
  /// The send count at which the FT monitor's next message-count crash
  /// is due (0: none); the monitor re-arms it after each crash fires.
  void set_crash_watermark(std::uint64_t n) noexcept {
    crash_watermark_.store(n, std::memory_order_release);
  }
  void note_executed() noexcept {
    ft_executed_.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Recovery leader only, with every live worker parked: post-restart
  /// quiescence accounting starts from zero (in-flight pre-crash messages
  /// are stale and will touch neither counter).
  void reset_ft_counters() noexcept {
    ft_sent_.store(0, std::memory_order_release);
    ft_executed_.store(0, std::memory_order_release);
  }
  void note_stale_drop() noexcept { stale_drops_.add(); }

  /// Crash a process: its fabric endpoints blackhole, its comm threads
  /// stop, its workers break out of their scheduler loops.  Idempotent.
  /// Survival is the FT manager's job — this is only the failure itself.
  void kill_process(std::size_t p);

  /// The process was killed (crash injection / true failure) — known
  /// immediately, machine-internally.
  bool process_killed(std::size_t p) const noexcept {
    return fabric_->endpoint_dead(static_cast<topo::NodeId>(p));
  }

  /// The failure detector *declared* the process dead (heartbeat
  /// silence).  Barriers, re-homing, and recovery key off this, not off
  /// process_killed — survivors only act on what they could observe.
  bool process_dead(std::size_t p) const noexcept {
    return (dead_mask_.load(std::memory_order_acquire) >> p) & 1;
  }
  void declare_dead(std::size_t p) noexcept {
    dead_mask_.fetch_or(1ull << p, std::memory_order_acq_rel);
  }
  std::uint64_t dead_mask() const noexcept {
    return dead_mask_.load(std::memory_order_acquire);
  }

  /// Lowest PE rank on a live (not declared-dead) process — the protocol
  /// leader and the reduction root.  Falls back to 0 if all are dead.
  PeRank lowest_live_pe() const noexcept {
    const std::uint64_t mask = dead_mask_.load(std::memory_order_acquire);
    for (std::size_t p = 0; p < processes_.size(); ++p) {
      if (((mask >> p) & 1) == 0) {
        return static_cast<PeRank>(p * cfg_.effective_workers_per_process());
      }
    }
    return 0;
  }
  std::size_t live_process_count() const noexcept {
    std::size_t n = 0;
    const std::uint64_t mask = dead_mask_.load(std::memory_order_acquire);
    for (std::size_t p = 0; p < processes_.size(); ++p) {
      n += ((mask >> p) & 1) == 0 ? 1 : 0;
    }
    return n;
  }

  // ---- tracing & metrics (src/trace/) ------------------------------------

  /// The machine-wide counter registry, the one store of every runtime
  /// counter: every component — PEs and the tram router, contexts, fabric
  /// and FIFOs, transport, allocators, comm threads, FT manager — counts
  /// into cells it took when it was built, so totals are exact at any
  /// time.
  trace::Registry& metrics() noexcept { return metrics_; }

  /// Snapshot of every counter, after setting the trace-ring health
  /// cells (trace.ring.drops, trace.ring.hwm) from the session.
  trace::Report metrics_report();

  /// The event-trace session (per-PE + per-comm-thread rings).  Disabled
  /// (empty) unless the config set trace_events.
  trace::Session& trace_session() noexcept { return trace_; }

  /// Flush all rings and write a Chrome trace_event JSON timeline
  /// (about://tracing, Perfetto).
  void write_chrome_trace(std::ostream& os);

  /// Flush all rings and write the flat causal trace (bgq-trace-v1 JSON),
  /// the input format of the bgq-prof post-mortem analyzer.
  void write_flat_trace(std::ostream& os);

 private:
  /// Inbound control frames (runs on whichever thread drains the
  /// transport: the poller, or a worker or comm thread inline).
  void on_ctrl(const transport::CtrlMsg& m);

  /// note_sent reached the crash watermark `n`: wake the FT monitor and
  /// wait until it has fired the crash, so the crash lands at exactly
  /// this send count rather than at the monitor's next tick — a short run
  /// could finish before that tick gets a CPU.
  void await_crash(std::uint64_t n);

  /// End-of-run handshake (multi-process): once nothing on this rank
  /// injects any more and the poller has stopped, broadcast kQuiesced
  /// and drain the transport on this thread until every peer has sent
  /// its own for this run, is dead or declared dead, or a deadline
  /// passes.  Ctrl and data frames share one FIFO per pair, so a peer's
  /// kQuiesced proves none of its frames is still in flight.
  void quiesce_peers();

  MachineConfig cfg_;
  topo::Torus torus_;
  trace::Registry metrics_;
  trace::Cell& ring_drops_;  ///< events lost to full trace rings
  trace::Cell& ring_hwm_;    ///< worst trace-ring occupancy

  std::unique_ptr<tram::Router> tram_;
  trace::Session trace_;
  // Declared before the fabric: the fabric holds a raw pointer to the
  // transport, so the transport must outlive it.
  std::unique_ptr<transport::Transport> transport_;
  bool multiproc_ = false;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<HandlerFn> handlers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_sent_{false};

  // Transport poller (multiproc only): for the whole run, drains what the
  // threads advancing the contexts leave and sleeps on the transport's
  // doorbell in between.
  std::thread poller_;
  std::atomic<bool> poller_stop_{false};
  // Quiesce handshake: run() calls so far, and per process the last run
  // generation it reported quiesced (written by the ctrl handler).
  std::uint64_t run_gen_ = 0;
  std::vector<std::atomic<std::uint64_t>> quiesced_;

  // Liveness-aware per-PE-slot barrier (see worker_barrier): each PE
  // counts its own arrivals in a padded slot; a barrier completes when
  // every *live* PE's count reaches the caller's.  Per-slot arrival
  // counting is what lets the barrier skip dead PEs without a shared
  // counter ever going stale.
  struct alignas(64) BarrierSlot {
    std::atomic<std::uint64_t> n{0};
  };
  std::vector<BarrierSlot> barrier_slots_;

  // ---- fault tolerance ---------------------------------------------------
  std::unique_ptr<ft::Manager> ft_;
  bool ft_armed_ = false;
  std::atomic<std::uint32_t> msg_epoch_{0};
  std::atomic<std::uint64_t> ft_sent_{0};
  std::atomic<std::uint64_t> crash_watermark_{0};
  std::atomic<std::uint64_t> ft_executed_{0};
  trace::Cell& stale_drops_;  ///< ft.stale_drops
  // Declared-dead process bitmask (functional machines are tiny; 64
  // processes is far beyond what one host can thread anyway).
  std::atomic<std::uint64_t> dead_mask_{0};
};

}  // namespace bgq::cvs
