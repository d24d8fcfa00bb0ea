// Machine configuration: the paper's execution modes (§III).
#pragma once

#include <cstddef>
#include <cstdint>

#include "ft/config.hpp"
#include "net/fault.hpp"
#include "net/params.hpp"
#include "pami/reliability.hpp"
#include "tram/config.hpp"
#include "transport/config.hpp"

namespace bgq::cvs {

/// The three Charm++ modes the paper studies.
enum class Mode {
  kNonSmp,          ///< one PE per process; PE does compute + comm
  kSmp,             ///< one multi-worker process per node, workers advance
                    ///< their own PAMI contexts
  kSmpCommThreads,  ///< one process per node, dedicated comm threads
};

struct MachineConfig {
  /// Physical nodes (torus size).  The functional runtime runs real host
  /// threads, so keep nodes * threads modest; machine scale is src/sim.
  std::size_t nodes = 2;

  Mode mode = Mode::kSmp;

  /// Worker PEs per process.  In kNonSmp this is forced to 1 and
  /// `processes_per_node` processes share each node.
  unsigned workers_per_process = 2;

  /// Processes per node (kNonSmp only; 1 otherwise).
  unsigned processes_per_node = 2;

  /// Comm threads per process (kSmpCommThreads only).  The paper's rule of
  /// thumb: one per four worker threads.
  unsigned comm_threads = 1;

  /// Use L2-atomic lockless queues for PE queues (Fig. 8 ablation: false
  /// swaps in the mutex queue).
  bool use_l2_atomics = true;

  /// Use the lockless pool allocator (false: GNU-arena-style baseline).
  bool use_pool_allocator = true;

  /// Messages up to this payload size go eager; larger use the rendezvous
  /// rget protocol (§III: "For large messages, we explored a rendezvous
  /// protocol").
  std::size_t eager_max = 4096;

  /// Record per-PE event traces — handler begin/end, message
  /// enqueue/dequeue, idle-poll transitions — into the machine's trace
  /// session (Fig. 9/10 time profiles; export via write_chrome_trace or
  /// the bgq-trace-v1 flat trace for bgq-prof).  Counters are always on;
  /// this gates the rings, and with them every causal-id stamp.
  bool trace_events = false;

  /// Per-thread trace ring capacity in events (rounded up to a power of
  /// two); a full ring drops new events and counts the loss.
  std::size_t trace_ring_events = 1 << 14;

  net::NetworkParams net{};

  /// Fault-injection plan for the fabric (chaos testing; net/fault.hpp).
  /// Disabled by default.  When left disabled, the machine consults the
  /// BGQ_FAULT_PLAN environment variable instead, so an existing binary's
  /// whole run can be made faulty from the outside.
  net::FaultPlan faults{};

  /// Reliability tuning (windows, timeouts; pami/reliability.hpp).  The
  /// ack/retransmit protocol runs whenever a fault plan is active — the
  /// runtime cannot survive drops without it — and never otherwise.
  pami::ReliabilityParams reliability{};

  /// TRAM-style streaming aggregation of small remote messages
  /// (src/tram/): opt-in; a default config sends everything direct.
  tram::Config tram{};

  /// Fault tolerance: checkpoint/restart protocol and hang watchdog
  /// (ft/config.hpp).  Crash events in a fault plan fire only when
  /// `ft.armed()` — otherwise they are stripped, so an env-wide plan with
  /// crashes is safe for non-FT machines.
  ft::Config ft{};

  /// Lockless-ring capacity of each reception FIFO, in packets.  Beyond
  /// it, deliveries spill to a mutex-protected overflow queue (counted as
  /// net.fifo.spills) — or are refused outright under
  /// FaultPlan::reject_on_full.
  std::size_t rec_fifo_capacity = 4096;

  /// Transport backend (src/transport/).  Default inproc: the whole job in
  /// this OS process, exactly as before.  A remote kind (shm / socket)
  /// makes this OS process host *one* emulated process — transport.rank —
  /// of a transport.nprocs-rank job; the machine layer validates
  /// nprocs == process_count().  When left at inproc, the machine consults
  /// the BGQ_TRANSPORT environment variable (how the bgq-run launcher
  /// configures the ranks it spawns); an explicit config wins.
  transport::Config transport{};

  // ---- derived ----------------------------------------------------------
  unsigned effective_processes_per_node() const {
    return mode == Mode::kNonSmp ? processes_per_node : 1;
  }
  unsigned effective_workers_per_process() const {
    return mode == Mode::kNonSmp ? 1 : workers_per_process;
  }
  unsigned effective_comm_threads() const {
    return mode == Mode::kSmpCommThreads ? comm_threads : 0;
  }
  std::size_t process_count() const {
    return nodes * effective_processes_per_node();
  }
  std::size_t pe_count() const {
    return process_count() * effective_workers_per_process();
  }
  /// PAMI contexts per process: one per comm thread when they exist,
  /// otherwise one per worker (each worker advances its own).
  unsigned contexts_per_process() const {
    return effective_comm_threads() != 0 ? effective_comm_threads()
                                         : effective_workers_per_process();
  }
};

}  // namespace bgq::cvs
