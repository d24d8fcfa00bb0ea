// Trace event model for the Projections-style tracing subsystem.
//
// Every instrumented layer — the Converse machine, the lockless queues,
// the pool allocator, the comm threads, the wakeup gates, and the DES
// engine — emits the same 24-byte timestamped record into a per-thread
// ring (ring.hpp).  The exporters (chrome_export.hpp, trace_io.hpp) and
// the analyzer (analysis.hpp) consume the flushed streams; nothing here
// allocates or locks.
#pragma once

#include <cstdint>

namespace bgq::trace {

/// What happened.  Kinds come in three flavours:
///   * span begins/ends (paired, nestable per thread) — handler execution,
///     idle-poll intervals, comm-thread parks, MD phases, DES tasks;
///   * instants — message enqueue/dequeue, queue overflow spills, alloc
///     grow/spill, gate wakeups, DES event dispatch.
/// bgq-trace-v1 files store kinds as numbers, so a kind that is no longer
/// emitted keeps its slot.
enum class EventKind : std::uint8_t {
  // Converse machine layer (runtime-gated by MachineConfig::trace_events).
  kMsgEnqueue = 0,   ///< instant; arg = destination PE rank
  kMsgDequeue,       ///< instant; arg = handler id
  // Message-lifecycle hops (cid-stamped; the causal trace the post-mortem
  // analyzer in analysis.hpp reconstructs per-message lifecycles from).
  kMsgSend,          ///< instant; a PE handed a message to the runtime;
                     ///< arg = destination PE rank
  kNetInject,        ///< instant; packet entered the fabric; arg = dst EP
  kNetBacklog,       ///< instant; send parked in the reliability
                     ///< backpressure backlog; arg = dst EP
  kNetRetransmit,    ///< instant; reliability layer re-injected an unacked
                     ///< packet; arg = dst EP
  kNetDeliver,       ///< instant; packet landed in a reception FIFO;
                     ///< arg = dst EP
  kMsgRecv,          ///< instant; dispatch callback invoked on the
                     ///< advancing thread; arg = origin EP
  kHandlerBegin,     ///< span; arg = handler id
  kHandlerEnd,       ///< span; arg = handler id
  kIdleBegin,        ///< span; idle-poll interval opened
  kIdleEnd,          ///< span; work found again
  // Lockless core, slow paths only (runtime-gated through emit_here).
  kQueueSpill,       ///< instant; lockless ring full, overflow spill
  kAllocPoolHit,     ///< retired (per-message); no longer emitted
  kAllocHeapGrow,    ///< instant; pool empty, buffer from heap; arg = class
  kAllocHeapSpill,   ///< instant; pool full past threshold; arg = class
  kCommAdvance,      ///< retired (per-message); no longer emitted
  kParkBegin,        ///< span; comm thread parks on the wakeup gate
  kParkEnd,          ///< span; comm thread resumed
  kGateWake,         ///< instant; a producer woke a gate
  // Application phases (mini-NAMD time profiles, Figs. 3/9/10).
  kPhaseBegin,       ///< span; arg = phase id (0 cutoff, 1 PME)
  kPhaseEnd,         ///< span; arg = phase id
  // Discrete-event simulator (sim/engine.hpp, simulated timestamps).
  kSimEvent,         ///< instant; one DES dispatch; arg = sequence low bits
  kTaskBegin,        ///< span; a Server occupancy interval
  kTaskEnd,          ///< span
  // Message aggregation (src/tram/, runtime-gated like the machine
  // layer's events).
  kTramFlushBegin,   ///< span; a staged batch is packed + sent;
                     ///< arg = destination process
  kTramFlushEnd,     ///< span; arg = destination process
  // Free-form instrumentation from benches/tests.
  kUser,             ///< instant; meaning of arg is the emitter's business
};

/// Number of distinct kinds (trace_io rejects a kind at or past it).
inline constexpr unsigned kEventKindCount =
    static_cast<unsigned>(EventKind::kUser) + 1;

/// Human-readable kind label (Chrome trace names, summaries).
inline const char* kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kMsgEnqueue: return "msg.enqueue";
    case EventKind::kMsgDequeue: return "msg.dequeue";
    case EventKind::kMsgSend: return "msg.send";
    case EventKind::kNetInject: return "net.inject";
    case EventKind::kNetBacklog: return "net.backlog";
    case EventKind::kNetRetransmit: return "net.retransmit";
    case EventKind::kNetDeliver: return "net.deliver";
    case EventKind::kMsgRecv: return "msg.recv";
    case EventKind::kHandlerBegin:
    case EventKind::kHandlerEnd: return "handler";
    case EventKind::kIdleBegin:
    case EventKind::kIdleEnd: return "idle";
    case EventKind::kQueueSpill: return "queue.spill";
    case EventKind::kAllocPoolHit: return "alloc.pool_hit";
    case EventKind::kAllocHeapGrow: return "alloc.heap_grow";
    case EventKind::kAllocHeapSpill: return "alloc.heap_spill";
    case EventKind::kCommAdvance: return "comm.advance";
    case EventKind::kParkBegin:
    case EventKind::kParkEnd: return "park";
    case EventKind::kGateWake: return "gate.wake";
    case EventKind::kPhaseBegin:
    case EventKind::kPhaseEnd: return "phase";
    case EventKind::kSimEvent: return "sim.event";
    case EventKind::kTaskBegin:
    case EventKind::kTaskEnd: return "task";
    case EventKind::kTramFlushBegin:
    case EventKind::kTramFlushEnd: return "tram.flush";
    case EventKind::kUser: return "user";
  }
  return "?";
}

/// True for kinds that open a span; `end_of(k)` gives the closing kind.
inline bool is_begin(EventKind k) noexcept {
  switch (k) {
    case EventKind::kHandlerBegin:
    case EventKind::kIdleBegin:
    case EventKind::kParkBegin:
    case EventKind::kPhaseBegin:
    case EventKind::kTaskBegin:
    case EventKind::kTramFlushBegin: return true;
    default: return false;
  }
}

inline bool is_end(EventKind k) noexcept {
  switch (k) {
    case EventKind::kHandlerEnd:
    case EventKind::kIdleEnd:
    case EventKind::kParkEnd:
    case EventKind::kPhaseEnd:
    case EventKind::kTaskEnd:
    case EventKind::kTramFlushEnd: return true;
    default: return false;
  }
}

inline EventKind end_of(EventKind begin) noexcept {
  return static_cast<EventKind>(static_cast<std::uint8_t>(begin) + 1);
}

/// One trace record.  Timestamps are nanoseconds: host `now_ns()` for the
/// functional runtime, simulated-time-in-ns for the DES engine — either
/// way monotone per emitting track, which is all the exporters require.
///
/// `cid` is the causal (per-message) trace id: stamped into a message at
/// send time and carried through every lifecycle hop, so the analyzer can
/// reassemble one message's journey across tracks.  Zero means "not part
/// of a message lifecycle" — every pre-existing emit site stays valid
/// because the field is trailing and defaulted.
struct Event {
  std::uint64_t t_ns;
  std::uint32_t arg;
  EventKind kind;
  std::uint64_t cid = 0;
};

}  // namespace bgq::trace
