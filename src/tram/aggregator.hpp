// TRAM-style streaming aggregation: coalesce small remote messages into
// per-destination-process batches (§III-E generalized).
//
// The paper's CmiDirectManytomany amortizes per-message machine-layer
// cost for one pre-registered communication pattern.  The Router makes
// that amortization an always-available runtime service: any small
// Converse/chare send to a remote process is absorbed into a staging
// buffer for that destination, and a single batch message carries many
// records across the wire.  The receive side re-materializes each record
// and hands it to the normal delivery path, so handlers, checkpoint
// epochs, FT quiescence accounting, and causal trace ids all behave
// exactly as if the messages had traveled alone.
//
// Threading: every staging slot belongs to exactly one PE, and offer /
// tick / drain run only on that PE's thread (the scheduler loop and the
// worker barrier).  No locks anywhere.
//
// Flush triggers, in the order they can fire:
//   * byte threshold  — batch reached Config::batch_bytes (clamped to
//                       the eager limit so a batch never trips the
//                       rendezvous round-trip);
//   * count threshold — batch holds Config::batch_msgs records;
//   * timeout tick    — the scheduler found no work and a non-empty
//                       buffer is older than Config::flush_ns;
//   * barrier drain   — worker_barrier / FT quiescence flushes
//                       everything staged, so collective alignment
//                       points never wait on a lazy buffer.
//
// Fault tolerance: a buffer tagged with a pre-rollback epoch is
// discarded whole (tram.stale_discards) — its records were already
// counted in quiescence epochs that reset_ft_counters() zeroed, and
// replay comes from the checkpoint, not from stale staging.  Records
// that do ship keep their per-message epoch, so the existing
// stale-discard in Pe::execute covers batches that were in flight when
// a crash hit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/timing.hpp"
#include "converse/machine.hpp"
#include "tram/batch.hpp"
#include "tram/config.hpp"
#include "trace/trace.hpp"

namespace bgq::tram {

/// The router's counters, one cell per PE each.  The machine interns the
/// names too, so a run without a router reports them as zeros.
inline constexpr const char* kCounterNames[] = {
    "tram.appends",       "tram.batches",         "tram.batched_msgs",
    "tram.deagg_msgs",    "tram.flush.bytes",     "tram.flush.count",
    "tram.flush.timeout", "tram.flush.barrier",   "tram.bypass.oversize",
    "tram.stale_discards"};

class Router {
 public:
  Router(cvs::Machine& mach, Config cfg)
      : mach_(mach),
        cfg_(cfg),
        limit_bytes_(cfg.batch_bytes < mach.config().eager_max
                         ? cfg.batch_bytes
                         : mach.config().eager_max),
        state_(mach.config().pe_count()) {
    for (auto& st : state_) {
      st.by_proc.resize(mach.config().process_count());
      for (std::size_t c = 0; c < kCounters; ++c) {
        st.cells[c] = &mach.metrics().cell(kCounterNames[c]);
      }
    }
    // Registered in the Machine constructor, before any application
    // handler: the deaggregator travels as an ordinary Converse handler
    // id, nothing below the machine layer knows batches exist.
    handler_ = mach.register_handler(
        [this](cvs::Pe& pe, cvs::Message* m) { deaggregate(pe, m); });
  }

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  cvs::HandlerId deagg_handler() const noexcept { return handler_; }

  /// Hot-path hook from Pe::send_message, remote destinations only.
  /// Returns true when the message was absorbed into a batch (ownership
  /// taken, original freed); false sends it the direct way.
  bool offer(cvs::Pe& pe, cvs::PeRank dst, cvs::Message* m) {
    cvs::MsgHeader& h = m->header();
    if (h.handler == handler_) return false;  // batches never re-batch
    PeState& st = state_[pe.rank()];
    if (h.payload_bytes > cfg_.max_msg_bytes) {
      st.count(kBypassOversize);
      return false;
    }
    const std::size_t dp = mach_.process_of(dst);
    Buffer& b = st.by_proc[dp];
    if (mach_.ft_armed()) {
      const auto cur = static_cast<std::uint16_t>(mach_.msg_epoch());
      if (!b.w.empty() && b.epoch != cur) discard_stale(st, b);
      b.epoch = cur;
    }
    if (!b.w.fits(h.payload_bytes, limit_bytes_)) {
      flush(pe, st, dp, b, Why::kBytes);
    }
    if (b.w.empty()) {
      b.born_ns = now_ns();
      b.uniform_dst = dst;
    } else if (b.uniform_dst != dst) {
      b.uniform_dst = kMixedDst;
    }
    b.w.append(h, m->payload());
    pe.free_message(m);
    ++st.staged;
    st.count(kAppends);
    if (b.w.count() >= cfg_.batch_msgs) {
      flush(pe, st, dp, b, Why::kCount);
    } else if (b.w.bytes() >= limit_bytes_) {
      flush(pe, st, dp, b, Why::kBytes);
    }
    return true;
  }

  /// Idle-path tick from the scheduler loop (and the FT quiescence
  /// wait): flush buffers older than the timeout.  Returns true when
  /// anything flushed — the scheduler treats that as progress.
  bool tick(cvs::Pe& pe) {
    PeState& st = state_[pe.rank()];
    if (st.staged == 0) return false;
    const std::uint64_t now = now_ns();
    bool any = false;
    for (std::size_t dp = 0; dp < st.by_proc.size(); ++dp) {
      Buffer& b = st.by_proc[dp];
      if (b.w.empty() || now - b.born_ns < cfg_.flush_ns) continue;
      flush(pe, st, dp, b, Why::kTimeout);
      any = true;
    }
    return any;
  }

  /// Flush everything this PE has staged (worker_barrier, quiescence,
  /// shutdown): after drain returns, no message is parked in a buffer.
  bool drain(cvs::Pe& pe) {
    PeState& st = state_[pe.rank()];
    if (st.staged == 0) return false;
    for (std::size_t dp = 0; dp < st.by_proc.size(); ++dp) {
      Buffer& b = st.by_proc[dp];
      if (!b.w.empty()) flush(pe, st, dp, b, Why::kBarrier);
    }
    return true;
  }

  /// Records currently staged by `pe` (tests / quiescence probes).
  unsigned staged(cvs::PeRank pe) const noexcept {
    return state_[pe].staged;
  }

 private:
  enum class Why { kBytes, kCount, kTimeout, kBarrier };

  /// Indices into kCounterNames and PeState::cells.
  enum Counter : std::size_t {
    kAppends, kBatches, kBatchedMsgs, kDeaggMsgs, kFlushBytes, kFlushCount,
    kFlushTimeout, kFlushBarrier, kBypassOversize, kStaleDiscards, kCounters
  };
  static_assert(kCounters == std::size(kCounterNames));

  static constexpr cvs::PeRank kMixedDst = ~cvs::PeRank{0};

  struct Buffer {
    BatchWriter w;
    std::uint64_t born_ns = 0;  ///< first-append time (timeout base)
    std::uint16_t epoch = 0;    ///< checkpoint epoch of the staged records
    cvs::PeRank uniform_dst = kMixedDst;  ///< sole dst PE, or mixed
  };
  /// Per-PE staging state, padded apart: each PE thread touches only its
  /// own slot, and the padding keeps neighbors off its cache line.
  struct alignas(64) PeState {
    std::vector<Buffer> by_proc;  ///< indexed by destination process
    unsigned staged = 0;          ///< records across all buffers
    /// This PE's tram.* cells, written only by its thread.
    trace::Cell* cells[kCounters] = {};

    void count(Counter c, std::uint64_t n = 1) noexcept {
      cells[c]->owner_add(n);
    }
  };

  void flush(cvs::Pe& pe, PeState& st, std::size_t dst_proc, Buffer& b,
             Why why) {
    if (b.w.empty()) return;
    if (mach_.ft_armed() &&
        b.epoch != static_cast<std::uint16_t>(mach_.msg_epoch())) {
      discard_stale(st, b);
      return;
    }
    trace::EventRing* ring = pe.trace_ring();
    const auto arg = static_cast<std::uint32_t>(dst_proc);
    if (ring != nullptr) {
      ring->emit({now_ns(), arg, trace::EventKind::kTramFlushBegin});
    }
    const unsigned n = b.w.count();
    cvs::Message* batch = pe.alloc_message(b.w.bytes(), handler_);
    std::memcpy(batch->payload(), b.w.data(), b.w.bytes());
    b.w.clear();
    st.staged -= n;
    st.count(kBatches);
    st.count(kBatchedMsgs, n);
    switch (why) {
      case Why::kBytes: st.count(kFlushBytes); break;
      case Why::kCount: st.count(kFlushCount); break;
      case Why::kTimeout: st.count(kFlushTimeout); break;
      case Why::kBarrier: st.count(kFlushBarrier); break;
    }
    // A batch whose records all target one PE goes straight to it — the
    // deaggregator then executes every record inline, no re-enqueue.
    // Mixed batches land on one representative PE per destination
    // process; spreading senders over the destination's workers keeps
    // deagg work balanced the way §III-C spreads comm-thread traffic.
    const unsigned wpp = mach_.config().effective_workers_per_process();
    const cvs::PeRank target =
        b.uniform_dst != kMixedDst
            ? b.uniform_dst
            : static_cast<cvs::PeRank>(dst_proc * wpp + (pe.rank() % wpp));
    b.uniform_dst = kMixedDst;
    pe.send_message(target, batch);
    if (ring != nullptr) {
      ring->emit({now_ns(), arg, trace::EventKind::kTramFlushEnd});
    }
  }

  void discard_stale(PeState& st, Buffer& b) {
    st.count(kStaleDiscards, b.w.count());
    st.staged -= b.w.count();
    b.w.clear();
  }

  /// Receive side: re-materialize each record and hand it to the normal
  /// process-local delivery path (inline execute in non-SMP, the PE
  /// queue otherwise) — per-record epoch checks, handler dispatch, and
  /// FT accounting all happen exactly as for a lone message.
  void deaggregate(cvs::Pe& pe, cvs::Message* batch) {
    cvs::Process& proc = pe.process();
    alloc::IAllocator& alloc = proc.allocator();
    const alloc::ThreadId tid = cvs::Process::current_tid();
    const cvs::PeRank self = pe.rank();
    // Untraced runs take the streaming fast path for own-PE records:
    // invoke the handler directly and time the whole unpack loop once,
    // instead of paying execute()'s per-record clock reads.  Epoch
    // checks, quiescence accounting and msgs.executed stay per-record
    // exact; only busy-time attribution coarsens to batch granularity.
    // Traced runs keep execute() so every handler span is emitted.
    const bool fast = pe.trace_ring() == nullptr;
    const bool ft = mach_.ft_armed();
    const auto epoch =
        static_cast<std::uint16_t>(ft ? mach_.msg_epoch() : 0);
    std::size_t inline_n = 0;
    const std::uint64_t t0 = now_ns();
    const std::size_t n = for_each_record(
        batch->payload(), batch->payload_bytes(),
        [&](const cvs::MsgHeader& h, const std::byte* payload) {
          if (mach_.process_of(h.dst_pe) != proc.endpoint()) {
            // A record for a PE this process doesn't own can only mean
            // corruption the checksums missed; dropping it beats
            // indexing out of the PE table.
            return;
          }
          const std::size_t total = sizeof(cvs::MsgHeader) + h.payload_bytes;
          auto* m = cvs::Message::from_raw(alloc.allocate(tid, total));
          // Header and payload are contiguous in the record: one copy.
          std::memcpy(m->raw(), payload - sizeof(cvs::MsgHeader), total);
          if (h.dst_pe != self) {
            proc.deliver(m);
            return;
          }
          // The record is already on its PE's thread: run it now instead
          // of bouncing through the MPSC queue.
          if (!fast) {
            pe.execute(m);
            return;
          }
          if (ft && h.epoch != epoch) {
            mach_.note_stale_drop();
            pe.free_message(m);
            return;
          }
          mach_.handler(h.handler)(pe, m);
          if (ft) mach_.note_executed();
          ++inline_n;
        });
    if (inline_n != 0) {
      pe.busy_ns_.owner_add(now_ns() - t0);
      pe.msgs_executed_.owner_add(inline_n);
    }
    state_[self].count(kDeaggMsgs, n);
    pe.free_message(batch);
  }

  cvs::Machine& mach_;
  const Config cfg_;
  const std::size_t limit_bytes_;  ///< batch_bytes clamped to eager_max
  cvs::HandlerId handler_ = 0;
  std::vector<PeState> state_;  ///< indexed by source PE rank
};

}  // namespace bgq::tram
