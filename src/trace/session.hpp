// A trace session: the set of per-thread event rings for one run, plus
// the thread-local binding the instrumentation macros emit through.
//
// Tracks are identified Chrome-style: `pid` (an OS-process stand-in — we
// use the simulated Charm++ process / endpoint id) and `tid` (the worker
// PE's local index, or workers+i for comm thread i).  The Machine owns
// one Session per run; benches and the DES engine build their own.
//
// Thread-safety: make_ring() takes a mutex (setup path); emit goes
// straight to the caller's SPSC ring; collect() may run concurrently with
// emitters — each ring's drain is its single consumer side.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timing.hpp"
#include "trace/ring.hpp"

namespace bgq::trace {

/// One flushed track: identity plus every event drained so far, in
/// emission order, with the drop count at the time of the last collect.
struct Track {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t dropped = 0;
  std::uint64_t high_water = 0;  ///< peak ring occupancy at last collect
  std::vector<Event> events;
};

/// A closed span reconstructed from a begin/end pair.
struct Span {
  std::uint64_t t0, t1;
  std::uint32_t arg;
  EventKind begin_kind;
  std::uint64_t duration_ns() const noexcept { return t1 - t0; }
};

/// Reconstruct the spans of one track opened by `begin` (matched with
/// `end_of(begin)`), in completion order.  Nested pairs of the same kind
/// match innermost-first; unmatched begins/ends are ignored.
inline std::vector<Span> extract_spans(const Track& track, EventKind begin) {
  std::vector<Span> out;
  std::vector<Event> open;
  const EventKind end = end_of(begin);
  for (const Event& e : track.events) {
    if (e.kind == begin) {
      open.push_back(e);
    } else if (e.kind == end && !open.empty()) {
      out.push_back({open.back().t_ns, e.t_ns, open.back().arg, begin});
      open.pop_back();
    }
  }
  return out;
}

/// All tracks of a session, in ring-creation order.
struct FlatTrace {
  std::vector<Track> tracks;

  std::size_t total_events() const noexcept {
    std::size_t n = 0;
    for (const auto& t : tracks) n += t.events.size();
    return n;
  }
  std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : tracks) n += t.dropped;
    return n;
  }
};

class Session {
 public:
  /// A disabled session hands out null rings — every emit site already
  /// null-checks, so a disabled session is a handful of branches total.
  explicit Session(bool enabled = true, std::size_t ring_capacity = 1 << 14)
      : enabled_(enabled), ring_capacity_(ring_capacity) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Create (and own) a ring for one track; nullptr when disabled.
  EventRing* make_ring(std::uint32_t pid, std::uint32_t tid,
                       std::string name) {
    if (!enabled_) return nullptr;
    std::lock_guard<std::mutex> g(mu_);
    slots_.push_back(
        std::make_unique<Slot>(pid, tid, std::move(name), ring_capacity_));
    return &slots_.back()->ring;
  }

  /// Drain every ring into the session's accumulated trace and return it.
  /// Per ring, events accumulate in FIFO emission order across collects.
  /// Safe to call while emitters are live (they may keep appending; what
  /// was published before the drain is captured).
  const FlatTrace& collect() {
    std::lock_guard<std::mutex> g(mu_);
    flat_.tracks.resize(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Track& t = flat_.tracks[i];
      t.pid = slots_[i]->pid;
      t.tid = slots_[i]->tid;
      t.name = slots_[i]->name;
      slots_[i]->ring.drain(t.events);
      t.dropped = slots_[i]->ring.dropped();
      t.high_water = slots_[i]->ring.high_water();
    }
    return flat_;
  }

  /// Per-ring loss/occupancy accounting without draining any events —
  /// metrics_report() surfaces these so a truncated trace is visible
  /// instead of silently biased.
  struct RingStat {
    std::string name;
    std::uint64_t dropped = 0;
    std::uint64_t high_water = 0;
    std::size_t capacity = 0;
  };
  std::vector<RingStat> ring_stats() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<RingStat> out;
    out.reserve(slots_.size());
    for (const auto& s : slots_) {
      out.push_back({s->name, s->ring.dropped(), s->ring.high_water(),
                     s->ring.capacity()});
    }
    return out;
  }

  /// The trace accumulated by previous collect() calls.
  const FlatTrace& flat() const noexcept { return flat_; }

  // ---- thread binding -----------------------------------------------------
  // emit_here() routes through the calling thread's bound ring; an
  // unbound (or disabled) thread costs one thread-local load and a branch.

  static EventRing* thread_ring() noexcept { return tls_ring_; }
  static void bind_thread(EventRing* r) noexcept { tls_ring_ = r; }

  /// Convenience: create a ring and bind it to the calling thread.
  EventRing* adopt_thread(std::uint32_t pid, std::uint32_t tid,
                          std::string name) {
    EventRing* r = make_ring(pid, tid, std::move(name));
    bind_thread(r);
    return r;
  }

 private:
  struct Slot {
    Slot(std::uint32_t p, std::uint32_t t, std::string n, std::size_t cap)
        : pid(p), tid(t), name(std::move(n)), ring(cap) {}
    std::uint32_t pid;
    std::uint32_t tid;
    std::string name;
    EventRing ring;
  };

  const bool enabled_;
  const std::size_t ring_capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  FlatTrace flat_;

  static thread_local EventRing* tls_ring_;
};

inline thread_local EventRing* Session::tls_ring_ = nullptr;

/// Emit into the calling thread's bound ring, stamping host time — taken
/// lazily so an unbound thread pays no clock read.  Message-lifecycle
/// hops pass the message's causal id.
inline void emit_here(EventKind kind, std::uint32_t arg,
                      std::uint64_t cid = 0) noexcept {
  if (EventRing* r = Session::thread_ring()) {
    r->emit({now_ns(), arg, kind, cid});
  }
}

}  // namespace bgq::trace
