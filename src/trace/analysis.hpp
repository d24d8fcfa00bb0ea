// Post-mortem analysis over a collected (or re-read) flat trace — the
// Projections-style half of the tracing subsystem.  Everything here is
// pure computation on a FlatTrace; the online side (rings and the
// causal-id stamps) lives in session.hpp and the machine layer.
//
// Four products, mirroring how the paper argues its optimizations:
//   * per-message latency decomposition — each causal-id lifecycle is
//     reassembled across tracks and split into named hop segments
//     (injection / network / reception / dispatch / queueing / sched /
//     handler) whose deltas telescope to exactly the end-to-end latency;
//   * Projections-style time profile — work/idle/overhead fractions per
//     track per time bin (the NAMD time-profile figure's shape), plus
//     per-phase coverage for application phase spans;
//   * critical-path extraction over the causal send→dispatch DAG — the
//     predecessor of a message is the handler execution that sent it;
//   * load-imbalance summary over per-worker busy time.
//
// Retransmit/backpressure detours (PR 3) are counted per lifecycle but
// deliberately kept out of the segment math: segments use each hop's
// *first* occurrence, so a duplicated network traversal shows up as
// `retransmits`/extra occurrence counts, never as a corrupted latency.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"
#include "trace/histogram.hpp"
#include "trace/json.hpp"
#include "trace/session.hpp"

namespace bgq::trace {

// ---------------------------------------------------------------------------
// Lifecycles
// ---------------------------------------------------------------------------

/// Canonical hop order of one message's journey.  A lifecycle may skip
/// hops (intra-process sends have no net hops; non-SMP dispatch runs the
/// handler inline with no queue pass) — segments are taken between
/// consecutive *present* hops, which keeps the telescoping-sum property.
enum Hop : unsigned {
  kHopSend = 0,
  kHopInject,
  kHopDeliver,
  kHopRecv,
  kHopEnqueue,
  kHopDequeue,
  kHopHandlerBegin,
  kHopHandlerEnd,
  kHopCount,
};

/// Segment names, indexed by the hop that *closes* the segment (Hop - 1):
/// the gap ending at kHopInject is "injection", at kHopDeliver "network",
/// and so on.
inline constexpr const char* kSegmentNames[kHopCount - 1] = {
    "injection",  // send    -> inject
    "network",    // inject  -> deliver
    "reception",  // deliver -> recv
    "dispatch",   // recv    -> enqueue
    "queueing",   // enqueue -> dequeue
    "sched",      // dequeue -> handler begin
    "handler",    // handler begin -> end
};

/// One message's reassembled journey.  Hop timestamps are the *first*
/// occurrence (earliest emit) of the hop's event kind for this cid; zero
/// means the hop never happened.
struct Lifecycle {
  std::uint64_t cid = 0;
  std::uint32_t origin_pe = 0;  ///< decoded from the cid's high half
  std::uint32_t send_arg = 0;   ///< destination PE (kMsgSend's arg)
  int send_track = -1;          ///< track index the send was emitted on
  std::uint64_t hops[kHopCount] = {};
  // Detour accounting (multiple occurrences beyond the first).
  std::uint32_t injects = 0;
  std::uint32_t delivers = 0;
  std::uint32_t retransmits = 0;
  std::uint32_t backlogs = 0;

  bool complete() const noexcept {
    return hops[kHopSend] != 0 && hops[kHopHandlerEnd] != 0;
  }
  std::uint64_t t_send() const noexcept { return hops[kHopSend]; }
  std::uint64_t t_done() const noexcept { return hops[kHopHandlerEnd]; }
};

/// Latency decomposition over every complete lifecycle.  `seg_sum_ns`
/// keeps exact signed sums (per-message deltas can't be negative on a
/// correct trace, but exactness is what the hop-sum check verifies), and
/// the histograms give the percentile view.
struct Decomposition {
  Histogram segments[kHopCount - 1];
  std::int64_t seg_sum_ns[kHopCount - 1] = {};
  Histogram end_to_end;
  std::int64_t end_to_end_sum_ns = 0;
  std::uint64_t messages = 0;       ///< complete lifecycles folded in
  std::uint64_t incomplete = 0;     ///< cids missing send or handler end
  std::uint64_t retransmitted = 0;  ///< lifecycles with >=1 retransmit
  std::uint64_t backlogged = 0;     ///< lifecycles that hit backpressure

  std::int64_t hop_sum_ns() const noexcept {
    std::int64_t s = 0;
    for (const std::int64_t v : seg_sum_ns) s += v;
    return s;
  }
};

/// Work/idle/overhead time profile: per track, `bins` equal slices of
/// [t0_ns, t1_ns), each holding the fraction of the slice spent in
/// handler/task spans (work), idle/park spans (idle), and neither
/// (overhead).  Phase spans additionally accumulate into per-phase-arg
/// machine-wide coverage (the mini-NAMD cutoff/PME profile).
struct TimeProfile {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  unsigned bins = 0;
  struct TrackProfile {
    std::string name;
    std::vector<double> work;      // fraction of bin, [0,1]
    std::vector<double> idle;      // fraction of bin, [0,1]
    std::vector<double> overhead;  // 1 - work - idle
  };
  std::vector<TrackProfile> tracks;
  /// Per phase-arg: mean number of tracks inside that phase per bin
  /// (machine-wide; > 1 when several PEs run the phase concurrently).
  std::map<std::uint32_t, std::vector<double>> phases;
  /// Per phase-arg: span count and total in-window time across tracks —
  /// what a "mean phase duration" or "phase share of busy time" needs
  /// without re-walking the trace.
  struct PhaseStat {
    std::uint64_t spans = 0;
    std::uint64_t total_ns = 0;
  };
  std::map<std::uint32_t, PhaseStat> phase_stats;
};

/// Critical path over the causal DAG: predecessor of message m is the
/// message whose handler execution emitted m's send.  The path backtracks
/// from the latest-finishing lifecycle to a root send (one with no
/// containing handler), in causal order root-first.
struct CriticalPath {
  struct Step {
    std::uint64_t cid = 0;
    std::uint32_t origin_pe = 0;
    std::uint32_t send_arg = 0;
    std::uint64_t t_send = 0;
    std::uint64_t t_done = 0;
  };
  std::vector<Step> steps;
  std::uint64_t span_ns = 0;  ///< t_done(last) - t_send(first)
};

/// Busy-time load balance across worker tracks (tracks that executed at
/// least one handler).
struct LoadImbalance {
  struct TrackLoad {
    std::string name;
    std::uint64_t busy_ns = 0;
    std::uint64_t handlers = 0;
  };
  std::vector<TrackLoad> tracks;
  std::uint64_t max_busy_ns = 0;
  std::uint64_t min_busy_ns = 0;
  double mean_busy_ns = 0;
  double stddev_busy_ns = 0;
  /// max/mean — 1.0 is perfectly balanced; the Projections metric.
  double imbalance = 0;
};

struct Analysis {
  std::vector<Lifecycle> lifecycles;  // sorted by t_send
  Decomposition decomp;
  TimeProfile profile;
  CriticalPath critical;
  LoadImbalance imbalance;
  std::uint64_t total_events = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t span_events = 0;  ///< begin/end events seen
};

namespace detail {

/// A closed handler span on one track, for predecessor lookup.
struct HandlerSpan {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t cid = 0;
};

inline void take_first(std::uint64_t& slot, std::uint64_t t) noexcept {
  if (slot == 0 || t < slot) slot = t;
}

/// Accumulate [a,b) into `bins` ns-weighted (caller divides by bin width).
inline void accumulate(std::vector<double>& bins, std::uint64_t t0,
                       double inv_width, std::uint64_t a,
                       std::uint64_t b) noexcept {
  if (b <= a || bins.empty()) return;
  const double fa = static_cast<double>(a - t0) * inv_width;
  const double fb = static_cast<double>(b - t0) * inv_width;
  const auto nbins = bins.size();
  auto lo = static_cast<std::size_t>(std::max(0.0, fa));
  auto hi = static_cast<std::size_t>(std::max(0.0, fb));
  if (lo >= nbins) return;
  if (hi >= nbins) hi = nbins - 1;
  if (lo == hi) {
    bins[lo] += fb - fa;
    return;
  }
  bins[lo] += static_cast<double>(lo + 1) - fa;
  for (std::size_t i = lo + 1; i < hi; ++i) bins[i] += 1.0;
  bins[hi] += fb - static_cast<double>(hi);
}

}  // namespace detail

/// Run the whole analysis.  `profile_bins` sets the time-profile
/// resolution (64 matches the paper's NAMD figures).  A non-empty
/// [window_t0, window_t1) restricts the *time profile* (bins and phase
/// stats) to that measurement window — e.g. to cut warmup steps — while
/// lifecycles, critical path, and load balance still cover the whole
/// trace.
inline Analysis analyze(const FlatTrace& flat, unsigned profile_bins = 64,
                        std::uint64_t window_t0 = 0,
                        std::uint64_t window_t1 = 0) {
  Analysis out;
  out.total_events = flat.total_events();
  out.total_dropped = flat.total_dropped();

  // ---- pass 1: lifecycles, handler spans, trace extent ------------------
  std::unordered_map<std::uint64_t, Lifecycle> life;
  std::vector<std::vector<detail::HandlerSpan>> spans(flat.tracks.size());
  std::uint64_t t_min = UINT64_MAX, t_max = 0;

  for (std::size_t ti = 0; ti < flat.tracks.size(); ++ti) {
    const Track& tr = flat.tracks[ti];
    // Per-track stack of open handler spans (events are emit-ordered).
    std::vector<detail::HandlerSpan> open;
    for (const Event& e : tr.events) {
      t_min = std::min(t_min, e.t_ns);
      t_max = std::max(t_max, e.t_ns);
      if (is_begin(e.kind) || is_end(e.kind)) ++out.span_events;
      if (e.kind == EventKind::kHandlerBegin) {
        open.push_back({e.t_ns, 0, e.cid});
      } else if (e.kind == EventKind::kHandlerEnd) {
        if (!open.empty()) {
          detail::HandlerSpan s = open.back();
          open.pop_back();
          s.t1 = e.t_ns;
          spans[ti].push_back(s);
        }
      }
      if (e.cid == 0) continue;
      Lifecycle& lc = life[e.cid];
      lc.cid = e.cid;
      lc.origin_pe = static_cast<std::uint32_t>((e.cid >> 32) - 1);
      switch (e.kind) {
        case EventKind::kMsgSend:
          if (lc.hops[kHopSend] == 0 || e.t_ns < lc.hops[kHopSend]) {
            lc.send_arg = e.arg;
            lc.send_track = static_cast<int>(ti);
          }
          detail::take_first(lc.hops[kHopSend], e.t_ns);
          break;
        case EventKind::kNetInject:
          detail::take_first(lc.hops[kHopInject], e.t_ns);
          ++lc.injects;
          break;
        case EventKind::kNetDeliver:
          detail::take_first(lc.hops[kHopDeliver], e.t_ns);
          ++lc.delivers;
          break;
        case EventKind::kNetRetransmit: ++lc.retransmits; break;
        case EventKind::kNetBacklog: ++lc.backlogs; break;
        case EventKind::kMsgRecv:
          detail::take_first(lc.hops[kHopRecv], e.t_ns);
          break;
        case EventKind::kMsgEnqueue:
          detail::take_first(lc.hops[kHopEnqueue], e.t_ns);
          break;
        case EventKind::kMsgDequeue:
          detail::take_first(lc.hops[kHopDequeue], e.t_ns);
          break;
        case EventKind::kHandlerBegin:
          detail::take_first(lc.hops[kHopHandlerBegin], e.t_ns);
          break;
        case EventKind::kHandlerEnd:
          detail::take_first(lc.hops[kHopHandlerEnd], e.t_ns);
          break;
        default: break;
      }
    }
  }
  for (auto& per_track : spans) {
    std::sort(per_track.begin(), per_track.end(),
              [](const detail::HandlerSpan& a, const detail::HandlerSpan& b) {
                return a.t0 < b.t0;
              });
  }

  out.lifecycles.reserve(life.size());
  for (auto& [cid, lc] : life) out.lifecycles.push_back(lc);
  std::sort(out.lifecycles.begin(), out.lifecycles.end(),
            [](const Lifecycle& a, const Lifecycle& b) {
              return a.t_send() != b.t_send() ? a.t_send() < b.t_send()
                                              : a.cid < b.cid;
            });

  // ---- decomposition ----------------------------------------------------
  Decomposition& d = out.decomp;
  for (const Lifecycle& lc : out.lifecycles) {
    if (!lc.complete()) {
      ++d.incomplete;
      continue;
    }
    ++d.messages;
    if (lc.retransmits != 0) ++d.retransmitted;
    if (lc.backlogs != 0) ++d.backlogged;
    std::uint64_t prev = lc.hops[kHopSend];
    for (unsigned h = kHopInject; h < kHopCount; ++h) {
      const std::uint64_t t = lc.hops[h];
      if (t == 0) continue;  // hop absent: gap folds into the next segment
      const std::int64_t delta =
          static_cast<std::int64_t>(t) - static_cast<std::int64_t>(prev);
      d.seg_sum_ns[h - 1] += delta;
      d.segments[h - 1].record(delta > 0 ? static_cast<std::uint64_t>(delta)
                                         : 0);
      prev = t;
    }
    const std::int64_t e2e =
        static_cast<std::int64_t>(lc.t_done()) -
        static_cast<std::int64_t>(lc.t_send());
    d.end_to_end_sum_ns += e2e;
    d.end_to_end.record(e2e > 0 ? static_cast<std::uint64_t>(e2e) : 0);
  }

  // ---- time profile -----------------------------------------------------
  TimeProfile& tp = out.profile;
  if (t_min == UINT64_MAX) t_min = t_max = 0;
  if (window_t1 > window_t0) {
    tp.t0_ns = window_t0;
    tp.t1_ns = window_t1;
  } else {
    tp.t0_ns = t_min;
    tp.t1_ns = std::max(t_max, t_min + 1);
  }
  tp.bins = profile_bins == 0 ? 1 : profile_bins;
  const double inv_width =
      static_cast<double>(tp.bins) / static_cast<double>(tp.t1_ns - tp.t0_ns);
  // Clamp every span to the profiled window before binning (spans can
  // straddle the window when one was requested).
  const auto acc = [&](std::vector<double>& bins, std::uint64_t a,
                       std::uint64_t b) {
    a = std::max(a, tp.t0_ns);
    b = std::min(b, tp.t1_ns);
    detail::accumulate(bins, tp.t0_ns, inv_width, a, b);
  };
  for (const Track& tr : flat.tracks) {
    TimeProfile::TrackProfile prof;
    prof.name = tr.name;
    prof.work.assign(tp.bins, 0.0);
    prof.idle.assign(tp.bins, 0.0);
    prof.overhead.assign(tp.bins, 0.0);
    // Depth-counted union of work spans and of idle spans; phase spans
    // feed the machine-wide phase coverage as well as this track's work.
    unsigned work_depth = 0, idle_depth = 0;
    std::uint64_t work_open = 0, idle_open = 0;
    std::unordered_map<std::uint32_t, std::uint64_t> phase_open;
    bool any = false;
    std::uint64_t last_t = 0;
    for (const Event& e : tr.events) {
      any = true;
      last_t = e.t_ns;
      switch (e.kind) {
        case EventKind::kHandlerBegin:
        case EventKind::kTaskBegin:
        case EventKind::kPhaseBegin:
          if (work_depth++ == 0) work_open = e.t_ns;
          if (e.kind == EventKind::kPhaseBegin) phase_open[e.arg] = e.t_ns;
          break;
        case EventKind::kHandlerEnd:
        case EventKind::kTaskEnd:
        case EventKind::kPhaseEnd:
          if (work_depth != 0 && --work_depth == 0) {
            acc(prof.work, work_open, e.t_ns);
          }
          if (e.kind == EventKind::kPhaseEnd) {
            auto it = phase_open.find(e.arg);
            if (it != phase_open.end()) {
              auto& bins = tp.phases[e.arg];
              if (bins.empty()) bins.assign(tp.bins, 0.0);
              acc(bins, it->second, e.t_ns);
              const std::uint64_t a = std::max(it->second, tp.t0_ns);
              const std::uint64_t b = std::min(e.t_ns, tp.t1_ns);
              if (b > a) {
                auto& ps = tp.phase_stats[e.arg];
                ++ps.spans;
                ps.total_ns += b - a;
              }
              phase_open.erase(it);
            }
          }
          break;
        case EventKind::kIdleBegin:
        case EventKind::kParkBegin:
          if (idle_depth++ == 0) idle_open = e.t_ns;
          break;
        case EventKind::kIdleEnd:
        case EventKind::kParkEnd:
          if (idle_depth != 0 && --idle_depth == 0) {
            acc(prof.idle, idle_open, e.t_ns);
          }
          break;
        default: break;
      }
    }
    // Close truncated spans at the track's last timestamp.
    if (work_depth != 0) acc(prof.work, work_open, last_t);
    if (idle_depth != 0) acc(prof.idle, idle_open, last_t);
    if (!any) continue;
    for (unsigned b = 0; b < tp.bins; ++b) {
      prof.work[b] = std::min(prof.work[b], 1.0);
      prof.idle[b] = std::min(prof.idle[b], 1.0 - prof.work[b]);
      prof.overhead[b] = 1.0 - prof.work[b] - prof.idle[b];
    }
    tp.tracks.push_back(std::move(prof));
  }

  // ---- critical path ----------------------------------------------------
  // Backtrack from the latest-finishing lifecycle: the predecessor is the
  // innermost handler span containing the send on the sending track; that
  // span's cid names the message whose processing produced this one.
  {
    const Lifecycle* cur = nullptr;
    for (const Lifecycle& lc : out.lifecycles) {
      if (lc.complete() && (cur == nullptr || lc.t_done() > cur->t_done())) {
        cur = &lc;
      }
    }
    std::vector<CriticalPath::Step> rev;
    std::unordered_map<std::uint64_t, bool> visited;
    while (cur != nullptr && !visited[cur->cid]) {
      visited[cur->cid] = true;
      rev.push_back({cur->cid, cur->origin_pe, cur->send_arg, cur->t_send(),
                     cur->t_done()});
      const Lifecycle* pred = nullptr;
      if (cur->send_track >= 0 &&
          static_cast<std::size_t>(cur->send_track) < spans.size()) {
        const auto& ts = spans[cur->send_track];
        const std::uint64_t t = cur->t_send();
        // Innermost containing span = latest t0 among spans with
        // t0 <= t < t1; scanning back from the first t0 > t finds it
        // first.
        auto it = std::upper_bound(
            ts.begin(), ts.end(), t,
            [](std::uint64_t v, const detail::HandlerSpan& s) {
              return v < s.t0;
            });
        while (it != ts.begin()) {
          --it;
          if (it->t1 > t) {
            if (it->cid != 0) {
              auto lit = life.find(it->cid);
              if (lit != life.end() && lit->second.cid != cur->cid) {
                pred = &lit->second;
              }
            }
            break;
          }
        }
      }
      cur = pred;
    }
    CriticalPath& cp = out.critical;
    cp.steps.assign(rev.rbegin(), rev.rend());
    if (!cp.steps.empty()) {
      cp.span_ns = cp.steps.back().t_done - cp.steps.front().t_send;
    }
  }

  // ---- load imbalance ---------------------------------------------------
  {
    LoadImbalance& li = out.imbalance;
    for (std::size_t ti = 0; ti < flat.tracks.size(); ++ti) {
      if (spans[ti].empty()) continue;  // no handler ran: not a worker
      LoadImbalance::TrackLoad tl;
      tl.name = flat.tracks[ti].name;
      for (const detail::HandlerSpan& s : spans[ti]) {
        tl.busy_ns += s.t1 - s.t0;
        ++tl.handlers;
      }
      li.tracks.push_back(std::move(tl));
    }
    if (!li.tracks.empty()) {
      double sum = 0, sq = 0;
      li.min_busy_ns = UINT64_MAX;
      for (const auto& tl : li.tracks) {
        li.max_busy_ns = std::max(li.max_busy_ns, tl.busy_ns);
        li.min_busy_ns = std::min(li.min_busy_ns, tl.busy_ns);
        sum += static_cast<double>(tl.busy_ns);
      }
      li.mean_busy_ns = sum / static_cast<double>(li.tracks.size());
      for (const auto& tl : li.tracks) {
        const double d = static_cast<double>(tl.busy_ns) - li.mean_busy_ns;
        sq += d * d;
      }
      li.stddev_busy_ns =
          std::sqrt(sq / static_cast<double>(li.tracks.size()));
      li.imbalance = li.mean_busy_ns > 0
                         ? static_cast<double>(li.max_busy_ns) /
                               li.mean_busy_ns
                         : 0.0;
    } else {
      li.min_busy_ns = 0;
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

namespace detail {

inline void write_hist(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum_ns", h.sum());
  w.kv("min_ns", h.min());
  w.kv("max_ns", h.max());
  w.kv("mean_ns", h.mean());
  w.kv("p50_ns", h.percentile(0.50));
  w.kv("p90_ns", h.percentile(0.90));
  w.kv("p99_ns", h.percentile(0.99));
  w.end_object();
}

}  // namespace detail

/// Emit the `bgq-prof-v1` JSON document.
inline void write_prof_json(std::ostream& os, const Analysis& a) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "bgq-prof-v1");
  w.kv("events", a.total_events);
  w.kv("dropped", a.total_dropped);
  w.kv("span_events", a.span_events);

  w.key("messages");
  w.begin_object();
  w.kv("traced", static_cast<std::uint64_t>(a.lifecycles.size()));
  w.kv("complete", a.decomp.messages);
  w.kv("incomplete", a.decomp.incomplete);
  w.kv("retransmitted", a.decomp.retransmitted);
  w.kv("backlogged", a.decomp.backlogged);
  w.end_object();

  w.key("decomposition");
  w.begin_object();
  w.key("end_to_end");
  detail::write_hist(w, a.decomp.end_to_end);
  w.kv("end_to_end_sum_ns", a.decomp.end_to_end_sum_ns);
  w.kv("hop_sum_ns", a.decomp.hop_sum_ns());
  w.key("segments");
  w.begin_object();
  for (unsigned s = 0; s < kHopCount - 1; ++s) {
    if (a.decomp.segments[s].count() == 0) continue;
    w.key(kSegmentNames[s]);
    detail::write_hist(w, a.decomp.segments[s]);
  }
  w.end_object();
  w.end_object();

  w.key("time_profile");
  w.begin_object();
  w.kv("t0_ns", a.profile.t0_ns);
  w.kv("span_ns", a.profile.t1_ns - a.profile.t0_ns);
  w.kv("bins", a.profile.bins);
  w.key("tracks");
  w.begin_array();
  for (const auto& tr : a.profile.tracks) {
    w.begin_object();
    w.kv("name", std::string_view(tr.name));
    w.key("work");
    w.begin_array();
    for (const double v : tr.work) w.value(v);
    w.end_array();
    w.key("idle");
    w.begin_array();
    for (const double v : tr.idle) w.value(v);
    w.end_array();
    w.key("overhead");
    w.begin_array();
    for (const double v : tr.overhead) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("phases");
  w.begin_array();
  for (const auto& [arg, bins] : a.profile.phases) {
    w.begin_object();
    w.kv("arg", arg);
    const auto ps = a.profile.phase_stats.find(arg);
    if (ps != a.profile.phase_stats.end()) {
      w.kv("spans", ps->second.spans);
      w.kv("total_ns", ps->second.total_ns);
    }
    w.key("coverage");
    w.begin_array();
    for (const double v : bins) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("critical_path");
  w.begin_object();
  w.kv("span_ns", a.critical.span_ns);
  w.kv("length", static_cast<std::uint64_t>(a.critical.steps.size()));
  w.key("steps");
  w.begin_array();
  for (const auto& s : a.critical.steps) {
    w.begin_object();
    w.kv("cid", s.cid);
    w.kv("origin_pe", s.origin_pe);
    w.kv("dst_pe", s.send_arg);
    w.kv("t_send_ns", s.t_send - a.profile.t0_ns);
    w.kv("t_done_ns", s.t_done - a.profile.t0_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("load_imbalance");
  w.begin_object();
  w.kv("workers", static_cast<std::uint64_t>(a.imbalance.tracks.size()));
  w.kv("max_busy_ns", a.imbalance.max_busy_ns);
  w.kv("min_busy_ns", a.imbalance.min_busy_ns);
  w.kv("mean_busy_ns", a.imbalance.mean_busy_ns);
  w.kv("stddev_busy_ns", a.imbalance.stddev_busy_ns);
  w.kv("imbalance", a.imbalance.imbalance);
  w.key("tracks");
  w.begin_array();
  for (const auto& tl : a.imbalance.tracks) {
    w.begin_object();
    w.kv("name", std::string_view(tl.name));
    w.kv("busy_ns", tl.busy_ns);
    w.kv("handlers", tl.handlers);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  os << '\n';
}

/// Human-readable report (the text half of bgq-prof).
inline void write_prof_text(std::ostream& os, const Analysis& a) {
  auto us = [](double ns) { return ns / 1000.0; };
  os << "== bgq-prof ==\n";
  os << "events " << a.total_events << "  dropped " << a.total_dropped
     << "  traced msgs " << a.lifecycles.size() << " (complete "
     << a.decomp.messages << ", retransmitted " << a.decomp.retransmitted
     << ", backlogged " << a.decomp.backlogged << ")\n";

  os << "\n-- latency decomposition (us) --\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-10s %10s %10s %10s %10s %10s\n",
                "segment", "count", "mean", "p50", "p99", "max");
  os << buf;
  for (unsigned s = 0; s < kHopCount - 1; ++s) {
    const Histogram& h = a.decomp.segments[s];
    if (h.count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-10s %10llu %10.2f %10.2f %10.2f %10.2f\n",
                  kSegmentNames[s],
                  static_cast<unsigned long long>(h.count()), us(h.mean()),
                  us(static_cast<double>(h.percentile(0.50))),
                  us(static_cast<double>(h.percentile(0.99))),
                  us(static_cast<double>(h.max())));
    os << buf;
  }
  const Histogram& e2e = a.decomp.end_to_end;
  std::snprintf(buf, sizeof(buf),
                "%-10s %10llu %10.2f %10.2f %10.2f %10.2f\n", "end-to-end",
                static_cast<unsigned long long>(e2e.count()), us(e2e.mean()),
                us(static_cast<double>(e2e.percentile(0.50))),
                us(static_cast<double>(e2e.percentile(0.99))),
                us(static_cast<double>(e2e.max())));
  os << buf;
  if (a.decomp.end_to_end_sum_ns > 0) {
    const double cover =
        100.0 * static_cast<double>(a.decomp.hop_sum_ns()) /
        static_cast<double>(a.decomp.end_to_end_sum_ns);
    std::snprintf(buf, sizeof(buf), "hop sum covers %.2f%% of end-to-end\n",
                  cover);
    os << buf;
  }

  os << "\n-- time profile (" << a.profile.bins << " bins over "
     << (a.profile.t1_ns - a.profile.t0_ns) / 1000 << " us; #=work .=idle "
     << "~=overhead) --\n";
  for (const auto& tr : a.profile.tracks) {
    std::snprintf(buf, sizeof(buf), "%-10s ", tr.name.c_str());
    os << buf;
    for (unsigned b = 0; b < a.profile.bins; ++b) {
      const double w0 = tr.work[b], i0 = tr.idle[b];
      os << (w0 >= 0.5 ? '#' : (i0 >= 0.5 ? '.' : '~'));
    }
    os << '\n';
  }

  os << "\n-- critical path --\n";
  os << "length " << a.critical.steps.size() << "  span "
     << a.critical.span_ns / 1000 << " us\n";
  // Long chains (a ping-pong's whole history is one path) are elided in
  // the text view; the JSON report always carries every step.
  constexpr std::size_t kHeadTail = 8;
  const std::size_t n = a.critical.steps.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 2 * kHeadTail + 1 && i == kHeadTail) {
      std::snprintf(buf, sizeof(buf), "  ... %zu more steps ...\n",
                    n - 2 * kHeadTail);
      os << buf;
      i = n - kHeadTail - 1;
      continue;
    }
    const auto& s = a.critical.steps[i];
    std::snprintf(buf, sizeof(buf),
                  "  cid %llu  pe%u -> pe%u  send+%llu us  done+%llu us\n",
                  static_cast<unsigned long long>(s.cid), s.origin_pe,
                  s.send_arg,
                  static_cast<unsigned long long>(
                      (s.t_send - a.profile.t0_ns) / 1000),
                  static_cast<unsigned long long>(
                      (s.t_done - a.profile.t0_ns) / 1000));
    os << buf;
  }

  os << "\n-- load imbalance --\n";
  std::snprintf(buf, sizeof(buf),
                "workers %zu  mean %.1f us  max %.1f us  imbalance %.3f\n",
                a.imbalance.tracks.size(), us(a.imbalance.mean_busy_ns),
                us(static_cast<double>(a.imbalance.max_busy_ns)),
                a.imbalance.imbalance);
  os << buf;
}

}  // namespace bgq::trace
