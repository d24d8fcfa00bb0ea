// The flood-commthread workload: one process, kSmpCommThreads, 2 nodes x
// (1 worker + 1 comm thread).  PE 0 streams 32 B messages to the far PE in
// a closed loop bounded by a credit window; the receiver checks every
// message, times its delivery and returns credits in batches.  Each
// episode ends with a 4 KiB ping-pong probe on the same machine, then the
// benchmark's own exit_all.
//
// The 16 B latency figures come from the stream, not from a probe: on
// this machine a 16 B ping-pong's median falls in one of two modes (about
// 3 and 6 us, decided per machine instance by the comm threads' park/wake
// timing), and the mix drifts with host load, so a probe figure moved by
// ~20% between otherwise identical sets of runs.
#include <cstring>
#include <memory>
#include <vector>

#include "common/timing.hpp"
#include "pingpong.hpp"

namespace perfbench {

using namespace bgq;

namespace {

constexpr std::uint64_t kWarmupMsgs = 20000;
constexpr std::uint64_t kTimedMsgs = 100000;
/// Messages PE 0 may have in flight; part of the workload's definition
/// (the window moves the allocator's pool/heap split).
constexpr std::uint32_t kWindow = 128;
/// The receiver returns credits in batches of this many.
constexpr std::uint32_t kCreditEvery = 32;
constexpr std::uint32_t kFloodBytes = 32;
constexpr std::uint32_t kProbeWarmup = 100;
constexpr std::uint32_t kProbeTimed = 2000;
constexpr std::uint64_t kPatternKey = 0xF100D5EEDull;

class Flood {
 public:
  /// Allocates the timing buffers; construct before the machine, so the
  /// set-up timer never sees the benchmark's own allocations.
  Flood(cvs::PeRank sink, std::uint64_t span_base, bool inject_fault,
        PingPong::Done done)
      : sink_(sink),
        span_base_(span_base),
        inject_fault_(inject_fault),
        done_(std::move(done)),
        send_ns_(total()) {
    lat_ns_.reserve(kTimedMsgs);
  }

  void bind(cvs::Machine& m) {
    data_ = m.register_handler(
        [this](cvs::Pe& pe, cvs::Message* msg) { on_data(pe, msg); });
    credit_ = m.register_handler(
        [this](cvs::Pe& pe, cvs::Message* msg) { on_credit(pe, msg); });
    finish_ = m.register_handler([this](cvs::Pe& pe, cvs::Message* msg) {
      pe.free_message(msg);
      done_(pe);
    });
  }

  void start(cvs::Pe& pe) { pump(pe); }

  static constexpr std::uint64_t total() { return kWarmupMsgs + kTimedMsgs; }
  std::uint64_t first_delivery_ns() const noexcept { return first_ns_; }
  const Window& window() const noexcept { return window_; }
  double timed_s() const noexcept { return timed_s_; }
  /// One-way latency of each timed message: send-call entry to handler.
  const std::vector<double>& lat_ns() const noexcept { return lat_ns_; }

 private:
  void pump(cvs::Pe& pe) {
    while (credits_ > 0 && next_ < total()) {
      const std::uint64_t seq = next_++;
      --credits_;
      const std::uint64_t id = spans::message_id(span_base_, seq, 0);
      spans::Log* log = spans::log_for(pe.rank(), id);
      cvs::Message* m = nullptr;
      {
        spans::Scope s(log, "converse.alloc_message", id);
        m = pe.alloc_message(kFloodBytes, data_);
      }
      fill_payload(m->payload(), kFloodBytes, kPatternKey, seq);
      send_ns_[seq] = now_ns();
      spans::Scope s(log, "converse.send_message", id);
      pe.send_message(sink_, m);
    }
  }

  void on_data(cvs::Pe& pe, cvs::Message* m) {
    const std::uint64_t t = now_ns();
    if (first_ns_ == 0) first_ns_ = t;
    std::uint64_t seq = 0;
    std::memcpy(&seq, m->payload(), sizeof(seq));
    const std::uint64_t id = spans::message_id(span_base_, seq, 0);
    spans::Log* log = spans::log_for(pe.rank(), id);
    spans::Scope h(log, "bench.handler", id);
    if (seq == kWarmupMsgs) {
      u0_ = Usage::now();
      timed_t0_ = t;
    }
    if (seq >= kWarmupMsgs && seq < total()) {
      lat_ns_.push_back(static_cast<double>(t - send_ns_[seq]));
    }
    // In order, exactly once, intact.
    const bool wrong = inject_fault_ && seq == kWarmupMsgs + 5;
    if (seq == expected_ && m->payload_bytes() == kFloodBytes &&
        check_payload(m->payload(), kFloodBytes,
                      wrong ? ~kPatternKey : kPatternKey, seq)) {
      progress().pass();
    }
    expected_ = seq + 1;
    {
      spans::Scope f(log, "converse.free_message", id);
      pe.free_message(m);
    }
    ++received_;
    if (received_ % kCreditEvery == 0) {
      const std::uint64_t cid =
          spans::message_id(span_base_, received_ / kCreditEvery, 1);
      cvs::Message* c = pe.alloc_message(sizeof(std::uint32_t), credit_);
      std::memcpy(c->payload(), &kCreditEvery, sizeof(kCreditEvery));
      spans::Scope s(spans::log_for(pe.rank(), cid), "converse.send_message",
                     cid);
      pe.send_message(0, c);
    }
    if (seq + 1 == total()) {
      window_.add(u0_, Usage::now(), kTimedMsgs);
      timed_s_ = static_cast<double>(now_ns() - timed_t0_) * 1e-9;
      pe.send_message(0, pe.alloc_message(0, finish_));
    }
  }

  void on_credit(cvs::Pe& pe, cvs::Message* m) {
    std::uint32_t n = 0;
    std::memcpy(&n, m->payload(), sizeof(n));
    received_credits_ += n;
    // The receiver numbered this credit batch received_ / kCreditEvery.
    const std::uint64_t id =
        spans::message_id(span_base_, received_credits_ / kCreditEvery, 1);
    spans::Scope h(spans::log_for(pe.rank(), id), "bench.handler", id);
    pe.free_message(m);
    credits_ += n;
    pump(pe);
  }

  const cvs::PeRank sink_;
  const std::uint64_t span_base_;
  const bool inject_fault_;
  const PingPong::Done done_;
  cvs::HandlerId data_{}, credit_{}, finish_{};

  // Sender (PE 0).
  std::uint64_t next_ = 0;
  std::uint64_t credits_ = kWindow;
  std::uint64_t received_credits_ = 0;
  // Receiver (the sink PE).
  std::uint64_t expected_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t first_ns_ = 0;
  std::uint64_t timed_t0_ = 0;
  Usage u0_;
  Window window_;
  double timed_s_ = 0;
  // Written by the sender before each send, read by the receiver after
  // delivery (the runtime's queues order the two).
  std::vector<std::uint64_t> send_ns_;
  std::vector<double> lat_ns_;
};

cvs::MachineConfig flood_config() {
  cvs::MachineConfig cfg;  // runtime defaults apart from the layout below
  cfg.nodes = 2;
  cfg.mode = cvs::Mode::kSmpCommThreads;
  cfg.workers_per_process = 1;
  cfg.comm_threads = 1;
  return cfg;
}

double secs(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

}  // namespace

bool run_flood_commthread(const Options& opt, RunStats& st) {
  arm_watchdog(opt, nullptr);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t e = 0; e < 2 || now_ns() < deadline; ++e) {
    const PingPong::Plan probe_p =
        probe_plan(kProbeWarmup, kProbeTimed, (e << 40) | (1ull << 39),
                   {kLargeBytes});
    progress().attempted.fetch_add(Flood::total() + probe_p.sizes.size());
    std::uint64_t t_exit = 0;
    const auto sink = static_cast<cvs::PeRank>(flood_config().pe_count() - 1);
    PingPong probe(sink, probe_p, [&t_exit](cvs::Pe& pe) {
      t_exit = now_ns();
      pe.exit_all();
    });
    Flood flood(sink, e << 40, opt.inject_fault,
                [&probe](cvs::Pe& pe) { probe.start(pe); });
    const std::uint64_t t_c0 = now_ns();
    auto m = std::make_unique<cvs::Machine>(flood_config());
    const std::uint64_t t_c1 = now_ns();
    probe.bind(*m);
    flood.bind(*m);
    const std::uint64_t t_r0 = now_ns();
    m->run([&flood](cvs::Pe& pe) {
      if (pe.rank() == 0) flood.start(pe);
    });
    const std::uint64_t t_r1 = now_ns();
    st.add_report(m->metrics_report());
    const std::uint64_t t_dtor = now_ns();
    m.reset();
    const std::uint64_t t_d = now_ns();

    st.setup_s.push_back(secs(t_c0, flood.first_delivery_ns()));
    st.teardown_s.push_back(secs(t_exit, t_r1) + secs(t_dtor, t_d));
    st.ctor_s.push_back(secs(t_c0, t_c1));
    st.first_msg_s.push_back(secs(t_r0, flood.first_delivery_ns()));
    st.run_return_s.push_back(secs(t_exit, t_r1));
    st.dtor_s.push_back(secs(t_dtor, t_d));
    const double msgs = static_cast<double>(kTimedMsgs);
    st.wall_s.push_back(flood.timed_s());
    st.rate_mmsgs.push_back(msgs / flood.timed_s() * 1e-6);
    st.overhead_ns.push_back(flood.timed_s() * 1e9 / msgs);
    st.add_latencies(flood.lat_ns(), probe.lat_large_ns());
    st.window.merge(flood.window());
    st.counted_msgs += Flood::total();
    st.pe_run_s += 2 * secs(t_r0, t_r1);
  }
  st.max_rss_kib = max_rss_kib();
  if (spans::enabled()) {
    const spans::Records recs = spans::collect();
    spans::write(span_path(opt, 0), recs);
    st.spans = spans::summarize(recs);
  }
  return true;
}

}  // namespace perfbench
