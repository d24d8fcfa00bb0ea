// Closed-loop ping-pong with one message in flight between PE 0 and a
// peer PE: PE 0 sends round r, the peer echoes the same message, PE 0
// checks the payload and sends round r + 1.  It is the whole
// pingpong-shm workload and the latency probe of the other two.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bench.hpp"
#include "converse/machine.hpp"

namespace perfbench {

class PingPong {
 public:
  struct Plan {
    std::vector<std::uint32_t> sizes;  ///< payload bytes of each round
    std::uint32_t warmup = 0;          ///< leading rounds kept out of stats
    std::uint64_t pattern_key = 0;     ///< seeds the per-round payload
    std::uint64_t span_base = 0;       ///< span-id namespace of the phase
    /// The peer runs in another OS process and keeps its own window.
    bool peer_window = false;
    bool inject_fault = false;
  };
  using Done = std::function<void(bgq::cvs::Pe&)>;

  /// Reserves the sample buffers.  Construct before the machine, so the
  /// set-up timer never sees the benchmark's own allocations.
  PingPong(bgq::cvs::PeRank peer, Plan plan, Done done);

  /// Registers the handler; bind in the same order on every rank.
  void bind(bgq::cvs::Machine& m);

  /// Send round 0 (PE 0 only).
  void start(bgq::cvs::Pe& pe);

  /// Monotonic time the peer's handler first ran (0 if never).
  std::uint64_t first_delivery_ns() const noexcept { return first_ns_; }
  std::uint64_t rounds() const noexcept { return plan_.sizes.size(); }
  /// Timed rounds' one-way latencies (RTT/2), split by payload size.
  const std::vector<double>& lat_small_ns() const noexcept { return small_; }
  const std::vector<double>& lat_large_ns() const noexcept { return large_; }
  /// This process's usage over the timed rounds (PE 0's side, or the
  /// peer's when it runs in another process).
  const Window& window() const noexcept { return window_; }
  double timed_s() const noexcept { return timed_s_; }

 private:
  void send_round(bgq::cvs::Pe& pe, std::uint64_t r);
  void on_pong(bgq::cvs::Pe& pe, bgq::cvs::Message* m);
  void on_ping(bgq::cvs::Pe& pe, bgq::cvs::Message* m);

  const bgq::cvs::PeRank peer_;
  const Plan plan_;
  const Done done_;
  bgq::cvs::HandlerId handler_;

  std::uint64_t t0_ = 0;
  std::uint64_t timed_t0_ = 0;
  std::uint64_t first_ns_ = 0;
  Usage u0_;
  Window window_;
  double timed_s_ = 0;
  std::vector<double> small_, large_;
};

/// Payload of round `r`: the round index, then a pattern derived from
/// (key, r).  `check` recomputes it.
void fill_payload(std::byte* p, std::size_t n, std::uint64_t key,
                  std::uint64_t r) noexcept;
bool check_payload(const std::byte* p, std::size_t n, std::uint64_t key,
                   std::uint64_t r) noexcept;

inline constexpr std::uint32_t kSmallBytes = 16;
inline constexpr std::uint32_t kLargeBytes = 4096;

/// The probe phase the in-process workloads append to their main phase:
/// rounds cycling through `sizes`, fixed pattern (no seed).
PingPong::Plan probe_plan(std::uint32_t warmup, std::uint32_t timed,
                          std::uint64_t span_base,
                          std::vector<std::uint32_t> sizes);

}  // namespace perfbench
