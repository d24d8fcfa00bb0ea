// Shared driver for the transport benches: a 2-rank Converse ping-pong
// where PE 0 and PE 1 live in *different OS processes*, so every message
// crosses the selected transport backend for real.
//
// The bench binary forks itself: the parent hosts rank 0 (and measures),
// the child hosts rank 1 (and echoes).  Both ranks execute the same
// sweep loop in lockstep — the transport constructors' attach/connect
// handshakes are the synchronization, exactly as bgq-run-launched ranks
// synchronize.  With Kind::kInProc no fork happens and the whole job
// runs in-process: that run is the overhead baseline the remote
// backends are compared against (Task Bench's methodology: same
// task graph, different communication substrate).
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/timing.hpp"
#include "converse/machine.hpp"
#include "trace/histogram.hpp"
#include "transport/config.hpp"

namespace bgq::bench_transport {

struct PingPongResult {
  double one_way_us = 0;   ///< median RTT/2 (software overhead incl. hop)
  std::uint64_t injects = 0;
  std::uint64_t polls = 0;
  std::uint64_t ring_full = 0;
};

/// Run one ping-pong machine over `tc` (both ranks must call this with
/// the same bytes/rounds).  Only rank 0's result is meaningful.
inline PingPongResult run_pingpong_ranked(const transport::Config& tc,
                                          std::size_t bytes, int rounds) {
  cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = cvs::Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.transport = tc;
  cvs::Machine machine(cfg);

  trace::Histogram rtts;  // round trips, ns
  std::atomic<int> remaining{rounds};
  std::uint64_t t0 = 0;

  const cvs::HandlerId bounce = machine.register_handler(
      [&](cvs::Pe& pe, cvs::Message* m) {
        if (pe.rank() == 0) {
          const std::uint64_t t1 = now_ns();
          rtts.record(t1 - t0);
          if (remaining.fetch_sub(1) - 1 <= 0) {
            pe.free_message(m);
            pe.exit_all();
            return;
          }
          t0 = now_ns();
          pe.send_message(1, m);
        } else {
          pe.send_message(0, m);  // echo
        }
      });

  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() != 0) return;  // rank 1's machine just echoes
    cvs::Message* m = pe.alloc_message(bytes, bounce);
    std::memset(m->payload(), 7, bytes);
    t0 = now_ns();
    pe.send_message(1, m);
  });

  PingPongResult r;
  r.one_way_us = static_cast<double>(rtts.percentile(0.5)) * 1e-3 / 2.0;
  const trace::Report rep = machine.metrics_report();
  r.injects = rep.value("net.transport.injects");
  r.polls = rep.value("net.transport.polls");
  r.ring_full = rep.value("net.transport.ring_full");
  return r;
}

/// Sweep driver: calls `body(make_config)` once with this process as
/// rank 0, forking a child that runs the identical body as rank 1 and
/// then exits.  `body` receives a factory producing the per-machine
/// transport config for a sweep step (unique session per step so
/// back-to-back machines never collide); with kInProc no child is
/// forked and the factory returns an inproc config.
template <typename Body>
inline bool with_ranks(transport::Kind kind, const char* tag, Body body) {
  const std::string base =
      std::string("pp") + std::to_string(::getpid()) + tag;
  if (kind == transport::Kind::kInProc) {
    body([&](int /*step*/) { return transport::Config{}; });
    return true;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("bench transport: fork");
    return false;
  }
  const unsigned rank = child == 0 ? 1u : 0u;
  body([&](int step) {
    transport::Config tc;
    tc.kind = kind;
    tc.nprocs = 2;
    tc.rank = rank;
    tc.session = base + "s" + std::to_string(step);
    return tc;
  });
  if (child == 0) ::_exit(0);  // rank 1: no report, no stdio flush
  int status = 0;
  ::waitpid(child, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench transport: rank 1 exited abnormally\n");
    return false;
  }
  return true;
}

}  // namespace bgq::bench_transport
