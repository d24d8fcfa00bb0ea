// Figure 4 + Figure 5: Converse-level ping-pong latency.
//
// Fig. 4 — one-way latency to a *neighbouring node* for the three modes
// (non-SMP, SMP, SMP + comm threads), message sizes 16 B .. 64 KB.
// Fig. 5 — intra-node latency: (I) threads in different processes on the
// same node, (II) threads in the same Charm++ SMP process, each with and
// without comm threads.
//
// Measurement model (DESIGN.md): the in-process fabric delivers packets
// synchronously and stamps the *modeled* wire time, so a measured round
// trip gives the pure software overhead the paper's optimizations target;
// one-way latency = RTT/2 (software) + modeled one-way wire time.  The
// paper's BG/Q numbers are printed alongside.  The host timeshares all
// runtime threads on one core, so absolute values exceed BG/Q's; the mode
// *ordering* and the size scaling are the reproduction targets.
#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "converse/machine.hpp"
#include "net/fault.hpp"
#include "trace/analysis.hpp"
#include "trace/histogram.hpp"
#include "transport_pingpong.hpp"

using namespace bgq;

namespace {

struct Result {
  double one_way_us = 0;
  double wire_us = 0;
};

/// `--faults[=spec]`: chaos plan applied to every machine in the run.
net::FaultPlan g_faults;

/// Reliability/fault counters accumulated across every machine, emitted in
/// the JSON report unconditionally — all zeros on a lossless run, so CI
/// can assert both the schema and the fault-free fast path.
constexpr const char* kNetKeys[] = {
    "net.drops",          "net.dups",
    "net.delays",         "net.bitflips",
    "net.fifo.rejects",   "net.fifo.spills",
    "net.retransmits",    "net.dup_acks",
    "net.acks.piggybacked", "net.acks.standalone",
    "net.corrupt_drops",  "net.dedup_drops",
    "comm.backpressure_stalls"};
std::uint64_t g_net[std::size(kNetKeys)] = {};

/// Ping-pong between PE 0 and a peer; returns median one-way latency.
/// `near_peer`: PE 1 (same process in SMP modes, the second process on
/// the same node in non-SMP); otherwise the farthest PE (another node).
Result run_pingpong(cvs::MachineConfig cfg, std::size_t bytes, int rounds,
                    bool near_peer,
                    const std::function<void(cvs::Machine&)>& post = {}) {
  cvs::Machine machine(cfg);
  const cvs::PeRank peer =
      near_peer ? 1 : static_cast<cvs::PeRank>(machine.pe_count() - 1);

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
          pe.send_message(peer, m);
        } else {
          pe.send_message(0, m);  // echo
        }
      });

  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    cvs::Message* m = pe.alloc_message(bytes, bounce);
    std::memset(m->payload(), 7, bytes);
    t0 = now_ns();
    pe.send_message(peer, m);
  });

  Result r;
  if (machine.process_of(peer) == machine.process_of(0)) {
    r.wire_us = 0.0;  // SMP pointer exchange: no network at all
  } else {
    auto& fab = machine.fabric();
    const auto ep0 = static_cast<bgq::topo::NodeId>(machine.process_of(0));
    const auto epp =
        static_cast<bgq::topo::NodeId>(machine.process_of(peer));
    const int hops =
        machine.torus().hops(fab.node_of(ep0), fab.node_of(epp));
    r.wire_us =
        fab.params().wire_time_ns(bytes + sizeof(cvs::MsgHeader), hops) * 1e-3;
  }
  r.one_way_us =
      static_cast<double>(rtts.percentile(0.5)) * 1e-3 / 2.0 + r.wire_us;

  const trace::Report rep = machine.metrics_report();
  for (std::size_t i = 0; i < std::size(kNetKeys); ++i) {
    g_net[i] += rep.value(kNetKeys[i]);
  }
  if (post) post(machine);  // e.g. drain the trace before teardown
  return r;
}

cvs::MachineConfig mode_config(cvs::Mode mode);

/// `--trace[=path]`: rerun one inter-node SMP ping-pong with lifecycle
/// tracing on, dump the bgq-trace-v1 flat trace, and print the analyzer's
/// per-hop decomposition inline.  Each non-empty segment's percentiles,
/// under bgq-prof's segment and field names, and the hop-sum/end-to-end
/// coverage land in the JSON report so CI can assert the decomposition
/// telescopes.
void run_traced(bench::JsonReport& json, const std::string& trace_path,
                int rounds) {
  std::printf("\n== traced run: message-lifecycle decomposition "
              "(SMP, inter-node, 512 B) ==\n");
  std::fflush(stdout);
  cvs::MachineConfig cfg = mode_config(cvs::Mode::kSmp);
  cfg.trace_events = true;
  run_pingpong(cfg, 512, rounds, false, [&](cvs::Machine& m) {
    const trace::FlatTrace& flat = m.trace_session().collect();
    const trace::Analysis an = trace::analyze(flat);
    trace::write_prof_text(std::cout, an);
    for (unsigned s = 0; s < trace::kHopCount - 1; ++s) {
      const trace::Histogram& h = an.decomp.segments[s];
      if (h.count() == 0) continue;
      const std::string key =
          std::string("traced.") + trace::kSegmentNames[s] + ".";
      json.add(key + "p50_ns", h.percentile(0.50));
      json.add(key + "p99_ns", h.percentile(0.99));
      json.add(key + "max_ns", h.max());
    }
    std::cout.flush();
    json.add("traced.messages",
             static_cast<std::uint64_t>(an.decomp.messages));
    json.add("traced.end_to_end_ns",
             static_cast<std::uint64_t>(an.decomp.end_to_end_sum_ns));
    json.add("traced.hop_sum_ns",
             static_cast<std::uint64_t>(an.decomp.hop_sum_ns()));
    if (!trace_path.empty()) {
      std::ofstream f(trace_path);
      if (f) {
        m.write_flat_trace(f);
        std::printf("flat trace written to %s (feed it to bgq-prof)\n",
                    trace_path.c_str());
      } else {
        std::fprintf(stderr, "bench_pingpong: cannot write %s\n",
                     trace_path.c_str());
      }
    }
  });
}

cvs::MachineConfig mode_config(cvs::Mode mode) {
  cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = mode;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  cfg.comm_threads = 1;
  cfg.faults = g_faults;
  return cfg;
}

}  // namespace

/// `--transport=shm|socket`: the ping-pong with the two PEs in two real
/// OS processes over the named backend (fork; see transport_pingpong.hpp)
/// instead of the in-process Fig. 4/5 mode sweeps — the per-mode figures
/// are meaningless across processes, but the latency-vs-size curve over
/// a real transport hop is exactly what the backends trade off.
int run_transport_sweep(bench::JsonReport& json, transport::Kind kind,
                        int rounds) {
  const char* name = transport::kind_name(kind);
  std::printf("== one-way latency over the %s transport "
              "(2 OS processes, 1 PE each) ==\n\n", name);
  constexpr std::size_t kSizes[] = {16u, 512u, 2048u, 8192u, 65536u};
  bgq::bench_transport::PingPongResult at[std::size(kSizes)];
  const bool ok =
      bgq::bench_transport::with_ranks(kind, "pp", [&](auto make_config) {
        for (std::size_t s = 0; s < std::size(kSizes); ++s) {
          at[s] = bgq::bench_transport::run_pingpong_ranked(
              make_config(static_cast<int>(s)), kSizes[s], rounds);
        }
      });
  if (!ok) return 1;
  TextTable table({"bytes", "one_way_us"});
  for (std::size_t s = 0; s < std::size(kSizes); ++s) {
    table.row(kSizes[s], at[s].one_way_us);
    json.add("transport." + std::string(name) + ".us." +
                 std::to_string(kSizes[s]),
             at[s].one_way_us);
  }
  table.print();
  json.add("transport." + std::string(name) + ".injects",
           at[std::size(kSizes) - 1].injects);
  return json.write();
}

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_pingpong");
  bool want_trace = false;
  std::string trace_path = "pingpong_trace.json";
  transport::Kind kind = transport::Kind::kInProc;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) {
      g_faults = net::FaultPlan::parse("drop=0.01,dup=0.01,delay=0.02,"
                                       "seed=1234");
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      g_faults = net::FaultPlan::parse(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      want_trace = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      want_trace = true;
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      const std::string v = argv[i] + 12;
      if (v == "inproc") {
        kind = transport::Kind::kInProc;
      } else if (v == "shm") {
        kind = transport::Kind::kShm;
      } else if (v == "socket") {
        kind = transport::Kind::kSocket;
      } else {
        std::fprintf(stderr,
                     "bench_pingpong: --transport=inproc|shm|socket\n");
        return 2;
      }
    }
  }
  if (kind != transport::Kind::kInProc) {
    return run_transport_sweep(json, kind, 300);
  }
  if (g_faults.enabled()) {
    std::printf("** chaos plan active: latencies include ack/retransmit "
                "overhead **\n");
  }
  std::printf("== Figure 4: one-way latency to neighbouring node ==\n");
  std::printf("paper anchors (<32B): nonSMP 2.9us, SMP 3.3us, "
              "SMP+comm 3.7us; modes converge above 16KB\n\n");

  constexpr int kRounds = 300;
  TextTable fig4({"bytes", "nonSMP_us", "SMP_us", "SMP+comm_us"});
  for (std::size_t bytes : {16u, 32u, 128u, 512u, 2048u, 8192u, 16384u,
                            65536u}) {
    const auto a =
        run_pingpong(mode_config(cvs::Mode::kNonSmp), bytes, kRounds,
                     false);
    const auto b =
        run_pingpong(mode_config(cvs::Mode::kSmp), bytes, kRounds, false);
    const auto c = run_pingpong(mode_config(cvs::Mode::kSmpCommThreads),
                                bytes, kRounds, false);
    fig4.row(bytes, a.one_way_us, b.one_way_us, c.one_way_us);
    const std::string sz = std::to_string(bytes);
    json.add("fig4.nonsmp.us." + sz, a.one_way_us);
    json.add("fig4.smp.us." + sz, b.one_way_us);
    json.add("fig4.smp_ct.us." + sz, c.one_way_us);
  }
  fig4.print();

  std::printf("\n== Figure 5: intra-node one-way latency ==\n");
  std::printf("paper anchors: same SMP process ~1.1us (no comm thread), "
              "~1.3us (comm threads); different processes higher and "
              "size-independent only for SMP pointer exchange\n\n");

  TextTable fig5({"bytes", "diff_process_us", "same_SMP_us",
                  "same_SMP+comm_us"});
  for (std::size_t bytes : {16u, 512u, 8192u, 65536u}) {
    // Mode I: two processes on one node (non-SMP, 2 processes).
    cvs::MachineConfig p2 = mode_config(cvs::Mode::kNonSmp);
    p2.nodes = 2;
    p2.processes_per_node = 2;  // PE 1 = second process, same node
    const auto i = run_pingpong(p2, bytes, kRounds, true);
    // Mode II: same SMP process (pointer exchange).
    const auto ii =
        run_pingpong(mode_config(cvs::Mode::kSmp), bytes, kRounds, true);
    const auto iic = run_pingpong(mode_config(cvs::Mode::kSmpCommThreads),
                                  bytes, kRounds, true);
    fig5.row(bytes, i.one_way_us, ii.one_way_us, iic.one_way_us);
    const std::string sz = std::to_string(bytes);
    json.add("fig5.diff_proc.us." + sz, i.one_way_us);
    json.add("fig5.same_smp.us." + sz, ii.one_way_us);
    json.add("fig5.same_smp_ct.us." + sz, iic.one_way_us);
  }
  fig5.print();
  // --trace runs the traced decomposition and writes the flat trace; a
  // --json report always includes the per-segment percentiles, so run
  // the traced pass (without the file) for it too.
  if (want_trace || json.enabled()) {
    run_traced(json, want_trace ? trace_path : std::string(), kRounds);
  }
  for (std::size_t i = 0; i < std::size(kNetKeys); ++i) {
    json.add(kNetKeys[i], g_net[i]);
  }
  return json.write();
}
