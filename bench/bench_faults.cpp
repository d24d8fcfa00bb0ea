// Chaos ablation: what does reliability cost when the fabric misbehaves?
//
// Runs the Converse ping-pong (Fig. 4 shape, 512 B, far peer) and a one-way
// flood under injected drop rates of 0%, 0.1%, 1%, and 10%, reporting
// one-way latency, delivered throughput, and the protocol counters
// (retransmits, backpressure stalls) that explain the slowdown.  The 0% row
// runs the zero-fault fast path — no sequencing, no acks — so the gap to
// the 0.1% row is the full price of turning the reliability layer on.
//
// --crash switches to the checkpoint-period ablation: the FT mini-FFT runs
// with an injected mid-run process crash at checkpoint periods of 2, 5, 20,
// and 50 ms, reporting total runtime, restore-protocol time, detection
// time, and checkpoint volume.  Shorter periods pay more snapshot overhead
// but lose less work to the rollback; every row must still reproduce the
// crash-free digest bit-identically.
#include <atomic>
#include <cstring>
#include <string>

#include "bench_json.hpp"
#include "charm/ft_apps.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "converse/machine.hpp"
#include "net/fault.hpp"
#include "trace/histogram.hpp"

using namespace bgq;

namespace {

struct FaultResult {
  double oneway_us = 0;
  double msgs_per_s = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t stalls = 0;
};

cvs::MachineConfig faulty_config(double drop_rate) {
  cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = cvs::Mode::kNonSmp;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  cfg.comm_threads = 1;
  if (drop_rate > 0.0) {
    cfg.faults.drop = drop_rate;
    cfg.faults.seed = 42;
    // Recover promptly on the timeshared host: the default 200us RTO is
    // tuned for suites, not latency benches.
    cfg.reliability.rto_ns = 100'000;
    cfg.reliability.rto_max_ns = 5'000'000;
  }
  return cfg;
}

void harvest(cvs::Machine& machine, FaultResult& r) {
  const trace::Report rep = machine.metrics_report();
  r.net_drops = rep.value("net.drops");
  r.retransmits = rep.value("net.retransmits");
  r.stalls = rep.value("comm.backpressure_stalls");
}

/// Median one-way ping-pong latency (RTT/2 + modeled wire time).
void run_latency(const cvs::MachineConfig& cfg, std::size_t bytes,
                 int rounds, FaultResult& r) {
  cvs::Machine machine(cfg);
  const auto peer = static_cast<cvs::PeRank>(machine.pe_count() - 1);

  trace::Histogram rtts;  // round trips, ns
  std::atomic<int> remaining{rounds};
  std::uint64_t t0 = 0;
  const cvs::HandlerId bounce = machine.register_handler(
      [&](cvs::Pe& pe, cvs::Message* m) {
        if (pe.rank() == 0) {
          rtts.record(now_ns() - t0);
          if (remaining.fetch_sub(1) - 1 <= 0) {
            pe.free_message(m);
            pe.exit_all();
            return;
          }
          t0 = now_ns();
          pe.send_message(peer, m);
        } else {
          pe.send_message(0, m);
        }
      });
  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    cvs::Message* m = pe.alloc_message(bytes, bounce);
    std::memset(m->payload(), 7, bytes);
    t0 = now_ns();
    pe.send_message(peer, m);
  });

  auto& fab = machine.fabric();
  const auto ep0 = static_cast<topo::NodeId>(machine.process_of(0));
  const auto epp = static_cast<topo::NodeId>(machine.process_of(peer));
  const int hops = machine.torus().hops(fab.node_of(ep0), fab.node_of(epp));
  r.oneway_us =
      static_cast<double>(rtts.percentile(0.5)) * 1e-3 / 2.0 +
      fab.params().wire_time_ns(bytes + sizeof(cvs::MsgHeader), hops) * 1e-3;
  harvest(machine, r);
}

/// Delivered one-way throughput: PE 0 floods `msgs` messages at the far
/// peer; the peer bounces one "done" back once everything arrived.
void run_flood(const cvs::MachineConfig& cfg, std::size_t bytes, int msgs,
               FaultResult& r) {
  cvs::Machine machine(cfg);
  const auto peer = static_cast<cvs::PeRank>(machine.pe_count() - 1);

  std::atomic<int> got{0};
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  cvs::HandlerId sink = 0;
  sink = machine.register_handler([&](cvs::Pe& pe, cvs::Message* m) {
    if (pe.rank() == 0) {
      t1 = now_ns();
      pe.free_message(m);
      pe.exit_all();
      return;
    }
    pe.free_message(m);
    if (got.fetch_add(1) + 1 == msgs) {
      pe.send_message(0, pe.alloc_message(8, sink));
    }
  });
  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    t0 = now_ns();
    for (int i = 0; i < msgs; ++i) {
      cvs::Message* m = pe.alloc_message(bytes, sink);
      std::memset(m->payload(), 9, bytes);
      pe.send_message(peer, m);
    }
  });

  r.msgs_per_s = static_cast<double>(msgs) /
                 (static_cast<double>(t1 - t0) * 1e-9);
  harvest(machine, r);
}

// ---------------------------------------------------------------------------
// --crash: checkpoint-period vs recovery-time ablation
// ---------------------------------------------------------------------------

struct CrashResult {
  double total_ms = 0;
  double recovery_us = 0;
  double detect_us = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t digest = 0;
  bool finished = false;
};

// Big enough that the run spans many checkpoint periods and the mid-run
// crash lands several iterations past the seed checkpoint.
constexpr std::size_t kFtGrid = 32;
constexpr std::size_t kFtElems = 4;
constexpr std::uint32_t kFtIters = 100;
constexpr const char* kCrashPlan = "crash@1:1500msg";

CrashResult run_crash(std::uint32_t period_ms, const char* plan) {
  cvs::MachineConfig cfg;
  cfg.nodes = 4;
  cfg.mode = cvs::Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.ft.enabled = true;
  cfg.ft.checkpoint_period_ms = period_ms;
  cfg.ft.heartbeat_period_ms = 2;
  cfg.ft.failure_timeout_ms = 15;
  cfg.ft.watchdog_abort = false;
  if (plan != nullptr) cfg.faults = net::FaultPlan::parse(plan);

  cvs::Machine machine(cfg);
  charm::Runtime rt(machine);
  charm::FtFft2D app(rt, kFtGrid, kFtElems, kFtIters);
  const std::uint64_t t0 = now_ns();
  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });
  const std::uint64_t t1 = now_ns();

  CrashResult r;
  r.total_ms = static_cast<double>(t1 - t0) * 1e-6;
  r.digest = app.digest();
  r.finished = app.finished();
  const trace::Report rep = machine.metrics_report();
  r.recovery_us = static_cast<double>(rep.value("ft.recovery_ns")) * 1e-3;
  r.detect_us = static_cast<double>(rep.value("ft.detect_ns")) * 1e-3;
  r.checkpoints = rep.value("ft.checkpoints");
  r.ckpt_bytes = rep.value("ft.checkpoint_bytes");
  r.recoveries = rep.value("ft.recoveries");
  return r;
}

int run_crash_ablation(bench::JsonReport& json) {
  std::printf("== Checkpoint-period ablation: FT mini-FFT with a mid-run "
              "crash ==\n");
  std::printf("plan %s on a 4-process machine; every row must match the "
              "crash-free digest\n\n", kCrashPlan);

  const CrashResult ref = run_crash(/*period_ms=*/5, /*plan=*/nullptr);
  if (!ref.finished) {
    std::fprintf(stderr, "crash-free reference run did not finish\n");
    return 1;
  }

  constexpr std::uint32_t kPeriodsMs[] = {2, 5, 20, 50};
  TextTable table({"period_ms", "total_ms", "recovery_us", "detect_us",
                   "checkpoints", "ckpt_kb", "recoveries", "digest_ok"});
  bool all_ok = true;
  for (const std::uint32_t period : kPeriodsMs) {
    const CrashResult r = run_crash(period, kCrashPlan);
    const bool ok = r.finished && r.digest == ref.digest;
    all_ok = all_ok && ok;
    table.row(period, r.total_ms, r.recovery_us, r.detect_us, r.checkpoints,
              static_cast<double>(r.ckpt_bytes) / 1024.0, r.recoveries,
              ok ? 1 : 0);
    const std::string prefix =
        "faults.crash.period_" + std::to_string(period) + "ms";
    json.add(prefix + ".total_ms", r.total_ms);
    json.add(prefix + ".recovery_us", r.recovery_us);
    json.add(prefix + ".detect_us", r.detect_us);
    json.add(prefix + ".checkpoints", r.checkpoints);
    json.add(prefix + ".checkpoint_bytes", r.ckpt_bytes);
    json.add(prefix + ".recoveries", r.recoveries);
    json.add(prefix + ".digest_ok", static_cast<std::uint64_t>(ok ? 1 : 0));
  }
  table.print();
  std::printf("\ncrash-free reference: %.2f ms, digest %016llx\n",
              ref.total_ms, static_cast<unsigned long long>(ref.digest));
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a crashed run diverged from the crash-free "
                         "digest\n");
    return 1;
  }
  const int rc = json.write();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_faults");
  bool crash_mode = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--crash") == 0) {
      crash_mode = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
  if (crash_mode) return run_crash_ablation(json);

  std::printf("== Chaos ablation: ping-pong + flood vs injected drop rate "
              "==\n");
  std::printf("0%% runs the zero-fault fast path (no acks); faulted rows "
              "pay sequencing, acks, and retransmits\n\n");

  constexpr double kDropRates[] = {0.0, 0.001, 0.01, 0.1};
  constexpr const char* kLabels[] = {"0pct", "0p1pct", "1pct", "10pct"};
  constexpr std::size_t kBytes = 512;
  constexpr int kRounds = 200;
  constexpr int kFloodMsgs = 1000;

  TextTable table({"drop", "oneway_us", "msgs_per_s", "retransmits",
                   "net_drops", "bp_stalls"});
  for (std::size_t i = 0; i < 4; ++i) {
    const cvs::MachineConfig cfg = faulty_config(kDropRates[i]);
    FaultResult lat;
    run_latency(cfg, kBytes, kRounds, lat);
    FaultResult thr;
    run_flood(cfg, kBytes, kFloodMsgs, thr);

    table.row(kLabels[i], lat.oneway_us, thr.msgs_per_s,
              lat.retransmits + thr.retransmits,
              lat.net_drops + thr.net_drops, lat.stalls + thr.stalls);
    const std::string prefix = std::string("faults.drop_") + kLabels[i];
    json.add(prefix + ".oneway_us", lat.oneway_us);
    json.add(prefix + ".msgs_per_s", thr.msgs_per_s);
    json.add(prefix + ".retransmits", lat.retransmits + thr.retransmits);
    json.add(prefix + ".net_drops", lat.net_drops + thr.net_drops);
    json.add(prefix + ".backpressure_stalls", lat.stalls + thr.stalls);
  }
  table.print();
  return json.write();
}
