// Task Bench-style per-message runtime overhead, aggregated vs not.
//
// For every dependence pattern (stencil, fft, tree, random, spread) the
// bench runs the identical task graph twice — once with plain
// per-message sends, once with TRAM-style aggregation — and reports the
// runtime's per-message overhead for each: the wall-clock time minus
// the (measured) task compute, divided by the number of application
// messages.  The end-of-run digests of the two configurations must be
// bit-identical: aggregation may only change *when* bytes move, never
// *what* the application computes.  A chaos plan (--faults) layers
// drop/dup/delay on top; digests must still match.
//
// The interesting regime is the paper's: many tiny messages (16-64 B),
// where per-message software overhead dominates wire time and batching
// amortizes it (EXPERIMENTS.md records the shape criterion).
//
// Each pattern's METG(50%) on the plain path, Task Bench's headline
// metric, closes the report: the smallest task grain, in compute µs per
// task, at which the run still spends half of its PE time in task
// kernels.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "net/fault.hpp"
#include "taskbench/runner.hpp"

using namespace bgq;

namespace {

net::FaultPlan g_faults;

struct RunResult {
  std::uint64_t digest = 0;
  double total = 0;
  bool finished = false;
  std::uint64_t elapsed_ns = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t msgs = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t tram_batches = 0;
  std::uint64_t tram_batched = 0;
};

cvs::MachineConfig make_config(bool aggregated) {
  cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = cvs::Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  cfg.faults = g_faults;
  cfg.tram.enabled = aggregated;
  return cfg;
}

RunResult run_pattern(const taskbench::Params& prm, bool aggregated) {
  cvs::MachineConfig cfg = make_config(aggregated);
  cvs::Machine machine(cfg);
  charm::Runtime rt(machine);
  taskbench::TaskBenchApp app(rt, prm);
  Timer timer;
  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });
  RunResult r;
  r.elapsed_ns = timer.elapsed_ns();
  r.digest = app.digest();
  r.total = app.final_total();
  r.finished = app.finished();
  r.busy_ns = app.busy_ns();
  r.msgs = app.data_messages();
  r.payload_bytes = app.data_payload_bytes();
  const trace::Report rep = machine.metrics_report();
  r.tram_batches = rep.value("tram.batches");
  r.tram_batched = rep.value("tram.batched_msgs");
  return r;
}

/// Wall time not spent in task kernels, amortized per app message.  The
/// compute term divides by the worker count (tasks run in parallel), so
/// this is pessimistic about overlap — fine for A/B comparison.
double overhead_ns_per_msg(const RunResult& r, unsigned workers) {
  if (r.msgs == 0) return 0.0;
  const double compute =
      static_cast<double>(r.busy_ns) / static_cast<double>(workers);
  const double oh = static_cast<double>(r.elapsed_ns) - compute;
  return (oh < 0 ? 0.0 : oh) / static_cast<double>(r.msgs);
}

/// METG(50%) of one pattern on the plain path: doubles `grain` until
/// efficiency, busy / (wall x PEs), reaches 0.5, then interpolates the
/// compute µs per task between the last two points.  Runs kMetgSteps
/// steps, so the machine's start-up stays a small part of the wall.
/// Returns 0 when even the largest grain stays under 50%.
double metg50_us(taskbench::Params prm, unsigned workers) {
  constexpr std::uint32_t kMetgSteps = 200;
  constexpr std::uint32_t kFirstGrain = 64;
  constexpr std::uint32_t kMaxGrain = 1u << 22;
  prm.steps = kMetgSteps;
  const double tasks = static_cast<double>(prm.width) * prm.steps;
  double prev_us = 0.0, prev_eff = 0.0;
  for (std::uint32_t g = kFirstGrain; g <= kMaxGrain; g *= 2) {
    prm.grain = g;
    const RunResult r = run_pattern(prm, /*aggregated=*/false);
    const double busy = static_cast<double>(r.busy_ns);
    const double eff =
        busy / (static_cast<double>(r.elapsed_ns) * workers);
    const double us = busy * 1e-3 / tasks;
    if (eff >= 0.5) {
      if (g == kFirstGrain) return us;
      return prev_us + (0.5 - prev_eff) * (us - prev_us) / (eff - prev_eff);
    }
    prev_us = us;
    prev_eff = eff;
  }
  return 0.0;
}

/// Streaming small-message flood PE 0 -> PE (other process): delivered
/// messages per second.  This is the regime aggregation exists for — the
/// dependence patterns above are barrier-paced (latency-bound), but a
/// flood keeps batch buffers full so TRAM flushes on the byte/count
/// thresholds and the per-message network cost amortizes.
double flood_rate_mps(std::size_t bytes, std::size_t count,
                      bool aggregated) {
  cvs::MachineConfig cfg = make_config(aggregated);
  // One worker per process: the flood is a two-party pipeline, and on a
  // timeshared host idle sibling PEs would spin whole scheduler quanta
  // away from the sender and sink.
  cfg.workers_per_process = 1;
  // Deep batches for the streaming regime: the flood keeps buffers full,
  // so flushes ride the byte threshold, not the timeout.
  cfg.eager_max = 16384;
  cfg.tram.batch_bytes = 16384;
  cfg.tram.batch_msgs = 512;
  cvs::Machine machine(cfg);
  const cvs::PeRank sink =
      static_cast<cvs::PeRank>(machine.pe_count() - 1);
  std::atomic<std::size_t> received{0};
  cvs::HandlerId ack{};
  const cvs::HandlerId recv = machine.register_handler(
      [&](cvs::Pe& pe, cvs::Message* m) {
        const bool last =
            received.fetch_add(1, std::memory_order_relaxed) + 1 == count;
        pe.free_message(m);
        if (last) {
          cvs::Message* done = pe.alloc_message(8, ack);
          pe.send_message(0, done);
        }
      });
  ack = machine.register_handler([&](cvs::Pe& pe, cvs::Message* m) {
    pe.free_message(m);
    pe.exit_all();
  });
  Timer timer;
  machine.run([&](cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    for (std::size_t i = 0; i < count; ++i) {
      cvs::Message* m = pe.alloc_message(bytes, recv);
      std::memset(m->payload(), static_cast<int>(i & 0xFF), bytes);
      pe.send_message(sink, m);
    }
  });
  const double secs = static_cast<double>(timer.elapsed_ns()) * 1e-9;
  return secs > 0 ? static_cast<double>(count) / secs / 1e6 : 0.0;
}

/// Peak of three floods — one flood is a few ms, so a scheduler hiccup
/// on the timeshared host can halve a single sample.
double flood_peak_mps(std::size_t bytes, std::size_t count,
                      bool aggregated) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double r = flood_rate_mps(bytes, count, aggregated);
    if (r > best) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_taskbench");
  taskbench::Params prm;
  prm.width = 16;
  prm.steps = 24;
  prm.payload_bytes = 32;
  prm.grain = 400;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0) {
      g_faults = net::FaultPlan::parse("drop=0.01,dup=0.01,delay=0.02,"
                                       "seed=1234");
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      g_faults = net::FaultPlan::parse(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--width=", 8) == 0) {
      prm.width = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--steps=", 8) == 0) {
      prm.steps = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--bytes=", 8) == 0) {
      prm.payload_bytes = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--grain=", 8) == 0) {
      prm.grain = static_cast<std::uint32_t>(std::atoi(argv[i] + 8));
    }
  }
  std::printf("== Task Bench dependence patterns: per-message overhead ==\n");
  std::printf("width=%u steps=%u payload=%uB grain=%u%s\n\n", prm.width,
              prm.steps, prm.payload_bytes, prm.grain,
              g_faults.enabled() ? "  ** chaos plan active **" : "");

  const unsigned workers = 4;  // 2 nodes x 1 process x 2 workers
  TextTable table({"pattern", "msgs", "plain_ns/msg", "tram_ns/msg",
                   "batches", "digest_ok"});
  bool all_match = true;
  for (taskbench::Pattern p : taskbench::kAllPatterns) {
    prm.pattern = p;
    const RunResult plain = run_pattern(prm, /*aggregated=*/false);
    const RunResult tram = run_pattern(prm, /*aggregated=*/true);
    const bool ok = plain.finished && tram.finished &&
                    plain.digest == tram.digest &&
                    plain.total == tram.total;
    all_match = all_match && ok;
    const double oh_plain = overhead_ns_per_msg(plain, workers);
    const double oh_tram = overhead_ns_per_msg(tram, workers);
    table.row(taskbench::pattern_name(p), plain.msgs, oh_plain, oh_tram,
              tram.tram_batches, ok ? 1 : 0);
    const std::string key =
        std::string("taskbench.") + taskbench::pattern_name(p);
    json.add(key + ".msgs", plain.msgs);
    json.add(key + ".payload_bytes", plain.payload_bytes);
    json.add(key + ".plain.overhead_ns_per_msg", oh_plain);
    json.add(key + ".plain.elapsed_us",
             static_cast<double>(plain.elapsed_ns) * 1e-3);
    json.add(key + ".tram.overhead_ns_per_msg", oh_tram);
    json.add(key + ".tram.elapsed_us",
             static_cast<double>(tram.elapsed_ns) * 1e-3);
    json.add(key + ".tram.batches", tram.tram_batches);
    json.add(key + ".tram.batched_msgs", tram.tram_batched);
    json.add(key + ".digest_match", std::uint64_t{ok ? 1u : 0u});
  }
  table.print();

  std::printf("\n== small-message rate: streaming flood, PE0 -> far PE ==\n");
  std::printf("shape criterion (EXPERIMENTS.md): tram >= 3x plain at "
              "16-64 B\n\n");
  TextTable rates({"bytes", "plain_Mmsg/s", "tram_Mmsg/s", "speedup"});
  constexpr std::size_t kFlood = 20000;
  for (std::size_t bytes : {16u, 32u, 64u}) {
    const double plain = flood_peak_mps(bytes, kFlood, false);
    const double tram = flood_peak_mps(bytes, kFlood, true);
    const double speedup = plain > 0 ? tram / plain : 0.0;
    rates.row(bytes, plain, tram, speedup);
    const std::string key =
        "taskbench.rate." + std::to_string(bytes);
    json.add(key + ".plain_mmsgs", plain);
    json.add(key + ".tram_mmsgs", tram);
    json.add(key + ".speedup", speedup);
  }
  rates.print();

  std::printf("\n== METG(50%%), plain path: compute us per task at 50%% "
              "efficiency ==\n\n");
  TextTable metg({"pattern", "metg50_us"});
  for (taskbench::Pattern p : taskbench::kAllPatterns) {
    prm.pattern = p;
    const double us = metg50_us(prm, workers);
    metg.row(taskbench::pattern_name(p), us);
    json.add(std::string("taskbench.") + taskbench::pattern_name(p) +
                 ".metg50_us",
             us);
  }
  metg.print();

  if (!all_match) {
    std::fprintf(stderr, "bench_taskbench: DIGEST MISMATCH — aggregation "
                         "changed application results\n");
  }
  json.add("taskbench.all_digests_match",
           std::uint64_t{all_match ? 1u : 0u});
  const int rc = json.write();
  return all_match ? rc : 1;
}
