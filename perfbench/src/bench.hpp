// Shared vocabulary of the benchmark program: options, reported metrics,
// resource-usage windows and the per-run accumulator every workload
// fills episode by episode.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "trace/registry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Smoke-test hook: corrupt one expected payload / digest per episode so
  /// the output checks must report failures.
  bool inject_fault = false;
  /// Where span files go (inside the checkout's build directory).
  std::string out_dir = ".";
};

/// True in the traced binary (spans + counting operator new).
#if defined(PERFBENCH_TRACED)
inline constexpr bool kTraced = true;
#else
inline constexpr bool kTraced = false;
#endif

/// Heap operations counted by the traced binary's global operator new;
/// all zero in the untraced binary.
struct HeapTotals {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
HeapTotals heap_totals() noexcept;

/// Process CPU time and heap counts at one instant.
struct Usage {
  double cpu_s = 0;
  HeapTotals heap;
  static Usage now() noexcept;
};

/// Resource use summed over timed windows, with the messages delivered
/// inside them (the denominator of every per-message ratio).
struct Window {
  double cpu_s = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t msgs = 0;

  void add(const Usage& from, const Usage& to, std::uint64_t delivered) {
    cpu_s += to.cpu_s - from.cpu_s;
    heap_allocs += to.heap.allocs - from.heap.allocs;
    heap_bytes += to.heap.bytes - from.heap.bytes;
    msgs += delivered;
  }
  void merge(const Window& o) {
    cpu_s += o.cpu_s;
    heap_allocs += o.heap_allocs;
    heap_bytes += o.heap_bytes;
    msgs += o.msgs;
  }
};

/// CPUs this process may run on, ascending.
std::vector<int> usable_cpus();
/// Restrict the calling thread (and threads it starts later) to `cpus`.
void pin_self(const std::vector<int>& cpus);

/// Largest resident set of this process so far, in KiB.
long max_rss_kib() noexcept;

/// Operation accounting behind `failed`: every operation is counted as
/// attempted when its episode is planned and as ok only once its output
/// check passed, so operations a hang left unfinished count as failed.
struct Progress {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> ok{0};
  void pass() noexcept { ok.fetch_add(1, std::memory_order_relaxed); }
};
Progress& progress() noexcept;

/// Registry counters the per-layer report divides by messages.
inline const char* const kRegistryKeys[] = {
    "pe.idle.probes",      "pe.msgs.executed",  "pe.busy_ns",
    "comm.parks",          "comm.sweeps",       "comm.backpressure_stalls",
    "net.fifo.spills",     "net.transport.polls", "net.transport.ring_full",
    "alloc.heap.allocs",   "alloc.pool.hits",   "alloc.slab.hits",
    "tram.batched_msgs",   "tram.batches",      "tram.flush.timeout",
};

/// Everything one run measures, accumulated over its episodes.
struct RunStats {
  // Per episode.
  std::vector<double> setup_s, teardown_s, wall_s, rate_mmsgs, overhead_ns;
  std::vector<double> ctor_s, first_msg_s, run_return_s, dtor_s;
  // Per-episode percentiles of the timed ping-pong rounds' one-way
  // latency (RTT/2), and how many samples they came from.
  std::vector<double> lat16_p50_ns, lat16_p99_ns, lat4k_p50_ns;
  std::uint64_t lat16_samples = 0, lat4k_samples = 0;
  /// Timed windows of this process and, for a two-process job, the peer's.
  Window window, peer_window;
  /// Per-process max RSS.
  long max_rss_kib = 0;
  // Registry totals over every episode, the benchmark-level messages
  // they were counted against, and PE-seconds spent inside run().
  std::map<std::string, double> counters;
  std::uint64_t counted_msgs = 0;
  double pe_run_s = 0;
  // Task Bench compute share of the timed phase (PE-normalised).
  double compute_s = 0, timed_s = 0;
  /// Traced runs only.
  spans::Summary spans;

  void add_latencies(const std::vector<double>& small_ns,
                     const std::vector<double>& large_ns);
  void add_report(const bgq::trace::Report& rep) {
    for (const char* k : kRegistryKeys) {
      counters[k] += static_cast<double>(rep.value(k));
    }
  }
};

/// One reported number.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Exact percentile: element floor(q * (n - 1)) in sorted order; 0 for
/// no samples.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// Turn a finished run into the end-to-end and per-layer metrics.
std::vector<Metric> summarize(const RunStats& st);

/// Start the run's hang deadline (after any fork: it starts a thread).
/// Past it, or as soon as `healthy` (polled every 50 ms; may be null)
/// returns false, `cleanup` runs, the operation counts are printed with
/// every unfinished operation failed, and the process exits with code 3.
void arm_watchdog(const Options& opt, void (*cleanup)(),
                  bool (*healthy)() = nullptr);
/// Stop the deadline (the run finished); joins the watchdog thread.
void disarm_watchdog();

/// Where a traced run writes the spans of transport rank `rank`.
std::string span_path(const Options& opt, unsigned rank);

/// Workload entry points; each fills `st` and the global progress.
bool run_pingpong_shm(const Options& opt, RunStats& st);
bool run_flood_commthread(const Options& opt, RunStats& st);
bool run_taskbench_smp(const Options& opt, RunStats& st);

}  // namespace perfbench
