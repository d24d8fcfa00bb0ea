#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace perfbench {

Usage Usage::now() noexcept {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {tv(ru.ru_utime) + tv(ru.ru_stime), heap_totals()};
}

std::vector<int> usable_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_self(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

long max_rss_kib() noexcept {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so a run
  // spawned from a larger parent would report the parent's footprint.
  long kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib;
}

Progress& progress() noexcept {
  static Progress p;
  return p;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void RunStats::add_latencies(const std::vector<double>& small_ns,
                             const std::vector<double>& large_ns) {
  lat16_p50_ns.push_back(percentile(small_ns, 0.50));
  lat16_p99_ns.push_back(percentile(small_ns, 0.99));
  lat4k_p50_ns.push_back(percentile(large_ns, 0.50));
  lat16_samples += small_ns.size();
  lat4k_samples += large_ns.size();
}

namespace {

struct Watchdog {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;  // guarded by mu
  std::thread thread;

  void disarm() {
    {
      std::lock_guard<std::mutex> g(mu);
      done = true;
    }
    cv.notify_all();
    if (thread.joinable()) thread.join();
  }
  ~Watchdog() { disarm(); }
};

Watchdog g_watchdog;

}  // namespace

void arm_watchdog(const Options& opt, void (*cleanup)(), bool (*healthy)()) {
  // Generous: a healthy run ends within seconds of its budget.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(opt.seconds * 1.5 + 40);
  g_watchdog.thread = std::thread([deadline, cleanup, healthy] {
    std::unique_lock<std::mutex> lk(g_watchdog.mu);
    for (;;) {
      if (g_watchdog.cv.wait_for(lk, std::chrono::milliseconds(50),
                                 [] { return g_watchdog.done; })) {
        return;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "perfbench: run hung past its deadline\n");
        break;
      }
      if (healthy != nullptr && !healthy()) {
        std::fprintf(stderr, "perfbench: peer rank died mid-run\n");
        break;
      }
    }
    if (cleanup != nullptr) cleanup();
    const std::uint64_t att = progress().attempted.load();
    const std::uint64_t ok = progress().ok.load();
    std::printf("ops %llu %llu\n", static_cast<unsigned long long>(att),
                static_cast<unsigned long long>(att - std::min(att, ok)));
    std::fflush(stdout);
    std::_Exit(3);
  });
}

void disarm_watchdog() { g_watchdog.disarm(); }

std::string span_path(const Options& opt, unsigned rank) {
  return opt.out_dir + "/spans-" + opt.workload + "-rank" +
         std::to_string(rank) + ".tsv";
}

std::vector<Metric> summarize(const RunStats& st) {
  std::vector<Metric> out;
  auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // Sum of each process's own ratio: every process does its share of the
  // work on each message.
  auto per_msg = [&](auto field) {
    return per(static_cast<double>(st.window.*field),
               static_cast<double>(st.window.msgs)) +
           per(static_cast<double>(st.peer_window.*field),
               static_cast<double>(st.peer_window.msgs));
  };
  const double msgs = static_cast<double>(st.counted_msgs);
  auto counter = [&](const char* k) {
    const auto it = st.counters.find(k);
    return it == st.counters.end() ? 0.0 : it->second;
  };

  // End to end.
  add("setup_s", median(st.setup_s), "s");
  add("teardown_s", median(st.teardown_s), "s");
  add("wall_s", median(st.wall_s), "s");
  // Latency, from each episode's own percentiles.  The medians are
  // averaged: on the comm-thread machine an episode's median falls in one
  // of two modes (~3 or ~5.5 us, decided per machine instance), and the
  // mean follows the mix smoothly where a median of medians would jump
  // between modes.  The p99s take the median, so one episode hit by host
  // noise cannot move it.
  add("latency_p50_us", mean(st.lat16_p50_ns) * 1e-3, "us");
  add("latency_p99_us", median(st.lat16_p99_ns) * 1e-3, "us");
  add("latency_4k_p50_us", mean(st.lat4k_p50_ns) * 1e-3, "us");
  add("msg_rate_mmsgs", median(st.rate_mmsgs), "Mmsg/s");
  add("overhead_ns_per_msg", median(st.overhead_ns), "ns");
  add("cpu_us_per_msg", per_msg(&Window::cpu_s) * 1e6, "us");
  add("peak_rss_mib", static_cast<double>(st.max_rss_kib) / 1024.0, "MiB");

  // Per layer: spans around the benchmark's calls.
  const spans::Summary& sp = st.spans;
  add("converse.alloc_message_ns.p50", sp.alloc_ns_p50, "ns");
  add("converse.send_message_ns.p50", sp.send_ns_p50, "ns");
  add("converse.free_message_ns.p50", sp.free_ns_p50, "ns");
  add("converse.deliver_ns.p50", sp.deliver_ns_p50, "ns");
  add("converse.deliver_ns.p99", sp.deliver_ns_p99, "ns");
  add("converse.self_ns_per_msg", sp.converse_self_ns_per_msg, "ns");
  add("bench.self_ns_per_msg", sp.bench_self_ns_per_msg, "ns");
  add("converse.machine_ctor_s", median(st.ctor_s), "s");
  add("converse.first_message_s", median(st.first_msg_s), "s");
  add("converse.run_return_s", median(st.run_return_s), "s");
  add("converse.machine_dtor_s", median(st.dtor_s), "s");
  // Per layer: registry counters per benchmark-level message.
  add("pe.idle.probes_per_msg", per(counter("pe.idle.probes"), msgs), "count");
  add("pe.msgs.executed_per_msg", per(counter("pe.msgs.executed"), msgs),
      "count");
  add("pe.busy_frac", per(counter("pe.busy_ns") * 1e-9, st.pe_run_s), "frac");
  add("comm.parks_per_msg", per(counter("comm.parks"), msgs), "count");
  add("comm.sweeps_per_msg", per(counter("comm.sweeps"), msgs), "count");
  add("comm.backpressure_stalls", counter("comm.backpressure_stalls"),
      "count");
  add("net.fifo.spills_per_msg", per(counter("net.fifo.spills"), msgs),
      "count");
  add("net.transport.polls_per_msg", per(counter("net.transport.polls"), msgs),
      "count");
  add("net.transport.ring_full", counter("net.transport.ring_full"), "count");
  add("heap.allocs_per_msg", per_msg(&Window::heap_allocs), "count");
  add("heap.bytes_per_msg", per_msg(&Window::heap_bytes), "B");
  add("alloc.heap.allocs_per_msg", per(counter("alloc.heap.allocs"), msgs),
      "count");
  add("alloc.pool.hits_per_msg", per(counter("alloc.pool.hits"), msgs),
      "count");
  add("alloc.slab.hits_per_msg", per(counter("alloc.slab.hits"), msgs),
      "count");
  add("tram.batched_frac", per(counter("tram.batched_msgs"), msgs), "frac");
  add("tram.flush.timeout_per_batch",
      per(counter("tram.flush.timeout"), counter("tram.batches")), "count");
  add("taskbench.compute_frac", per(st.compute_s, st.timed_s), "frac");
  return out;
}

}  // namespace perfbench
