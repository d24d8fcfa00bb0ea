// Benchmark program: runs one workload for a time budget and prints, one
// per line, every metric ("metric <name> <value> <unit>"), the operation
// counts ("ops <attempted> <failed>") and diagnostics ("info ...").
// perfbench/run.py builds this binary, runs it and turns those lines into
// the benchmark's result object.
//
//   perfbench --workload pingpong-shm|flood-commthread|taskbench-smp
//             --seed N --seconds S [--out-dir DIR] [--inject-fault]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else if (a == "--inject-fault") {
      opt.inject_fault = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0 && opt.seconds <= 600;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "[--out-dir DIR] [--inject-fault]\n");
    return 2;
  }
  if (kTraced) spans::enable();

  RunStats st;
  bool ok = false;
  try {
    if (opt.workload == "pingpong-shm") {
      ok = run_pingpong_shm(opt, st);
    } else if (opt.workload == "flood-commthread") {
      ok = run_flood_commthread(opt, st);
    } else if (opt.workload == "taskbench-smp") {
      ok = run_taskbench_smp(opt, st);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    ok = false;
  }
  disarm_watchdog();
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s run failed\n", opt.workload.c_str());
    return 1;
  }

  for (const Metric& m : summarize(st)) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("info episodes %zu\n", st.setup_s.size());
  std::printf("info latency_samples_16b %llu\n",
              static_cast<unsigned long long>(st.lat16_samples));
  std::printf("info latency_samples_4k %llu\n",
              static_cast<unsigned long long>(st.lat4k_samples));
  std::printf("info deliver_samples %llu\n",
              static_cast<unsigned long long>(st.spans.deliver_samples));
  const std::uint64_t att = progress().attempted.load();
  const std::uint64_t good = progress().ok.load();
  std::printf("ops %llu %llu\n", static_cast<unsigned long long>(att),
              static_cast<unsigned long long>(att - std::min(att, good)));
  return 0;
}
