// The taskbench-smp workload: the default MachineConfig (kSmp, 2 nodes x
// 2 workers) runs all five Task Bench patterns back to back, one machine
// run per pattern, then a ping-pong probe between PE 0 and the far PE
// (the paper's SMP latency) that ends the episode with the benchmark's
// own exit_all.  Each pattern's digest and final total are checked
// against a serial reference computed before any episode.
#include <array>
#include <cstring>
#include <memory>

#include "charm/chare.hpp"
#include "charm/ft_apps.hpp"  // fnv1a
#include "common/timing.hpp"
#include "pingpong.hpp"
#include "taskbench/runner.hpp"

namespace perfbench {

using namespace bgq;

namespace {

constexpr std::uint32_t kWidth = 16;
constexpr std::uint32_t kSteps = 400;
constexpr std::uint32_t kPayloadBytes = 32;
constexpr std::uint32_t kGrain = 200;
constexpr std::uint32_t kProbeWarmup = 200;
constexpr std::uint32_t kProbeTimed = 4000;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::size_t kPatterns = std::size(taskbench::kAllPatterns);

taskbench::Params params(taskbench::Pattern p) {
  taskbench::Params prm;
  prm.pattern = p;
  prm.width = kWidth;
  prm.steps = kSteps;
  prm.payload_bytes = kPayloadBytes;
  prm.grain = kGrain;
  return prm;
}

struct Reference {
  std::uint64_t digest = 0;
  double total = 0;
};

/// The task graph evaluated serially from its definition (Task Bench:
/// state, kernel, dependency-ordered fold of payload digests), with no
/// runtime involved.
Reference serial_reference(const taskbench::Params& prm) {
  std::vector<std::uint64_t> state(prm.width), out(prm.width);
  for (std::uint32_t i = 0; i < prm.width; ++i) {
    state[i] = charm::fnv1a(kFnvBasis, &i, sizeof(i));
  }
  std::vector<std::byte> payload(prm.payload_bytes);
  for (std::uint32_t s = 0; s < prm.steps; ++s) {
    // Digests of the outputs shipped after step s - 1.
    for (std::uint32_t t = 0; s > 0 && t < prm.width; ++t) {
      for (std::uint32_t i = 0; i < prm.payload_bytes; ++i) {
        payload[i] = static_cast<std::byte>(
            (state[t] >> ((i % 8) * 8)) ^ (std::uint64_t{i} * 131));
      }
      out[t] = charm::fnv1a(kFnvBasis, payload.data(), payload.size());
    }
    std::vector<std::uint64_t> next = state;
    for (std::uint32_t t = 0; t < prm.width; ++t) {
      std::uint64_t x = state[t];
      for (std::uint32_t g = 0; g < prm.grain; ++g) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      std::uint64_t v = state[t] ^ x;
      v = charm::fnv1a(v, &s, sizeof(s));
      for (std::uint32_t d :
           taskbench::dependencies(prm.pattern, prm.width, s, t)) {
        v = charm::fnv1a(v, &out[d], sizeof(out[d]));
      }
      next[t] = v;
    }
    state.swap(next);
  }
  Reference ref;
  ref.digest = kFnvBasis;
  for (std::uint32_t t = 0; t < prm.width; ++t) {
    ref.digest = charm::fnv1a(ref.digest, &state[t], sizeof(state[t]));
    ref.digest = charm::fnv1a(ref.digest, &prm.steps, sizeof(prm.steps));
    ref.total += static_cast<double>(static_cast<std::uint32_t>(state[t]));
  }
  return ref;
}

double secs(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

}  // namespace

bool run_taskbench_smp(const Options& opt, RunStats& st) {
  std::array<Reference, kPatterns> refs;
  for (std::size_t i = 0; i < kPatterns; ++i) {
    refs[i] = serial_reference(params(taskbench::kAllPatterns[i]));
  }
  arm_watchdog(opt, nullptr);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t e = 0; e < 2 || now_ns() < deadline; ++e) {
    const PingPong::Plan probe_p =
        probe_plan(kProbeWarmup, kProbeTimed, e << 40,
                   {kSmallBytes, kLargeBytes});
    progress().attempted.fetch_add(kPatterns + probe_p.sizes.size());
    std::uint64_t t_exit = 0, first = 0;
    const auto far =
        static_cast<cvs::PeRank>(cvs::MachineConfig{}.pe_count() - 1);
    PingPong probe(far, probe_p, [&t_exit](cvs::Pe& pe) {
      t_exit = now_ns();
      pe.exit_all();
    });
    const std::uint64_t t_c0 = now_ns();
    auto m = std::make_unique<cvs::Machine>(cvs::MachineConfig{});
    charm::Runtime rt(*m);
    std::array<std::unique_ptr<taskbench::TaskBenchApp>, kPatterns> apps;
    for (std::size_t i = 0; i < kPatterns; ++i) {
      apps[i] = std::make_unique<taskbench::TaskBenchApp>(
          rt, params(taskbench::kAllPatterns[i]));
    }
    const double pes = static_cast<double>(m->pe_count());
    const cvs::HandlerId hello = m->register_handler(
        [&first](cvs::Pe& pe, cvs::Message* msg) {
          first = now_ns();
          pe.free_message(msg);
        });
    probe.bind(*m);
    const std::uint64_t t_c1 = now_ns();

    // One run per pattern; the app's final reduction calls exit_all.
    double wall = 0, busy = 0;
    std::uint64_t msgs = 0, t_r0 = 0;
    for (std::size_t i = 0; i < kPatterns; ++i) {
      std::uint64_t t_app = 0;
      Usage u0;
      const std::uint64_t t_run = now_ns();
      if (i == 0) t_r0 = t_run;
      m->run([&](cvs::Pe& pe) {
        if (pe.rank() != 0) return;
        if (i == 0) pe.send_message(far, pe.alloc_message(0, hello));
        u0 = Usage::now();
        t_app = now_ns();
        apps[i]->start(pe);
      });
      const std::uint64_t t_end = now_ns();
      wall += secs(t_app, t_end);
      busy += static_cast<double>(apps[i]->busy_ns()) * 1e-9;
      msgs += apps[i]->data_messages();
      st.window.add(u0, Usage::now(), apps[i]->data_messages());
      st.pe_run_s += pes * secs(t_run, t_end);
      const bool wrong = opt.inject_fault && i == 2;
      if (apps[i]->finished() &&
          apps[i]->digest() == (wrong ? ~refs[i].digest : refs[i].digest) &&
          apps[i]->final_total() == refs[i].total) {
        progress().pass();
      }
    }
    const std::uint64_t t_p = now_ns();
    m->run([&probe](cvs::Pe& pe) {
      if (pe.rank() == 0) probe.start(pe);
    });
    const std::uint64_t t_r1 = now_ns();
    st.pe_run_s += pes * secs(t_p, t_r1);
    st.add_report(m->metrics_report());
    const std::uint64_t t_dtor = now_ns();
    m.reset();
    const std::uint64_t t_d = now_ns();

    st.setup_s.push_back(secs(t_c0, first));
    st.teardown_s.push_back(secs(t_exit, t_r1) + secs(t_dtor, t_d));
    st.ctor_s.push_back(secs(t_c0, t_c1));
    st.first_msg_s.push_back(secs(t_r0, first));
    st.run_return_s.push_back(secs(t_exit, t_r1));
    st.dtor_s.push_back(secs(t_dtor, t_d));
    // Task Bench overhead: wall minus compute spread over the PEs, per
    // data message, pooled over the five patterns.
    const double compute = busy / pes;
    st.wall_s.push_back(wall);
    st.rate_mmsgs.push_back(static_cast<double>(msgs) / wall * 1e-6);
    st.overhead_ns.push_back((wall - compute) * 1e9 /
                             static_cast<double>(msgs));
    st.compute_s += compute;
    st.timed_s += wall;
    st.add_latencies(probe.lat_small_ns(), probe.lat_large_ns());
    st.counted_msgs += msgs;
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
