// bgq-app: run one rank of an emulated job — or the whole job when no
// transport is configured.
//
// The binary hosts one of the deterministic checkpoint-aware mini-apps
// (charm/ft_apps.hpp) on a machine whose transport comes either from
// --transport=<spec> or from the BGQ_TRANSPORT environment variable (how
// the bgq-run launcher configures the ranks it spawns).  Without either,
// the whole job runs in this process over the in-process fabric —
// exactly the configuration the tier-1 recovery tests exercise — which
// is what makes this binary the cross-backend conformance oracle: the
// same flags must produce the same element state over inproc, shm and
// socket transports, crash or no crash.
//
// With --json the rank reports per-element FNV-1a digests of the
// elements homed on it (bgq-app-v1).  A digest is only authoritative on
// the element's home rank, so a multi-process launcher merges the ranks'
// element lists — erroring on gaps or conflicts — and folds the
// per-element digests in element order into the combined job digest.
// The same fold over a single-process run's (complete) element list
// gives the reference value.
//
//   bgq-app --app=fft --procs=4 --steps=12 --ckpt-ms=5 --json=-
//
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "charm/ft_apps.hpp"
#include "common/hash.hpp"
#include "trace/json.hpp"
#include "transport/config.hpp"

namespace {

using bgq::charm::FtFft2D;
using bgq::charm::FtMdRing;
using bgq::charm::Runtime;
using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Mode;
using bgq::cvs::Pe;

struct Options {
  std::string app = "fft";
  std::size_t procs = 4;
  std::uint32_t steps = 12;
  std::size_t grid = 16;       // fft: grid edge (elems = procs)
  std::size_t particles = 6;   // md: particles per patch
  std::uint64_t ckpt_ms = 5;   // 0 = fault tolerance off
  std::uint64_t timeout_ms = 40;
  std::string transport;       // explicit spec; else BGQ_TRANSPORT
  std::string json;            // output path; "-" = stdout
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--app=fft|md] [--procs=N] [--steps=N] [--grid=N]\n"
      "          [--particles=N] [--ckpt-ms=N] [--timeout-ms=N]\n"
      "          [--transport=SPEC] [--json=PATH|-]\n",
      argv0);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string k = a.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : a.substr(eq + 1);
    std::uint64_t n = 0;
    if (k == "--app") {
      o.app = v;
      if (o.app != "fft" && o.app != "md") usage(argv[0]);
    } else if (k == "--procs" && parse_u64(v.c_str(), n)) {
      o.procs = n;
    } else if (k == "--steps" && parse_u64(v.c_str(), n)) {
      o.steps = static_cast<std::uint32_t>(n);
    } else if (k == "--grid" && parse_u64(v.c_str(), n)) {
      o.grid = n;
    } else if (k == "--particles" && parse_u64(v.c_str(), n)) {
      o.particles = n;
    } else if (k == "--ckpt-ms" && parse_u64(v.c_str(), n)) {
      o.ckpt_ms = n;
    } else if (k == "--timeout-ms" && parse_u64(v.c_str(), n)) {
      o.timeout_ms = n;
    } else if (k == "--transport") {
      o.transport = v;
    } else if (k == "--json") {
      o.json = v;
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

char hex_digit(unsigned v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

std::string hex64(std::uint64_t v) {
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) {
    s[static_cast<std::size_t>(i)] = hex_digit(v & 0xf);
  }
  return s;
}

/// One element's report: authoritative only on its home rank.
struct ElemDigest {
  std::size_t index;
  std::uint64_t digest;
};

template <typename App>
void collect(const App& app, const Machine& mach,
             std::vector<ElemDigest>& out) {
  for (std::size_t e = 0; e < app.element_count(); ++e) {
    const std::size_t owner = app.element_home(e) /
                              mach.config().effective_workers_per_process();
    if (!mach.process_local(owner)) continue;
    out.push_back({e, app.element_digest(e)});
  }
}

/// Fold per-element digests in element order — the combined job digest a
/// launcher reproduces from the merged rank reports.
std::uint64_t fold(const std::vector<ElemDigest>& elems) {
  std::uint64_t h = bgq::kFnvOffsetBasis;
  for (const ElemDigest& e : elems) {
    h = bgq::charm::fnv1a(h, &e.digest, sizeof(e.digest));
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  MachineConfig cfg;
  cfg.nodes = opt.procs;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;  // FT protocol configuration (see tests)
  if (opt.ckpt_ms != 0) {
    cfg.ft.enabled = true;
    cfg.ft.checkpoint_period_ms = opt.ckpt_ms;
    cfg.ft.heartbeat_period_ms = 2;
    cfg.ft.failure_timeout_ms = opt.timeout_ms;
    cfg.ft.watchdog_abort = false;
  }
  if (!opt.transport.empty()) {
    try {
      cfg.transport = bgq::transport::Config::parse(opt.transport);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bgq-app: bad --transport: %s\n", e.what());
      return 2;
    }
  }

  int rank = 0, nprocs = 1;
  bool finished = false;
  double final_value = 0.0;
  std::vector<ElemDigest> elems;
  std::uint64_t recoveries = 0, checkpoints = 0;
  std::uint64_t t_injects = 0, t_polls = 0, t_ring_full = 0,
                t_reconnects = 0;
  bool hang = false;

  try {
    Machine machine(cfg);
    rank = static_cast<int>(machine.local_rank());
    nprocs = static_cast<int>(machine.process_count());
    Runtime rt(machine);
    if (opt.app == "fft") {
      if (opt.grid % opt.procs != 0) {
        std::fprintf(stderr, "bgq-app: --grid must be divisible by --procs\n");
        return 2;
      }
      FtFft2D app(rt, opt.grid, opt.procs, opt.steps);
      machine.run([&](Pe& pe) {
        if (pe.rank() == 0) app.start(pe);
      });
      finished = app.finished();
      final_value = app.final_total();
      collect(app, machine, elems);
    } else {
      FtMdRing app(rt, opt.procs, opt.particles, opt.steps);
      machine.run([&](Pe& pe) {
        if (pe.rank() == 0) app.start(pe);
      });
      finished = app.finished();
      final_value = app.final_energy();
      collect(app, machine, elems);
    }
    if (auto* mgr = machine.ft_manager()) hang = mgr->hang_detected();
    const auto rep = machine.metrics_report();
    recoveries = rep.value("ft.recoveries");
    checkpoints = rep.value("ft.checkpoints");
    t_injects = rep.value("net.transport.injects");
    t_polls = rep.value("net.transport.polls");
    t_ring_full = rep.value("net.transport.ring_full");
    t_reconnects = rep.value("net.transport.reconnects");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgq-app: %s\n", e.what());
    return 1;
  }

  if (!opt.json.empty()) {
    std::ofstream file;
    std::ostream* os = &std::cout;
    if (opt.json != "-") {
      file.open(opt.json);
      if (!file) {
        std::fprintf(stderr, "bgq-app: cannot open --json path %s\n",
                     opt.json.c_str());
        return 1;
      }
      os = &file;
    }
    bgq::trace::JsonWriter w(*os);
    w.begin_object();
    w.kv("schema", "bgq-app-v1");
    w.kv("app", opt.app);
    w.kv("rank", rank);
    w.kv("nprocs", nprocs);
    w.kv("finished", finished ? 1 : 0);
    w.kv("final", final_value);
    w.kv("digest", hex64(fold(elems)));
    w.key("elements");
    w.begin_array();
    for (const ElemDigest& e : elems) {
      w.begin_object();
      w.kv("i", static_cast<std::uint64_t>(e.index));
      w.kv("digest", hex64(e.digest));
      w.end_object();
    }
    w.end_array();
    w.key("metrics");
    w.begin_object();
    w.kv("ft.recoveries", recoveries);
    w.kv("ft.checkpoints", checkpoints);
    w.kv("net.transport.injects", t_injects);
    w.kv("net.transport.polls", t_polls);
    w.kv("net.transport.ring_full", t_ring_full);
    w.kv("net.transport.reconnects", t_reconnects);
    w.end_object();
    w.end_object();
    *os << "\n";
  } else {
    std::fprintf(stderr,
                 "bgq-app: app=%s rank=%d/%d finished=%d elements=%zu "
                 "digest=%s recoveries=%llu\n",
                 opt.app.c_str(), rank, nprocs, finished ? 1 : 0,
                 elems.size(), hex64(fold(elems)).c_str(),
                 static_cast<unsigned long long>(recoveries));
  }
  return hang ? 3 : 0;
}
