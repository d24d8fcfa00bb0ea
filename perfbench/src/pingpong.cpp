// The ping-pong phase and the pingpong-shm workload: two ranks as real OS
// processes over the shm transport.  This process hosts rank 0 and
// measures; it forks the peer (rank 1) before starting any thread, then
// drives both through the same sequence of episodes over a pair of pipes.
#include "pingpong.hpp"

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/timing.hpp"
#include "spans.hpp"
#include "transport/shm.hpp"

namespace perfbench {

using namespace bgq;

// ---- payload pattern ------------------------------------------------------

namespace {

std::uint64_t pattern_word(std::uint64_t key, std::uint64_t r) noexcept {
  return SplitMix64(key ^ (r * 0xD1B54A32D192ED03ull)).next();
}

}  // namespace

void fill_payload(std::byte* p, std::size_t n, std::uint64_t key,
                  std::uint64_t r) noexcept {
  std::memcpy(p, &r, sizeof(r));
  const std::uint64_t w = pattern_word(key, r);
  for (std::size_t off = sizeof(r); off < n; off += 8) {
    const std::uint64_t v = w + off * 0x9E3779B97F4A7C15ull;
    std::memcpy(p + off, &v, std::min<std::size_t>(8, n - off));
  }
}

bool check_payload(const std::byte* p, std::size_t n, std::uint64_t key,
                   std::uint64_t r) noexcept {
  std::uint64_t got = 0;
  std::memcpy(&got, p, sizeof(got));
  if (got != r) return false;
  const std::uint64_t w = pattern_word(key, r);
  for (std::size_t off = sizeof(r); off < n; off += 8) {
    const std::uint64_t v = w + off * 0x9E3779B97F4A7C15ull;
    if (std::memcmp(p + off, &v, std::min<std::size_t>(8, n - off)) != 0) {
      return false;
    }
  }
  return true;
}

PingPong::Plan probe_plan(std::uint32_t warmup, std::uint32_t timed,
                          std::uint64_t span_base,
                          std::vector<std::uint32_t> sizes) {
  PingPong::Plan plan;
  plan.sizes.resize(warmup + timed);
  for (std::size_t r = 0; r < plan.sizes.size(); ++r) {
    plan.sizes[r] = sizes[r % sizes.size()];
  }
  plan.warmup = warmup;
  plan.pattern_key = 0x5EED0F7E57ull;
  plan.span_base = span_base;
  return plan;
}

// ---- the ping-pong phase --------------------------------------------------

PingPong::PingPong(cvs::PeRank peer, Plan plan, Done done)
    : peer_(peer), plan_(std::move(plan)), done_(std::move(done)) {
  const std::size_t timed = rounds() - plan_.warmup;
  small_.reserve(timed);
  large_.reserve(timed);
}

void PingPong::bind(cvs::Machine& m) {
  handler_ = m.register_handler([this](cvs::Pe& pe, cvs::Message* msg) {
    if (pe.rank() == 0) {
      on_pong(pe, msg);
    } else {
      on_ping(pe, msg);
    }
  });
}

void PingPong::start(cvs::Pe& pe) { send_round(pe, 0); }

void PingPong::send_round(cvs::Pe& pe, std::uint64_t r) {
  if (r == plan_.warmup) {
    u0_ = Usage::now();
    timed_t0_ = now_ns();
  }
  const std::uint64_t id = spans::message_id(plan_.span_base, r, 0);
  spans::Log* log = spans::log_for(pe.rank(), id);
  const std::uint32_t bytes = plan_.sizes[r];
  cvs::Message* m = nullptr;
  {
    spans::Scope s(log, "converse.alloc_message", id);
    m = pe.alloc_message(bytes, handler_);
  }
  fill_payload(m->payload(), bytes, plan_.pattern_key, r);
  t0_ = now_ns();
  spans::Scope s(log, "converse.send_message", id);
  pe.send_message(peer_, m);
}

void PingPong::on_ping(cvs::Pe& pe, cvs::Message* m) {
  const std::uint64_t t = now_ns();
  if (first_ns_ == 0) first_ns_ = t;
  std::uint64_t r = 0;
  std::memcpy(&r, m->payload(), sizeof(r));
  const std::uint64_t in_id = spans::message_id(plan_.span_base, r, 0);
  spans::Scope h(spans::log_for(pe.rank(), in_id), "bench.handler", in_id);
  if (plan_.peer_window) {
    if (r == plan_.warmup) u0_ = Usage::now();
    if (r + 1 == rounds()) {
      window_.add(u0_, Usage::now(), 2 * (rounds() - plan_.warmup));
    }
  }
  const std::uint64_t out_id = spans::message_id(plan_.span_base, r, 1);
  spans::Scope s(spans::log_for(pe.rank(), out_id), "converse.send_message",
                 out_id);
  pe.send_message(0, m);  // echo the same buffer
}

void PingPong::on_pong(cvs::Pe& pe, cvs::Message* m) {
  const std::uint64_t t1 = now_ns();
  std::uint64_t r = 0;
  std::memcpy(&r, m->payload(), sizeof(r));
  const std::uint64_t id = spans::message_id(plan_.span_base, r, 1);
  spans::Log* log = spans::log_for(pe.rank(), id);
  spans::Scope h(log, "bench.handler", id);

  const bool wrong = plan_.inject_fault && r == plan_.warmup + 3;
  const std::uint64_t key = wrong ? ~plan_.pattern_key : plan_.pattern_key;
  if (m->payload_bytes() == plan_.sizes[r] &&
      check_payload(m->payload(), m->payload_bytes(), key, r)) {
    progress().pass();
  }
  if (r >= plan_.warmup) {
    const double one_way = static_cast<double>(t1 - t0_) * 0.5;
    (plan_.sizes[r] == kSmallBytes ? small_ : large_).push_back(one_way);
  }
  {
    spans::Scope s(log, "converse.free_message", id);
    pe.free_message(m);
  }
  if (r + 1 < rounds()) {
    send_round(pe, r + 1);
    return;
  }
  timed_s_ = static_cast<double>(now_ns() - timed_t0_) * 1e-9;
  window_.add(u0_, Usage::now(), 2 * (rounds() - plan_.warmup));
  done_(pe);
}

// ---- the pingpong-shm workload --------------------------------------------

namespace {

constexpr std::uint32_t kWarmupRounds = 2000;
constexpr std::uint32_t kTimedRounds = 30000;

cvs::MachineConfig shm_config(unsigned rank, const std::string& session) {
  cvs::MachineConfig cfg;  // runtime defaults apart from the layout below
  cfg.nodes = 2;
  cfg.mode = cvs::Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.transport.kind = transport::Kind::kShm;
  cfg.transport.nprocs = 2;
  cfg.transport.rank = rank;
  cfg.transport.session = session;
  return cfg;
}

/// Episode `e`'s plan: 16 B and 4 KiB rounds in an order drawn from the
/// seed.  Both ranks build the same plan.
PingPong::Plan shm_plan(const Options& opt, std::uint64_t e) {
  PingPong::Plan plan;
  Xoshiro256 rng(opt.seed * 0x9E3779B97F4A7C15ull + e);
  plan.sizes.resize(kWarmupRounds + kTimedRounds);
  for (auto& s : plan.sizes) s = (rng.next() >> 63) != 0 ? kSmallBytes
                                                          : kLargeBytes;
  plan.warmup = kWarmupRounds;
  plan.pattern_key = rng.next();
  plan.span_base = e << 40;
  plan.peer_window = true;
  plan.inject_fault = opt.inject_fault;
  return plan;
}

bool write_line(int fd, const std::string& s) {
  const std::string line = s + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking line read; false on EOF or error.
bool read_line(int fd, std::string& out) {
  out.clear();
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (c == '\n') return true;
    out.push_back(c);
  }
}

/// Rank 1: run one episode per command until told to quit, then report
/// this process's window, counters and peak RSS.
int peer_main(const Options& opt, int cmd_fd, int res_fd) {
  Window window;
  RunStats st;
  std::string line;
  while (read_line(cmd_fd, line)) {
    std::istringstream ls(line);
    std::string verb, session;
    std::uint64_t e = 0;
    ls >> verb >> e >> session;
    if (verb == "quit") break;
    if (verb != "episode") return 2;
    PingPong pp(1, shm_plan(opt, e), nullptr);
    auto m = std::make_unique<cvs::Machine>(shm_config(1, session));
    pp.bind(*m);
    const std::uint64_t t0 = now_ns();
    m->run([](cvs::Pe&) {});
    const std::uint64_t t_r1 = now_ns();
    st.pe_run_s += static_cast<double>(t_r1 - t0) * 1e-9;
    st.add_report(m->metrics_report());
    window.merge(pp.window());
    const std::uint64_t t_dtor = now_ns();
    m.reset();
    // When this rank would have finished had it not paused to report.
    const std::uint64_t done = t_r1 + (now_ns() - t_dtor);
    if (!write_line(res_fd, "ack " + std::to_string(pp.first_delivery_ns()) +
                                " " + std::to_string(done))) {
      return 2;
    }
  }
  if (line.rfind("quit", 0) != 0) return 2;  // parent went away
  std::ostringstream os;
  os.precision(17);
  os << "window " << window.cpu_s << ' ' << window.heap_allocs << ' '
     << window.heap_bytes << ' ' << window.msgs << '\n'
     << "rss " << max_rss_kib() << '\n'
     << "pe_run_s " << st.pe_run_s << '\n';
  for (const auto& [k, v] : st.counters) os << "counter " << k << ' ' << v
                                            << '\n';
  if (spans::enabled()) spans::write(span_path(opt, 1), spans::collect());
  os << "end";
  return write_line(res_fd, os.str()) ? 0 : 2;
}

/// Put rank `rank` on its own half of the CPUs this process may use, so
/// every run sees the same placement: unpinned, the two ranks' worker and
/// poller threads land on shared or separate CPUs from run to run and the
/// latencies come out bimodal.  No-op with fewer than four CPUs.
void pin_rank(unsigned rank) {
  const std::vector<int> cpus = usable_cpus();
  if (cpus.size() < 4) return;
  const std::size_t half = cpus.size() / 2;
  pin_self({cpus.begin() + static_cast<std::ptrdiff_t>(rank * half),
            cpus.begin() + static_cast<std::ptrdiff_t>((rank + 1) * half)});
}

/// Sessions of this run: "<tag>e<episode>"; the segment is "/bgq-<session>".
std::string g_tag;
/// The forked peer (-1 once reaped); the watchdog thread reads it too.
std::atomic<pid_t> g_child{-1};
/// Set before the parent tells the peer to quit: its exit is then expected.
std::atomic<bool> g_quitting{false};

/// Watchdog probe: false once the peer has exited unexpectedly.
bool peer_alive() {
  const pid_t child = g_child.load();
  if (g_quitting.load() || child <= 0) return true;
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(child), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    return false;
  }
  return info.si_pid == 0;
}

/// Remove every segment of this run still in /dev/shm; returns how many.
int unlink_leftovers() {
  int n = 0;
  const std::string prefix = "bgq-" + g_tag;
  if (DIR* d = ::opendir("/dev/shm")) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name.rfind(prefix, 0) == 0) {
        transport::ShmTransport::unlink_session(name.substr(4));
        ++n;
      }
    }
    ::closedir(d);
  }
  return n;
}

/// Reap the peer within `deadline_s`, killing it if it overstays.
bool reap_peer(double deadline_s) {
  const pid_t child = g_child.load();
  if (child <= 0) return true;
  const std::uint64_t until =
      now_ns() + static_cast<std::uint64_t>(deadline_s * 1e9);
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(child, &status, WNOHANG);
    if (r == child) break;
    if (r < 0 && errno != EINTR) {
      g_child = -1;
      return false;
    }
    if (now_ns() > until) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      g_child = -1;
      std::fprintf(stderr, "perfbench: peer rank overstayed; killed\n");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  g_child = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Every exit path: kill and reap the peer, unlink every segment.
void cleanup_job() {
  if (const pid_t child = g_child.load(); child > 0) ::kill(child, SIGKILL);
  reap_peer(5.0);
  unlink_leftovers();
}

/// Unlinks one episode's session however the episode ends.
struct SessionGuard {
  std::string session;
  ~SessionGuard() { transport::ShmTransport::unlink_session(session); }
};

bool parent_episodes(const Options& opt, RunStats& st, int cmd_fd,
                     int res_fd) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t e = 0; e < 2 || now_ns() < deadline; ++e) {
    const std::string session = g_tag + "e" + std::to_string(e);
    SessionGuard guard{session};
    const PingPong::Plan plan = shm_plan(opt, e);
    progress().attempted.fetch_add(plan.sizes.size());
    if (!write_line(cmd_fd, "episode " + std::to_string(e) + " " + session)) {
      return false;
    }
    std::uint64_t t_exit = 0;
    PingPong pp(1, plan, [&t_exit](cvs::Pe& pe) {
      t_exit = now_ns();
      pe.exit_all();
    });
    const std::uint64_t t_c0 = now_ns();
    auto m = std::make_unique<cvs::Machine>(shm_config(0, session));
    const std::uint64_t t_c1 = now_ns();
    pp.bind(*m);
    const std::uint64_t t_r0 = now_ns();
    m->run([&pp](cvs::Pe& pe) {
      if (pe.rank() == 0) pp.start(pe);
    });
    const std::uint64_t t_r1 = now_ns();
    st.add_report(m->metrics_report());
    const std::uint64_t t_dtor = now_ns();
    m.reset();
    const std::uint64_t t_d = now_ns();
    const std::uint64_t done = t_r1 + (t_d - t_dtor);

    std::string ack;
    if (!read_line(res_fd, ack)) return false;
    std::istringstream as(ack);
    std::string verb;
    std::uint64_t first = 0, peer_done = 0;
    if (!(as >> verb >> first >> peer_done) || verb != "ack" || first == 0) {
      return false;
    }
    auto secs = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a) * 1e-9;
    };
    st.setup_s.push_back(secs(t_c0, first));
    st.teardown_s.push_back(secs(t_exit, std::max(done, peer_done)));
    st.ctor_s.push_back(secs(t_c0, t_c1));
    st.first_msg_s.push_back(secs(t_r0, first));
    st.run_return_s.push_back(secs(t_exit, t_r1));
    st.dtor_s.push_back(secs(t_dtor, t_d));
    const double msgs = 2.0 * kTimedRounds;
    st.wall_s.push_back(pp.timed_s());
    st.rate_mmsgs.push_back(msgs / pp.timed_s() * 1e-6);
    st.overhead_ns.push_back(pp.timed_s() * 1e9 / msgs);
    st.add_latencies(pp.lat_small_ns(), pp.lat_large_ns());
    st.window.merge(pp.window());
    st.counted_msgs += 2 * plan.sizes.size();
    st.pe_run_s += secs(t_r0, t_r1);
  }
  return true;
}

/// Read the peer's final report into `st`.
bool read_peer_report(int res_fd, RunStats& st) {
  std::string line;
  while (read_line(res_fd, line)) {
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;
    if (verb == "end") return true;
    if (verb == "window") {
      ls >> st.peer_window.cpu_s >> st.peer_window.heap_allocs >>
          st.peer_window.heap_bytes >> st.peer_window.msgs;
    } else if (verb == "rss") {
      long kib = 0;
      ls >> kib;
      st.max_rss_kib = std::max(st.max_rss_kib, kib);
    } else if (verb == "pe_run_s") {
      double s = 0;
      ls >> s;
      st.pe_run_s += s;
    } else if (verb == "counter") {
      std::string k;
      double v = 0;
      ls >> k >> v;
      st.counters[k] += v;
    }
    if (!ls) return false;
  }
  return false;
}

}  // namespace

bool run_pingpong_shm(const Options& opt, RunStats& st) {
  int cmd[2], res[2];
  if (::pipe(cmd) != 0 || ::pipe(res) != 0) {
    std::perror("perfbench: pipe");
    return false;
  }
  // Fresh session tag per run: pid plus clock bits, so back-to-back runs
  // (and a crashed run's leftovers) never share a segment name.
  g_tag = "pb" + std::to_string(::getpid()) + "x" +
          std::to_string(now_ns() % 1000000007ull);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("perfbench: fork");
    return false;
  }
  if (child == 0) {
    ::close(cmd[1]);
    ::close(res[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    pin_rank(1);
    int rc = 2;
    try {
      rc = peer_main(opt, cmd[0], res[1]);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "perfbench: peer rank: %s\n", ex.what());
    }
    ::_exit(rc);
  }
  g_child = child;
  pin_rank(0);
  ::close(cmd[0]);
  ::close(res[1]);
  arm_watchdog(opt, cleanup_job, peer_alive);

  bool ok = false;
  try {
    ok = parent_episodes(opt, st, cmd[1], res[0]);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
  }
  g_quitting.store(true);
  ok = ok && write_line(cmd[1], "quit") && read_peer_report(res[0], st);
  ::close(cmd[1]);
  ::close(res[0]);
  if (!ok) {
    cleanup_job();
    return false;
  }
  ok = reap_peer(10.0);
  // Hygiene: no zombie child and no segment of this run may remain.
  errno = 0;
  if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD) {
    std::fprintf(stderr, "perfbench: unreaped child process\n");
    ok = false;
  }
  if (const int n = unlink_leftovers(); n != 0) {
    std::fprintf(stderr, "perfbench: %d leftover shm segment(s)\n", n);
    ok = false;
  }
  st.max_rss_kib = std::max(st.max_rss_kib, max_rss_kib());
  if (spans::enabled()) {
    spans::Records recs = spans::collect();
    spans::write(span_path(opt, 0), recs);
    if (!spans::read(span_path(opt, 1), recs)) {
      std::fprintf(stderr, "perfbench: peer span file missing\n");
      ok = false;
    }
    st.spans = spans::summarize(recs);
  }
  return ok;
}

}  // namespace perfbench
