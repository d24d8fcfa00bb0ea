// bgq-run: launch an emulated job as real OS processes.
//
// Spawns --np copies of the bgq-app binary, one per transport rank, each
// configured through its BGQ_TRANSPORT environment variable (the same
// grammar MachineConfig::transport accepts), waits for them, and merges
// their bgq-app-v1 reports: every element of the job must be reported by
// exactly one rank (its home), and the per-element digests fold in
// element order into the combined job digest — the value that must match
// a single-process run of the same flags bit-for-bit.
//
//   bgq-run --np=4 --transport=shm --app=fft --steps=12
//   bgq-run --np=4 --transport=socket --app=md --kill=1@150msg --json=out.json
//
// --kill=R@SPEC hands rank R (and only rank R) a BGQ_FAULT_PLAN crash
// event ("crash@R:SPEC", e.g. 40ms or 150msg).  The rank fires it by
// exiting with code 42 — a real OS process death, no destructors — and
// the survivors must detect the silence, roll back to the last committed
// buddy checkpoint and replay; bgq-run then requires exit 42 from the
// victim, at least one recovery among the survivors, and a complete
// element merge from the survivors alone.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "trace/json.hpp"
#include "transport/shm.hpp"

namespace {

struct Options {
  unsigned np = 4;
  std::string transport = "shm";  // shm | socket
  bool tcp = false;
  std::string app = "fft";
  std::uint64_t steps = 12;
  std::uint64_t ckpt_ms = 5;
  std::uint64_t timeout_ms = 40;   // failure detector
  std::uint64_t deadline_s = 120;  // whole-job watchdog
  std::string session;
  std::string kill;  // "R@40ms" / "R@150msg"
  std::string json;
  std::string bin;  // bgq-app path; default: next to this binary
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--np=N] [--transport=shm|socket] [--tcp] [--app=fft|md]\n"
      "          [--steps=N] [--ckpt-ms=N] [--timeout-ms=N] [--session=S]\n"
      "          [--kill=RANK@SPEC] [--deadline=SECONDS] [--json=PATH]\n"
      "          [--bin=PATH]\n",
      argv0);
  std::exit(2);
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end != s.c_str() && *end == '\0';
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string k = a.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : a.substr(eq + 1);
    std::uint64_t n = 0;
    if (k == "--np" && parse_u64(v, n)) {
      o.np = static_cast<unsigned>(n);
    } else if (k == "--transport") {
      o.transport = v;
      if (v != "shm" && v != "socket") usage(argv[0]);
    } else if (a == "--tcp") {
      o.tcp = true;
    } else if (k == "--app") {
      o.app = v;
    } else if (k == "--steps" && parse_u64(v, n)) {
      o.steps = n;
    } else if (k == "--ckpt-ms" && parse_u64(v, n)) {
      o.ckpt_ms = n;
    } else if (k == "--timeout-ms" && parse_u64(v, n)) {
      o.timeout_ms = n;
    } else if (k == "--deadline" && parse_u64(v, n)) {
      o.deadline_s = n;
    } else if (k == "--session") {
      o.session = v;
    } else if (k == "--kill") {
      o.kill = v;
    } else if (k == "--json") {
      o.json = v;
    } else if (k == "--bin") {
      o.bin = v;
    } else {
      usage(argv[0]);
    }
  }
  if (o.np < 2 || o.np > 64) usage(argv[0]);
  return o;
}

std::string sibling_binary(const char* argv0, const char* name) {
  std::string s(argv0);
  const auto slash = s.rfind('/');
  return slash == std::string::npos ? std::string(name)
                                    : s.substr(0, slash + 1) + name;
}

std::uint64_t now_ms() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000u;
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

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  int exit_code = -1;
  bool signaled = false;
  std::string stdout_text;
};

/// Scan `src` for `"key":` after `from` and parse the integer that
/// follows.  Returns npos-sentinel false when absent.
bool find_u64(const std::string& src, const std::string& key,
              std::size_t from, std::uint64_t& out, std::size_t* at) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = src.find(needle, from);
  if (pos == std::string::npos) return false;
  out = std::strtoull(src.c_str() + pos + needle.size(), nullptr, 10);
  if (at != nullptr) *at = pos + needle.size();
  return true;
}

bool find_hex64(const std::string& src, const std::string& key,
                std::size_t from, std::uint64_t& out, std::size_t* at) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = src.find(needle, from);
  if (pos == std::string::npos) return false;
  out = std::strtoull(src.c_str() + pos + needle.size(), nullptr, 16);
  if (at != nullptr) *at = pos + needle.size();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string bin =
      opt.bin.empty() ? sibling_binary(argv[0], "bgq-app") : opt.bin;
  const std::string session =
      opt.session.empty() ? "run" + std::to_string(::getpid()) : opt.session;

  // Victim rank of --kill (if any): the only rank handed a fault plan.
  int kill_rank = -1;
  std::string kill_spec;
  if (!opt.kill.empty()) {
    const auto at = opt.kill.find('@');
    std::uint64_t r = 0;
    if (at == std::string::npos || !parse_u64(opt.kill.substr(0, at), r) ||
        r >= opt.np) {
      std::fprintf(stderr, "bgq-run: bad --kill (want RANK@SPEC)\n");
      return 2;
    }
    kill_rank = static_cast<int>(r);
    kill_spec = opt.kill.substr(at + 1);
  }

  // A stale segment/socket from a dead prior job with this session tag
  // must not confuse rank bring-up.
  bgq::transport::ShmTransport::unlink_session(session);

  std::vector<Child> kids(opt.np);
  for (unsigned r = 0; r < opt.np; ++r) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      std::perror("bgq-run: pipe");
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("bgq-run: fork");
      return 1;
    }
    if (pid == 0) {
      ::close(pipefd[0]);
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[1]);
      std::string tspec = "kind=" + opt.transport +
                          ",nprocs=" + std::to_string(opt.np) +
                          ",rank=" + std::to_string(r) +
                          ",session=" + session;
      if (opt.transport == "socket" && opt.tcp) tspec += ",tcp=1";
      ::setenv("BGQ_TRANSPORT", tspec.c_str(), 1);
      if (static_cast<int>(r) == kill_rank) {
        const std::string plan =
            "crash@" + std::to_string(r) + ":" + kill_spec;
        ::setenv("BGQ_FAULT_PLAN", plan.c_str(), 1);
      } else {
        ::unsetenv("BGQ_FAULT_PLAN");
      }
      const std::string app_arg = "--app=" + opt.app;
      const std::string procs_arg = "--procs=" + std::to_string(opt.np);
      const std::string steps_arg = "--steps=" + std::to_string(opt.steps);
      const std::string ckpt_arg = "--ckpt-ms=" + std::to_string(opt.ckpt_ms);
      const std::string to_arg =
          "--timeout-ms=" + std::to_string(opt.timeout_ms);
      std::vector<char*> cargv;
      cargv.push_back(const_cast<char*>(bin.c_str()));
      cargv.push_back(const_cast<char*>(app_arg.c_str()));
      cargv.push_back(const_cast<char*>(procs_arg.c_str()));
      cargv.push_back(const_cast<char*>(steps_arg.c_str()));
      cargv.push_back(const_cast<char*>(ckpt_arg.c_str()));
      cargv.push_back(const_cast<char*>(to_arg.c_str()));
      cargv.push_back(const_cast<char*>("--json=-"));
      cargv.push_back(nullptr);
      ::execv(bin.c_str(), cargv.data());
      std::fprintf(stderr, "bgq-run: exec %s: %s\n", bin.c_str(),
                   std::strerror(errno));
      std::_Exit(127);
    }
    ::close(pipefd[1]);
    kids[r].pid = pid;
    kids[r].out_fd = pipefd[0];
  }

  // Reap with a deadline; a wedged job is killed, not waited on forever.
  const std::uint64_t deadline = now_ms() + opt.deadline_s * 1000u;
  unsigned live = opt.np;
  bool timed_out = false;
  while (live > 0) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid > 0) {
      for (auto& k : kids) {
        if (k.pid != pid) continue;
        if (WIFEXITED(status)) {
          k.exit_code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          k.signaled = true;
          k.exit_code = 128 + WTERMSIG(status);
        }
        --live;
      }
      continue;
    }
    if (now_ms() > deadline) {
      timed_out = true;
      for (auto& k : kids) {
        if (k.exit_code < 0 && !k.signaled) ::kill(k.pid, SIGKILL);
      }
      for (auto& k : kids) {
        if (k.exit_code < 0 && !k.signaled) {
          ::waitpid(k.pid, &status, 0);
          k.signaled = true;
          k.exit_code = 137;
        }
      }
      break;
    }
    ::usleep(2000);
  }

  // Children have exited (their write ends are closed): drain the pipes.
  for (auto& k : kids) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(k.out_fd, buf, sizeof(buf))) > 0) {
      k.stdout_text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(k.out_fd);
  }

  // Leftover namespace entries (normal exits clean up after themselves;
  // a killed rank cannot).
  bgq::transport::ShmTransport::unlink_session(session);
  for (unsigned r = 0; r < opt.np; ++r) {
    const std::string path =
        "/tmp/" + session + "." + std::to_string(r) + ".sock";
    ::unlink(path.c_str());
  }

  // ---- merge the rank reports -------------------------------------------
  bool ok = !timed_out;
  if (timed_out) std::fprintf(stderr, "bgq-run: job deadline exceeded\n");
  bool any_finished = false;
  std::uint64_t recoveries = 0;
  std::map<std::uint64_t, std::uint64_t> elements;  // index -> digest
  for (unsigned r = 0; r < opt.np; ++r) {
    Child& k = kids[r];
    const bool victim = static_cast<int>(r) == kill_rank;
    if (victim) {
      if (k.exit_code != 42) {
        std::fprintf(stderr,
                     "bgq-run: rank %u was the --kill victim but exited %d "
                     "(expected 42: crash never fired?)\n",
                     r, k.exit_code);
        ok = false;
      }
      continue;  // a dead rank reports nothing
    }
    if (k.exit_code != 0) {
      std::fprintf(stderr, "bgq-run: rank %u exited %d%s\n", r, k.exit_code,
                   k.signaled ? " (signal)" : "");
      ok = false;
      continue;
    }
    const std::string& out = k.stdout_text;
    if (out.find("\"schema\":\"bgq-app-v1\"") == std::string::npos) {
      std::fprintf(stderr, "bgq-run: rank %u produced no report\n", r);
      ok = false;
      continue;
    }
    std::uint64_t fin = 0;
    if (find_u64(out, "finished", 0, fin, nullptr) && fin != 0) {
      any_finished = true;
    }
    std::uint64_t rec = 0;
    if (find_u64(out, "ft.recoveries", 0, rec, nullptr)) recoveries += rec;
    // Walk the elements array: pairs of "i" and "digest" keys.
    auto pos = out.find("\"elements\":[");
    const auto end = out.find(']', pos);
    while (pos != std::string::npos) {
      std::uint64_t idx = 0, dig = 0;
      std::size_t at_i = 0, at_d = 0;
      if (!find_u64(out, "i", pos + 1, idx, &at_i) || at_i >= end) break;
      if (!find_hex64(out, "digest", at_i, dig, &at_d) || at_d >= end) break;
      const auto [it, inserted] = elements.emplace(idx, dig);
      if (!inserted && it->second != dig) {
        std::fprintf(stderr,
                     "bgq-run: element %llu reported with conflicting "
                     "digests by two ranks\n",
                     static_cast<unsigned long long>(idx));
        ok = false;
      }
      pos = at_d;
    }
  }
  if (!any_finished) {
    std::fprintf(stderr, "bgq-run: no rank reported a finished run\n");
    ok = false;
  }
  if (kill_rank >= 0 && recoveries == 0) {
    std::fprintf(stderr,
                 "bgq-run: --kill given but no survivor recovered\n");
    ok = false;
  }
  // Gap check: the job's elements are dense 0..K-1 and every one must
  // have exactly one home among the reporting ranks.
  std::uint64_t combined = bgq::kFnvOffsetBasis;
  const std::uint64_t expect =
      elements.empty() ? 0 : elements.rbegin()->first + 1;
  for (std::uint64_t e = 0; e < expect; ++e) {
    const auto it = elements.find(e);
    if (it == elements.end()) {
      std::fprintf(stderr, "bgq-run: element %llu reported by no rank\n",
                   static_cast<unsigned long long>(e));
      ok = false;
      continue;
    }
    combined = bgq::fnv1a(combined, &it->second, sizeof(it->second));
  }
  if (elements.empty()) ok = false;

  std::printf("bgq-run: app=%s transport=%s np=%u elements=%llu digest=%s "
              "recoveries=%llu %s\n",
              opt.app.c_str(), opt.transport.c_str(), opt.np,
              static_cast<unsigned long long>(elements.size()),
              hex64(combined).c_str(),
              static_cast<unsigned long long>(recoveries),
              ok ? "OK" : "FAILED");

  if (!opt.json.empty()) {
    std::ofstream os(opt.json);
    if (!os) {
      std::fprintf(stderr, "bgq-run: cannot open --json path %s\n",
                   opt.json.c_str());
      return 1;
    }
    bgq::trace::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "bgq-run-v1");
    w.kv("app", opt.app);
    w.kv("transport", opt.transport);
    w.kv("np", opt.np);
    w.kv("ok", ok ? 1 : 0);
    w.kv("finished", any_finished ? 1 : 0);
    w.kv("digest", hex64(combined));
    w.kv("elements", static_cast<std::uint64_t>(elements.size()));
    w.kv("recoveries", recoveries);
    w.key("ranks");
    w.begin_array();
    for (unsigned r = 0; r < opt.np; ++r) {
      w.begin_object();
      w.kv("rank", r);
      w.kv("exit", kids[r].exit_code);
      w.kv("victim", static_cast<int>(r) == kill_rank ? 1 : 0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
  }
  return ok ? 0 : 1;
}
