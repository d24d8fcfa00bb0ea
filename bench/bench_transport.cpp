// Per-backend transport overhead comparison (Task Bench methodology:
// identical communication pattern, different substrate — the measured
// delta *is* the substrate's per-message cost).
//
// For each backend the same 2-rank Converse ping-pong runs with PE 0 and
// PE 1 in different OS processes (fork; see transport_pingpong.hpp), so
// a message traverses the full stack: scheduler -> PAMI -> fabric ->
// transport hop -> remote fabric -> remote scheduler, and back.  The
// in-process run is the baseline: its "hop" is the classic in-memory
// handoff, so   overhead_x = backend_us / inproc_us   isolates what the
// byte-moving discipline itself costs on top of the runtime software
// stack the paper optimizes.
//
// Emits bgq-bench-v1 JSON: transport.<kind>.us.<bytes>, the per-backend
// injects/polls counters, and the overhead ratios vs inproc.
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "transport_pingpong.hpp"

using namespace bgq;
using bench_transport::PingPongResult;
using bench_transport::run_pingpong_ranked;
using bench_transport::with_ranks;

namespace {

constexpr std::size_t kSizes[] = {16, 512, 4096, 16384};

struct BackendRow {
  transport::Kind kind;
  bool ok = false;
  PingPongResult at[std::size(kSizes)];
};

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_transport");
  int rounds = 200;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      rounds = std::atoi(argv[i] + 9);
    }
  }

  std::printf("== transport backends: per-message overhead "
              "(2 ranks, ping-pong, %d rounds) ==\n", rounds);
  std::printf("inproc = classic single-process fabric (baseline); shm and "
              "socket cross real OS processes\n\n");

  BackendRow rows[] = {{transport::Kind::kInProc, false, {}},
                       {transport::Kind::kShm, false, {}},
                       {transport::Kind::kSocket, false, {}}};
  for (BackendRow& row : rows) {
    const char* name = transport::kind_name(row.kind);
    row.ok = with_ranks(row.kind, name, [&](auto make_config) {
      for (std::size_t s = 0; s < std::size(kSizes); ++s) {
        const PingPongResult r = run_pingpong_ranked(
            make_config(static_cast<int>(s)), kSizes[s], rounds);
        row.at[s] = r;
      }
    });
    if (!row.ok) {
      std::fprintf(stderr, "bench_transport: %s sweep failed\n", name);
      return 1;
    }
  }

  TextTable table({"bytes", "inproc_us", "shm_us", "socket_us",
                   "shm_x", "socket_x"});
  for (std::size_t s = 0; s < std::size(kSizes); ++s) {
    const double base = rows[0].at[s].one_way_us;
    const double shm = rows[1].at[s].one_way_us;
    const double sock = rows[2].at[s].one_way_us;
    table.row(kSizes[s], base, shm, sock,
              base > 0 ? shm / base : 0.0, base > 0 ? sock / base : 0.0);
    const std::string sz = std::to_string(kSizes[s]);
    json.add("transport.inproc.us." + sz, base);
    json.add("transport.shm.us." + sz, shm);
    json.add("transport.socket.us." + sz, sock);
    if (base > 0) {
      json.add("transport.shm.overhead_x." + sz, shm / base);
      json.add("transport.socket.overhead_x." + sz, sock / base);
    }
  }
  table.print();

  // Counters from the largest-size run: the remote backends must have
  // actually moved every message over the transport (injects > 0), and
  // the inproc baseline must not have touched it at all.
  const std::size_t last = std::size(kSizes) - 1;
  json.add("transport.inproc.injects", rows[0].at[last].injects);
  json.add("transport.shm.injects", rows[1].at[last].injects);
  json.add("transport.shm.polls", rows[1].at[last].polls);
  json.add("transport.shm.ring_full", rows[1].at[last].ring_full);
  json.add("transport.socket.injects", rows[2].at[last].injects);
  json.add("transport.socket.polls", rows[2].at[last].polls);

  std::printf("\nper-backend counters (rank 0, %zu B run): "
              "inproc injects=%llu, shm injects=%llu polls=%llu, "
              "socket injects=%llu polls=%llu\n",
              kSizes[last],
              static_cast<unsigned long long>(rows[0].at[last].injects),
              static_cast<unsigned long long>(rows[1].at[last].injects),
              static_cast<unsigned long long>(rows[1].at[last].polls),
              static_cast<unsigned long long>(rows[2].at[last].injects),
              static_cast<unsigned long long>(rows[2].at[last].polls));

  return json.write();
}
