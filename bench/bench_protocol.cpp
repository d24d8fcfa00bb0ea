// Ablation for §III: eager vs rendezvous protocol crossover.
//
// The machine layer sends small/medium messages eagerly (payload copied
// through the network) and large ones by rendezvous (header + RDMA rget
// + ack, §III).  This bench sweeps the eager/rendezvous threshold over a
// range of message sizes on the functional runtime and reports the
// one-way cost of each protocol, locating the crossover the default
// threshold (4 KB) encodes.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "converse/machine.hpp"
#include "trace/histogram.hpp"

using namespace bgq;

namespace {

/// One-way software cost of sending `bytes` under a forced protocol
/// (threshold far above / below the size).
double one_way_us(std::size_t bytes, bool force_rendezvous, int rounds) {
  cvs::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = cvs::Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.eager_max = force_rendezvous ? 0 : 1u << 30;
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
    std::memset(m->payload(), 1, bytes);
    t0 = now_ns();
    pe.send_message(peer, m);
  });
  return static_cast<double>(rtts.percentile(0.5)) * 1e-3 / 2.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_protocol");
  std::printf("== Sec III ablation: eager vs rendezvous protocol ==\n");
  std::printf("eager copies payload through the fabric (one transfer); "
              "rendezvous sends a header, rgets the payload, and acks "
              "(three transfers but no intermediate payload copy on the "
              "send side)\n\n");

  constexpr int kRounds = 200;
  TextTable tbl({"bytes", "eager_us", "rendezvous_us", "cheaper"});
  for (std::size_t bytes :
       {256u, 1024u, 4096u, 16384u, 65536u, 262144u, 1048576u}) {
    const double e = one_way_us(bytes, false, kRounds);
    const double r = one_way_us(bytes, true, kRounds);
    tbl.row(bytes, e, r, e <= r ? "eager" : "rendezvous");
    const std::string sz = std::to_string(bytes);
    json.add("protocol.eager_us." + sz, e);
    json.add("protocol.rendezvous_us." + sz, r);
  }
  tbl.print();
  std::printf("\nthe machine layer's default threshold is 4096 bytes "
              "(MachineConfig::eager_max)\n");
  return json.write();
}
