// The machine's counter registry as its readers see it: every component
// counts into cells it took when it was built, so a registry read is
// current at any time — also while the PEs that write it run — totals
// accumulate across runs, and the report keeps one key set per
// configuration.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "converse/machine.hpp"
#include "net/fault.hpp"
#include "transport/shm.hpp"

namespace {

using bgq::cvs::HandlerId;
using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Message;
using bgq::cvs::Mode;
using bgq::cvs::Pe;
using bgq::cvs::PeRank;
using bgq::net::FaultPlan;

/// Bounce a message between PE 0 and the last PE (another node) until
/// `rounds` round trips are done.
void ping_pong(Machine& machine, int rounds) {
  const auto last = static_cast<PeRank>(machine.pe_count() - 1);
  std::atomic<int> left{rounds};
  const HandlerId h = machine.register_handler([&, last](Pe& pe, Message* m) {
    if (pe.rank() == last) {
      pe.send_message(0, m);
      return;
    }
    if (left.fetch_sub(1) == 1) {
      pe.free_message(m);
      pe.exit_all();
      return;
    }
    pe.send_message(last, m);
  });
  machine.run([&, last](Pe& pe) {
    if (pe.rank() == 0) pe.send_message(last, pe.alloc_message(64, h));
  });
}

void idle_run(Machine& machine) {
  machine.run([](Pe& pe) {
    if (pe.rank() == 0) pe.exit_all();
  });
}

TEST(Metrics, RegistryReadsAreCurrentBeforeAnyReport) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.faults = FaultPlan::parse("drop=0.2,seed=7");
  Machine machine(cfg);
  ping_pong(machine, 200);

  // No metrics_report() has run: the cells are the store itself.
  const std::uint64_t retx = machine.metrics().total("net.retransmits");
  const std::uint64_t drops = machine.metrics().total("net.drops");
  EXPECT_GT(retx, 0u) << "a 20% drop plan must force retransmits";
  EXPECT_GT(drops, 0u);
  const bgq::trace::Report report = machine.metrics_report();
  EXPECT_EQ(report.value("net.retransmits"), retx);
  EXPECT_EQ(report.value("net.drops"), drops);
}

TEST(Metrics, IdleSecondRunDoesNotLowerCommSweeps) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmpCommThreads;
  cfg.workers_per_process = 1;
  cfg.comm_threads = 1;
  Machine machine(cfg);
  ping_pong(machine, 2000);
  const std::uint64_t busy = machine.metrics_report().value("comm.sweeps");
  ASSERT_GT(busy, 0u);
  // A fresh comm-thread pool serves the second run; its sweeps add to
  // the first run's, as the per-PE counters do.
  idle_run(machine);
  EXPECT_GE(machine.metrics_report().value("comm.sweeps"), busy);
  EXPECT_GE(machine.metrics().total("pe.msgs.executed"), 4000u);
}

TEST(Metrics, LiveReadsOfPeCountersNeverFall) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  Machine machine(cfg);
  // A thread that is not a PE reads the per-PE counters while the PEs
  // write them, then once more after the run is over.
  std::atomic<bool> over{false};
  std::uint64_t reads = 0, executed = 0, sent = 0;
  bool fell = false;
  std::thread reader([&] {
    for (bool last = false; !last;) {
      last = over.load(std::memory_order_acquire);
      const std::uint64_t e = machine.metrics().total("pe.msgs.executed");
      const bgq::trace::Report r = machine.metrics().report();
      const std::uint64_t s = r.value("pe.msgs.sent");
      fell |= e < executed || s < sent || r.value("pe.msgs.executed") < e;
      executed = e;
      sent = s;
      ++reads;
      std::this_thread::yield();
    }
  });
  ping_pong(machine, 2000);
  over.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(fell) << "a live read went backwards";
  EXPECT_GT(reads, 1u);
  const bgq::trace::Report after = machine.metrics_report();
  EXPECT_EQ(executed, after.value("pe.msgs.executed"));
  EXPECT_EQ(sent, after.value("pe.msgs.sent"));
  EXPECT_GE(executed, 4000u);
}

// ---- the report's key set ---------------------------------------------------

/// Keys every machine reports, whatever its configuration.
const std::vector<std::string> kCommonKeys = {
    "comm.backpressure_stalls",
    "ft.checkpoint_bytes", "ft.checkpoints", "ft.checkpoints_skipped",
    "ft.crashes", "ft.detect_ns", "ft.heartbeats", "ft.recoveries",
    "ft.recovery_ns", "ft.stale_drops", "ft.watchdog_dumps",
    "net.acks.piggybacked", "net.acks.standalone", "net.bitflips",
    "net.blackholed", "net.corrupt_drops", "net.dead_peer_drops",
    "net.dedup.evicted", "net.dedup_drops", "net.delays", "net.drops",
    "net.dup_acks", "net.dups", "net.fifo.rejects", "net.fifo.spills",
    "net.retransmits", "net.transport.doorbell_wakes",
    "net.transport.frame_errors", "net.transport.injects",
    "net.transport.polls", "net.transport.reconnects",
    "net.transport.ring_full",
    "pe.busy_ns", "pe.idle.probes", "pe.msgs.executed", "pe.msgs.sent",
    "pe.sends.intra", "pe.sends.network",
    "trace.ring.drops", "trace.ring.hwm",
    "tram.appends", "tram.batched_msgs", "tram.batches",
    "tram.bypass.oversize", "tram.deagg_msgs", "tram.flush.barrier",
    "tram.flush.bytes", "tram.flush.count", "tram.flush.timeout",
    "tram.stale_discards",
};

/// The pool allocator's keys (every machine with use_pool_allocator).
const std::vector<std::string> kPoolKeys = {
    "alloc.heap.allocs", "alloc.heap.frees", "alloc.pool.hits",
    "alloc.slab.carves", "alloc.slab.hits",
};

std::set<std::string> keys_of(const bgq::trace::Report& r) {
  std::set<std::string> out;
  for (const auto& [k, v] : r.entries) out.insert(k);
  return out;
}

std::set<std::string> expected(std::vector<std::string> extra) {
  std::set<std::string> out(kCommonKeys.begin(), kCommonKeys.end());
  out.insert(extra.begin(), extra.end());
  return out;
}

TEST(Metrics, ReportKeySetIsFixedPerConfiguration) {
  ASSERT_EQ(kCommonKeys.size(), 50u);
  {
    MachineConfig cfg;  // kSmp, pool allocator
    Machine machine(cfg);
    idle_run(machine);
    EXPECT_EQ(keys_of(machine.metrics_report()), expected(kPoolKeys));
  }
  {
    MachineConfig cfg;
    cfg.mode = Mode::kSmpCommThreads;
    cfg.use_pool_allocator = false;
    Machine machine(cfg);
    idle_run(machine);
    EXPECT_EQ(keys_of(machine.metrics_report()),
              expected({"alloc.arena.contention", "comm.parks",
                        "comm.sweeps"}));
  }
  {
    MachineConfig cfg;
    cfg.mode = Mode::kNonSmp;
    cfg.ft.enabled = true;
    cfg.faults = FaultPlan::parse("drop=0.01,seed=3");
    Machine machine(cfg);
    idle_run(machine);
    EXPECT_EQ(keys_of(machine.metrics_report()), expected(kPoolKeys));
  }
}

TEST(Metrics, ShmPairReportKeySetMatchesInProcess) {
  const std::string sess = "t" + std::to_string(::getpid()) + "keys";
  bgq::transport::ShmTransport::unlink_session(sess);
  std::set<std::string> got[2];
  auto rank = [&](unsigned r) {
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.mode = Mode::kSmp;
    cfg.workers_per_process = 1;
    cfg.transport.kind = bgq::transport::Kind::kShm;
    cfg.transport.nprocs = 2;
    cfg.transport.rank = r;
    cfg.transport.session = sess;
    Machine machine(cfg);
    idle_run(machine);
    got[r] = keys_of(machine.metrics_report());
  };
  std::thread peer([&] { rank(1); });
  rank(0);
  peer.join();
  EXPECT_EQ(got[0], expected(kPoolKeys));
  EXPECT_EQ(got[1], expected(kPoolKeys));
}

}  // namespace
