// Unit tests for the fault-tolerance building blocks (src/ft): the pup
// serializer, the double in-memory checkpoint store, crash-event parsing
// in fault plans, the metrics-epoch reset, and the machine-level failure
// primitives (kill_process, blackholing, the liveness-aware barrier).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "converse/machine.hpp"
#include "ft/pup.hpp"
#include "ft/store.hpp"
#include "net/fault.hpp"
#include "trace/registry.hpp"

namespace {

using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Mode;
using bgq::cvs::Pe;
using bgq::ft::CheckpointStore;
using bgq::ft::Pup;
using bgq::net::FaultPlan;

// ---------------------------------------------------------------------------
// Pup
// ---------------------------------------------------------------------------

TEST(Pup, RoundTripsScalarsAndVectors) {
  Pup pack;
  std::uint32_t a = 0xDEADBEEF;
  double b = 3.25;
  std::vector<double> v{1.0, -2.5, 1e300};
  pack(a);
  pack(b);
  pack.vec(v);

  std::uint32_t a2 = 0;
  double b2 = 0;
  std::vector<double> v2;
  Pup unpack(pack.bytes());
  EXPECT_TRUE(unpack.unpacking());
  unpack(a2);
  unpack(b2);
  unpack.vec(v2);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(v2, v);
  EXPECT_EQ(unpack.remaining(), 0u);
}

TEST(Pup, TruncatedBlobThrowsInsteadOfReadingGarbage) {
  Pup pack;
  std::uint64_t x = 7;
  pack(x);
  std::vector<std::byte> cut(pack.bytes().begin(),
                             pack.bytes().end() - 1);
  Pup unpack(cut);
  std::uint64_t y = 0;
  EXPECT_THROW(unpack(y), std::out_of_range);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

std::vector<std::byte> blob(unsigned tag, std::size_t n = 8) {
  return std::vector<std::byte>(n, static_cast<std::byte>(tag));
}

TEST(CheckpointStore, CommitSealsAndLatestTracksNewest) {
  CheckpointStore st;
  EXPECT_EQ(st.latest_complete(), 0u);
  st.put(1, 0, 1, blob(10));
  EXPECT_EQ(st.latest_complete(), 0u) << "uncommitted epochs not restorable";
  st.commit(1);
  EXPECT_EQ(st.latest_complete(), 1u);
  st.put(2, 0, 1, blob(20));
  st.commit(2);
  EXPECT_EQ(st.latest_complete(), 2u);
}

TEST(CheckpointStore, KeepsOnlyTwoCommittedEpochs) {
  CheckpointStore st;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    st.put(e, 0, 1, blob(static_cast<unsigned>(e)));
    st.commit(e);
  }
  std::vector<std::byte> out;
  EXPECT_FALSE(st.fetch(1, 0, out)) << "double buffering prunes epoch 1";
  EXPECT_TRUE(st.fetch(2, 0, out));
  EXPECT_TRUE(st.fetch(3, 0, out));
  EXPECT_EQ(out, blob(3));
}

TEST(CheckpointStore, BuddyCopySurvivesHolderDeath) {
  CheckpointStore st;
  st.put(1, 0, 1, blob(1));  // proc 0's state, held by 0 and buddy 1
  st.put(1, 1, 2, blob(2));
  st.put(1, 2, 0, blob(3));
  st.commit(1);

  st.drop_holder(0);  // process 0 dies: its resident copies vanish
  std::vector<std::byte> out;
  EXPECT_TRUE(st.fetch(1, 0, out)) << "proc 0's blob survives on buddy 1";
  EXPECT_EQ(out, blob(1));
  EXPECT_TRUE(st.fetch(1, 2, out)) << "proc 2's own copy is intact";
  EXPECT_EQ(st.procs(1), (std::vector<unsigned>{0, 1, 2}));

  st.drop_holder(1);  // both holders of proc 0's blob now dead
  EXPECT_FALSE(st.fetch(1, 0, out))
      << "a blob with no surviving holder is honestly unrecoverable";
}

TEST(CheckpointStore, ResidentBytesCountsEveryCopy) {
  CheckpointStore st;
  st.put(1, 0, 1, blob(1, 16));  // two copies
  st.put(1, 1, 1, blob(2, 8));   // buddy == proc: single copy
  EXPECT_EQ(st.resident_bytes(), 16u * 2 + 8u);
}

// ---------------------------------------------------------------------------
// FaultPlan crash events
// ---------------------------------------------------------------------------

TEST(FaultPlanCrash, ParsesWallClockAndMessageCountEvents) {
  const FaultPlan p =
      FaultPlan::parse("drop=0.01,crash@1:50ms,crash@2:100msg");
  EXPECT_DOUBLE_EQ(p.drop, 0.01);
  ASSERT_EQ(p.crashes.size(), 2u);
  EXPECT_EQ(p.crashes[0].process, 1u);
  EXPECT_EQ(p.crashes[0].at_ms, 50u);
  EXPECT_EQ(p.crashes[0].at_msgs, 0u);
  EXPECT_EQ(p.crashes[1].process, 2u);
  EXPECT_EQ(p.crashes[1].at_ms, 0u);
  EXPECT_EQ(p.crashes[1].at_msgs, 100u);
  EXPECT_TRUE(p.enabled());
}

TEST(FaultPlanCrash, CrashOnlyPlanIsEnabled) {
  EXPECT_TRUE(FaultPlan::parse("crash@0:5ms").enabled());
  EXPECT_FALSE(FaultPlan::parse("").enabled());
}

TEST(FaultPlanCrash, MalformedEventsThrowNamingTheToken) {
  // Satellite guarantee: a typo'd crash spec fails loudly, naming the
  // bad token, instead of silently testing nothing.
  try {
    FaultPlan::parse("crash@x:5ms");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find('x'), std::string::npos);
  }
  try {
    FaultPlan::parse("crash@1:5sec");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("5sec"), std::string::npos);
  }
  EXPECT_THROW(FaultPlan::parse("crash@1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@1:"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash@1:0msg"), std::invalid_argument);
}

using FaultPlanCrashDeathTest = ::testing::Test;

TEST(FaultPlanCrashDeathTest, BadEnvPlanRejectsAndExits) {
  // from_env must reject-and-exit(2) with a diagnostic naming the token —
  // never run a chaos experiment with a silently-empty plan.
  EXPECT_EXIT(
      {
        setenv("BGQ_FAULT_PLAN", "crash@1:nonsense", 1);
        bgq::net::FaultPlan::from_env();
      },
      ::testing::ExitedWithCode(2), "BGQ_FAULT_PLAN rejected.*nonsense");
}

// ---------------------------------------------------------------------------
// Registry::reset_epoch
// ---------------------------------------------------------------------------

TEST(RegistryEpoch, ResetRebasesCountersAndGauges) {
  bgq::trace::Registry reg;
  bgq::trace::Cell& executed = reg.cell("pe.msgs.executed");
  executed.owner_add(40);
  bgq::trace::Cell& crashes = reg.cell("ft.crashes");
  crashes.set(2);
  EXPECT_EQ(reg.report().value("pe.msgs.executed"), 40u);
  EXPECT_EQ(reg.report().value("ft.crashes"), 2u);

  reg.reset_epoch();
  EXPECT_EQ(reg.report().value("pe.msgs.executed"), 0u)
      << "post-reset reports are relative to the reset instant";
  EXPECT_EQ(reg.report().value("ft.crashes"), 0u);

  executed.owner_add(7);
  crashes.set(5);
  EXPECT_EQ(reg.report().value("pe.msgs.executed"), 7u);
  EXPECT_EQ(reg.report().value("ft.crashes"), 3u)
      << "cell deltas are relative to their reset baseline";
  EXPECT_EQ(reg.total("pe.msgs.executed"), 7u);
}

// ---------------------------------------------------------------------------
// Machine failure primitives
// ---------------------------------------------------------------------------

TEST(MachineFt, KillProcessBlackholesAndBarrierSkipsTheDead) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.ft.enabled = true;
  cfg.ft.failure_timeout_ms = 100000;  // detector must not race this test
  cfg.ft.watchdog_abort = false;
  // Explicit (inert) plan: an FT-armed machine honors crash events, so a
  // CI-wide BGQ_FAULT_PLAN must not leak into this test.  Process 9 does
  // not exist; the event can never fire.
  cfg.faults = FaultPlan::parse("crash@9:1000000msg");
  Machine machine(cfg);
  const auto h = machine.register_handler(
      [](Pe& pe, bgq::cvs::Message* m) { pe.free_message(m); });

  machine.run([&](Pe& pe) {
    if (pe.rank() != 0) return;
    machine.kill_process(1);
    machine.declare_dead(1);
    const char ping = '!';
    pe.send(1, h, &ping, sizeof(ping));  // into the blackhole
    // Completing at all is the assertion: the barrier must not wait for
    // the declared-dead process's PE.
    machine.worker_barrier(&pe);
    pe.exit_all();
  });

  EXPECT_TRUE(machine.process_killed(1));
  EXPECT_TRUE(machine.process_dead(1));
  EXPECT_EQ(machine.lowest_live_pe(), 0u);
  EXPECT_EQ(machine.live_process_count(), 1u);
  EXPECT_GT(machine.metrics().total("net.blackholed"), 0u);
  const auto report = machine.metrics_report();
  EXPECT_GT(report.value("net.blackholed"), 0u);
  EXPECT_TRUE(report.has("ft.recoveries"));
  EXPECT_TRUE(report.has("net.dedup.evicted"));
}

TEST(MachineFt, CrashPlanIsStrippedWhenFtIsNotArmed) {
  // An env-wide chaos plan may carry crash events; machines that did not
  // opt into fault tolerance must ignore them (or the whole existing
  // suite would die under a CI-wide BGQ_FAULT_PLAN).
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.faults = FaultPlan::parse("crash@1:1msg");
  Machine machine(cfg);
  ASSERT_FALSE(machine.ft_armed());
  std::atomic<int> delivered{0};
  const auto h = machine.register_handler([&](Pe& pe, bgq::cvs::Message* m) {
    delivered.fetch_add(1);
    pe.free_message(m);
  });

  constexpr int kPings = 50;
  machine.run([&](Pe& pe) {
    if (pe.rank() != 0) return;
    for (int i = 0; i < kPings; ++i) {
      const char ping = '!';
      pe.send(1, h, &ping, sizeof(ping));
    }
    while (delivered.load() < kPings) {
      if (!pe.pump_one()) std::this_thread::yield();
    }
    pe.exit_all();
  });
  EXPECT_EQ(delivered.load(), kPings);
  EXPECT_FALSE(machine.process_killed(1))
      << "crash events must be inert without MachineConfig::ft";
}

}  // namespace
