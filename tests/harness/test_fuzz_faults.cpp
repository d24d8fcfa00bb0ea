// Schedule-fuzzed exactly-once test of the PAMI ack/retransmit reliability
// protocol over a chaos fabric.  Two peers exchange sequenced messages
// while the fault layer drops, duplicates, and delays (reorders) packets
// and the cooperative scheduler drives adversarial interleavings of the
// two advancing threads.  The property under test is the one the protocol
// exists for: every message is dispatched exactly once — no loss, no
// double delivery — on every fuzzed schedule, and the run quiesces (all
// retransmit timers drain) instead of deadlocking.
//
// Both the schedule decisions and the fault coin-flips derive from
// BGQ_TEST_SEED, so any failing run replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness_util.hpp"
#include "net/fault.hpp"
#include "pami/pami.hpp"
#include "test_seed.hpp"
#include "verify/schedule_point.hpp"

namespace {

using bgq::net::Fabric;
using bgq::net::FaultPlan;
using bgq::net::NetworkParams;
using bgq::pami::Client;
using bgq::pami::Context;
using bgq::pami::DispatchArgs;
using bgq::pami::ReliabilityParams;
using bgq::pami::SendParams;
using bgq::test_support::announce_seed;
using bgq::test_support::harness_scale;
using bgq::topo::Torus;

constexpr std::uint16_t kDispatch = 7;
constexpr int kMsgs = 8;  // per direction, per schedule

struct FuzzOutcome {
  std::vector<std::uint64_t> got_a;  // ids delivered to endpoint 0
  std::vector<std::uint64_t> got_b;  // ids delivered to endpoint 1
  bgq::harness::RunResult run;
  std::uint64_t retransmits = 0;
  std::uint64_t dedup_drops = 0;
  bool timed_out = false;
  std::string error;  // reliability throw (retries exhausted etc.)
};

/// One fuzzed schedule: both peers send kMsgs messages to each other over
/// a lossy fabric and keep advancing until both sides delivered everything
/// and every retransmit timer drained.
FuzzOutcome fuzz_once(std::uint64_t seed, const std::string& plan_spec,
                      std::size_t fifo_capacity) {
  bgq::trace::Registry metrics;
  Torus torus{{2}};
  Fabric fabric{metrics, torus, NetworkParams{}, /*fifos=*/2,
                /*endpoints=*/1, fifo_capacity};
  fabric.set_fault_plan(
      FaultPlan::parse(plan_spec + ",seed=" + std::to_string(seed)));

  Client a{metrics, fabric, 0, 2};
  Client b{metrics, fabric, 1, 2};
  ReliabilityParams rp;
  rp.rto_ns = 100'000;  // serialized token-passing is slow; keep retries sane
  rp.rto_max_ns = 5'000'000;
  a.enable_reliability(rp);
  b.enable_reliability(rp);

  FuzzOutcome out;
  a.set_dispatch(kDispatch, [&](const DispatchArgs& args) {
    std::uint64_t id = 0;
    std::memcpy(&id, args.payload, sizeof id);
    out.got_a.push_back(id);
  });
  b.set_dispatch(kDispatch, [&](const DispatchArgs& args) {
    std::uint64_t id = 0;
    std::memcpy(&id, args.payload, sizeof id);
    out.got_b.push_back(id);
  });

  // Cross-thread progress flags: each body publishes its delivery count
  // and timer state; both exit only once BOTH sides are fully delivered
  // and drained, so no peer stops advancing while the other still needs
  // its acks or retransmits.
  std::atomic<int> recv[2] = {0, 0};
  std::atomic<bool> timers[2] = {true, true};

  auto body = [&](int me, Context& ctx, std::vector<std::uint64_t>& got) {
    const int peer = 1 - me;
    for (int i = 0; i < kMsgs; ++i) {
      const std::uint64_t id =
          static_cast<std::uint64_t>(me + 1) * 1000 + static_cast<std::uint64_t>(i);
      SendParams p;
      p.dest = static_cast<bgq::pami::EndpointId>(peer);
      p.dispatch = kDispatch;
      p.payload = &id;
      p.payload_bytes = sizeof id;
      ctx.send_immediate(p);
    }
    for (std::uint64_t iter = 0;; ++iter) {
      bgq::verify::schedule_point("faultfuzz.drive");
      try {
        ctx.advance();
      } catch (const std::exception& e) {
        out.error = e.what();
        timers[me].store(false, std::memory_order_release);
        return;
      }
      recv[me].store(static_cast<int>(got.size()), std::memory_order_release);
      timers[me].store(ctx.has_timers(), std::memory_order_release);
      const bool done =
          recv[0].load(std::memory_order_acquire) >= kMsgs &&
          recv[1].load(std::memory_order_acquire) >= kMsgs &&
          !timers[0].load(std::memory_order_acquire) &&
          !timers[1].load(std::memory_order_acquire);
      if (done) return;
      if (iter > 2'000'000) {  // free-run backstop; watchdog fires first
        out.timed_out = true;
        timers[me].store(false, std::memory_order_release);
        return;
      }
    }
  };

  bgq::harness::RunOptions ro;
  ro.seed = seed;
  ro.max_points = 500000;
  out.run = bgq::harness::run_schedule(
      ro, {[&] { body(0, a.context(0), out.got_a); },
           [&] { body(1, b.context(0), out.got_b); }});
  out.retransmits = metrics.total("net.retransmits");
  out.dedup_drops = metrics.total("net.dedup_drops");
  return out;
}

/// Every id 1..kMsgs from the expected sender, each exactly once.
testing::AssertionResult exactly_once(const std::vector<std::uint64_t>& got,
                                      int sender) {
  std::vector<std::uint64_t> want;
  for (int i = 0; i < kMsgs; ++i) {
    want.push_back(static_cast<std::uint64_t>(sender + 1) * 1000 +
                   static_cast<std::uint64_t>(i));
  }
  std::vector<std::uint64_t> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  if (sorted == want) return testing::AssertionSuccess();
  auto describe = [](const std::vector<std::uint64_t>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(v[i]);
    }
    return s + "]";
  };
  return testing::AssertionFailure()
         << "delivered " << got.size() << " of " << kMsgs
         << " exactly-once ids: got " << describe(sorted) << " want "
         << describe(want);
}

TEST(FuzzFaults, ExactlyOnceUnderDropDupReorderOnFuzzedSchedules) {
  const std::uint64_t base = announce_seed("FuzzFaults.ExactlyOnce", 0xFA17);
  const std::uint64_t n = std::max<std::uint64_t>(60 / harness_scale(), 5);
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_dedups = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    const auto out =
        fuzz_once(seed, "drop=0.15,dup=0.15,delay=0.2", /*fifo=*/4096);
    ASSERT_EQ(out.error, "") << bgq::harness::describe_run(seed, out.run);
    ASSERT_FALSE(out.timed_out)
        << "quiescence never reached: "
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_TRUE(exactly_once(out.got_a, /*sender=*/1))
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_TRUE(exactly_once(out.got_b, /*sender=*/0))
        << bgq::harness::describe_run(seed, out.run);
    total_retransmits += out.retransmits;
    total_dedups += out.dedup_drops;
  }
  // Aggregate proof the chaos actually bit: with 15% drop and 15% dup over
  // n schedules the protocol must have retransmitted and deduplicated.
  EXPECT_GT(total_retransmits, 0u);
  EXPECT_GT(total_dedups, 0u);
}

TEST(FuzzFaults, ExactlyOnceWhenOverloadedFifoRefusesDelivery) {
  const std::uint64_t base = announce_seed("FuzzFaults.Overload", 0x0F1F);
  const std::uint64_t n = std::max<std::uint64_t>(40 / harness_scale(), 5);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    // reject=1 with a tiny reception FIFO: overload refusals behave like
    // drops and the retransmit path must still deliver everything.
    const auto out =
        fuzz_once(seed, "drop=0.05,dup=0.1,delay=0.1,reject=1", /*fifo=*/4);
    ASSERT_EQ(out.error, "") << bgq::harness::describe_run(seed, out.run);
    ASSERT_FALSE(out.timed_out)
        << "quiescence never reached: "
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_TRUE(exactly_once(out.got_a, /*sender=*/1))
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_TRUE(exactly_once(out.got_b, /*sender=*/0))
        << bgq::harness::describe_run(seed, out.run);
  }
}

}  // namespace
