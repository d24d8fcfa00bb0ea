// Schedule-fuzzed message-conservation test for TRAM batches riding the
// ack/retransmit reliability protocol over a chaos fabric.  Two peers
// stream sequenced records at each other, coalesced kPerBatch at a time
// through BatchWriter exactly the way the Router stages them, with each
// batch traveling as ONE reliable PAMI message.  The fault layer drops,
// duplicates, and delays whole batches; the property is that every
// *record* still arrives exactly once — a dropped batch loses nothing
// (retransmit), a duplicated batch delivers nothing twice (dedup), and
// for_each_record never tears or invents a record at a batch boundary.
//
// Schedule decisions and fault coin-flips both derive from BGQ_TEST_SEED,
// so any failing run replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "harness_util.hpp"
#include "net/fault.hpp"
#include "pami/pami.hpp"
#include "test_seed.hpp"
#include "tram/batch.hpp"
#include "verify/schedule_point.hpp"

namespace {

using bgq::cvs::MsgHeader;
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
using bgq::tram::BatchWriter;
using bgq::tram::for_each_record;

constexpr std::uint16_t kDispatch = 9;
constexpr int kPerBatch = 3;
constexpr int kBatches = 3;
constexpr int kMsgs = kPerBatch * kBatches;  // records per direction

struct FuzzOutcome {
  std::vector<std::uint64_t> got_a;  // record ids delivered to endpoint 0
  std::vector<std::uint64_t> got_b;  // record ids delivered to endpoint 1
  std::size_t torn_batches = 0;      // walks that stopped short of a header
  bgq::harness::RunResult run;
  std::uint64_t retransmits = 0;
  std::uint64_t dedup_drops = 0;
  bool timed_out = false;
  std::string error;
};

FuzzOutcome fuzz_once(std::uint64_t seed, const std::string& plan_spec) {
  Torus torus{{2}};
  Fabric fabric{torus, NetworkParams{}, /*fifos=*/2, /*endpoints=*/1,
                /*fifo_capacity=*/4096};
  fabric.set_fault_plan(
      FaultPlan::parse(plan_spec + ",seed=" + std::to_string(seed)));

  Client a{fabric, 0, 2};
  Client b{fabric, 1, 2};
  ReliabilityParams rp;
  rp.rto_ns = 100'000;
  rp.rto_max_ns = 5'000'000;
  a.enable_reliability(rp);
  b.enable_reliability(rp);

  FuzzOutcome out;
  auto deagg = [&](const DispatchArgs& args,
                   std::vector<std::uint64_t>& got) {
    std::size_t walked = 0;
    const std::size_t n = for_each_record(
        static_cast<const std::byte*>(args.payload), args.payload_bytes,
        [&](const MsgHeader& h, const std::byte* payload) {
          std::uint64_t id = 0;
          std::memcpy(&id, payload, sizeof id);
          got.push_back(id);
          walked += bgq::tram::record_bytes(h.payload_bytes);
        });
    // Reliability delivers whole batches: a walk that consumed fewer
    // records or bytes than the batch carries means a torn record.
    if (n != kPerBatch || walked != args.payload_bytes) ++out.torn_batches;
  };
  a.set_dispatch(kDispatch,
                 [&](const DispatchArgs& args) { deagg(args, out.got_a); });
  b.set_dispatch(kDispatch,
                 [&](const DispatchArgs& args) { deagg(args, out.got_b); });

  std::atomic<int> recv[2] = {0, 0};
  std::atomic<bool> timers[2] = {true, true};

  auto body = [&](int me, Context& ctx, std::vector<std::uint64_t>& got) {
    const int peer = 1 - me;
    BatchWriter w;
    int next_id = 0;
    for (int batch = 0; batch < kBatches; ++batch) {
      for (int r = 0; r < kPerBatch; ++r) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(me + 1) * 1000 +
            static_cast<std::uint64_t>(next_id++);
        MsgHeader h{};
        h.payload_bytes = sizeof id;
        h.handler = kDispatch;
        h.src_pe = static_cast<std::uint32_t>(me);
        h.dst_pe = static_cast<std::uint32_t>(peer);
        w.append(h, &id);
        bgq::verify::schedule_point("tramfuzz.stage");
      }
      SendParams p;
      p.dest = static_cast<bgq::pami::EndpointId>(peer);
      p.dispatch = kDispatch;
      p.payload = w.data();
      p.payload_bytes = w.bytes();
      // Pick the send flavour from the batch's size as the machine layer
      // does: three 48 B records exceed the immediate limit.
      if (p.payload_bytes <= Context::kImmediateMax) {
        ctx.send_immediate(p);
      } else {
        ctx.send(p);
      }
      w.clear();
    }
    for (std::uint64_t iter = 0;; ++iter) {
      bgq::verify::schedule_point("tramfuzz.drive");
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
  out.retransmits =
      a.context(0).retransmits() + b.context(0).retransmits();
  out.dedup_drops = a.context(0).dedup_drops() + b.context(0).dedup_drops();
  return out;
}

/// Every record id 0..kMsgs-1 from the expected sender, exactly once.
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
         << " exactly-once record ids: got " << describe(sorted) << " want "
         << describe(want);
}

TEST(FuzzTram, RecordsConservedWhenChaosDropsAndDupsWholeBatches) {
  const std::uint64_t base = announce_seed("FuzzTram.Conservation", 0x7BA7);
  const std::uint64_t n = std::max<std::uint64_t>(50 / harness_scale(), 5);
  std::uint64_t total_retransmits = 0;
  std::uint64_t total_dedups = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base + i;
    const auto out = fuzz_once(seed, "drop=0.15,dup=0.15,delay=0.2");
    ASSERT_EQ(out.error, "") << bgq::harness::describe_run(seed, out.run);
    ASSERT_FALSE(out.timed_out)
        << "quiescence never reached: "
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_EQ(out.torn_batches, 0u)
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_TRUE(exactly_once(out.got_a, /*sender=*/1))
        << bgq::harness::describe_run(seed, out.run);
    ASSERT_TRUE(exactly_once(out.got_b, /*sender=*/0))
        << bgq::harness::describe_run(seed, out.run);
    total_retransmits += out.retransmits;
    total_dedups += out.dedup_drops;
  }
  // With 15% drop and 15% dup over n schedules, the chaos must have bit:
  // batches were retransmitted and deduplicated, records still unique.
  EXPECT_GT(total_retransmits, 0u);
  EXPECT_GT(total_dedups, 0u);
}

}  // namespace
