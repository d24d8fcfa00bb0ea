// Tests for the PAMI-like messaging layer (src/pami).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "pami/comm_thread.hpp"
#include "pami/pami.hpp"
#include "trace/registry.hpp"

namespace {

using bgq::net::Fabric;
using bgq::net::NetworkParams;
using bgq::pami::Client;
using bgq::pami::CommThreadPool;
using bgq::pami::Context;
using bgq::pami::DispatchArgs;
using bgq::pami::SendParams;
using bgq::topo::Torus;

struct TwoNodeHarness {
  bgq::trace::Registry metrics;
  Torus torus{{2}};
  Fabric fabric{metrics, torus, NetworkParams{}, /*fifos=*/2};
  Client a{metrics, fabric, 0, 2};
  Client b{metrics, fabric, 1, 2};
};

TEST(Pami, SendImmediateInvokesDispatchWithPayload) {
  TwoNodeHarness h;
  std::string got;
  bgq::pami::EndpointId origin = 99;
  int calls = 0;
  h.b.set_dispatch(5, [&](const DispatchArgs& args) {
    got.assign(reinterpret_cast<const char*>(args.payload),
               args.payload_bytes);
    origin = args.origin;
    ++calls;
  });

  SendParams p;
  p.dest = 1;
  p.dispatch = 5;
  p.payload = "ping";
  p.payload_bytes = 4;
  h.a.context(0).send_immediate(p);

  EXPECT_EQ(h.b.context(0).advance(), 1u);
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(origin, 0u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(h.b.context(0).advance(), 0u) << "one send, one dispatch";
}

TEST(Pami, SendImmediateRejectsOversize) {
  TwoNodeHarness h;
  std::vector<char> big(Context::kImmediateMax + 1);
  SendParams p;
  p.dest = 1;
  p.payload = big.data();
  p.payload_bytes = big.size();
  EXPECT_THROW(h.a.context(0).send_immediate(p), std::invalid_argument);
}

TEST(Pami, SendCarriesMetadataAndLargePayload) {
  TwoNodeHarness h;
  std::vector<char> payload(100000, 'x');
  payload.back() = 'z';
  std::uint64_t meta_in = 0xABCDEF, meta_out = 0;
  std::size_t got_bytes = 0;
  char last = 0;
  h.b.set_dispatch(7, [&](const DispatchArgs& args) {
    std::memcpy(&meta_out, args.metadata, sizeof(meta_out));
    got_bytes = args.payload_bytes;
    last = static_cast<char>(args.payload[args.payload_bytes - 1]);
  });

  SendParams p;
  p.dest = 1;
  p.dispatch = 7;
  p.metadata = &meta_in;
  p.metadata_bytes = sizeof(meta_in);
  p.payload = payload.data();
  p.payload_bytes = payload.size();

  h.a.context(0).send(p);
  // The send copied the payload: the buffer is the caller's again.
  payload.back() = 'q';

  EXPECT_EQ(h.b.context(0).advance(), 1u);
  EXPECT_EQ(meta_out, meta_in);
  EXPECT_EQ(got_bytes, payload.size());
  EXPECT_EQ(last, 'z');
}

TEST(Pami, SendTargetsRequestedDestContext) {
  TwoNodeHarness h;
  int ctx0 = 0, ctx1 = 0;
  h.b.set_dispatch(3, [&](const DispatchArgs& args) {
    (args.context->index() == 0 ? ctx0 : ctx1)++;
  });
  SendParams p;
  p.dest = 1;
  p.dispatch = 3;
  p.dest_context = 1;
  h.a.context(0).send_immediate(p);
  EXPECT_EQ(h.b.context(0).advance(), 0u);
  EXPECT_EQ(h.b.context(1).advance(), 1u);
  EXPECT_EQ(ctx0, 0);
  EXPECT_EQ(ctx1, 1);
}

TEST(Pami, RgetPullsRemoteDataAndCompletesLocally) {
  TwoNodeHarness h;
  std::vector<std::byte> remote(64);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    remote[i] = static_cast<std::byte>(i);
  }
  std::vector<std::byte> local(64);
  bool complete = false;

  h.a.context(0).rget(1, remote.data(), local.data(), 64,
                      [&] { complete = true; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(h.a.context(0).advance(), 1u);
  EXPECT_TRUE(complete);
  EXPECT_EQ(std::memcmp(local.data(), remote.data(), 64), 0);
}

TEST(Pami, RputPushesDataAndNotifiesRemote) {
  TwoNodeHarness h;
  std::vector<std::byte> local(32, std::byte{0x5A});
  std::vector<std::byte> remote(32);
  bool remote_seen = false;

  h.a.context(0).rput(1, remote.data(), local.data(), 32,
                      /*dest_context=*/0, [&] { remote_seen = true; });
  EXPECT_EQ(h.b.context(0).advance(), 1u);
  EXPECT_TRUE(remote_seen);
  EXPECT_EQ(remote[0], std::byte{0x5A});
  EXPECT_EQ(remote[31], std::byte{0x5A});
}

TEST(Pami, PostWorkRunsOnAdvancingThread) {
  TwoNodeHarness h;
  std::thread::id advancer, worker;
  int runs = 0;
  h.a.context(0).post_work([&] {
    worker = std::this_thread::get_id();
    ++runs;
  });
  advancer = std::this_thread::get_id();
  EXPECT_EQ(h.a.context(0).advance(), 1u);
  EXPECT_EQ(worker, advancer);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(h.a.context(0).advance(), 0u) << "the item ran exactly once";
}

TEST(Pami, DestroyedContextHandsBackPostedSends) {
  struct Tally {
    int sent = 0;
    int dropped = 0;
  } tally;
  int items[3] = {};
  {
    TwoNodeHarness h;
    h.a.context(0).set_send_handler(
        [](void* owner, Context* ctx, void*) {
          auto* t = static_cast<Tally*>(owner);
          ++(ctx != nullptr ? t->sent : t->dropped);
        },
        &tally);
    for (int& item : items) h.a.context(0).post_send(&item);
    EXPECT_EQ(h.a.context(0).advance(1), 1u);
  }
  EXPECT_EQ(tally.sent, 1);
  EXPECT_EQ(tally.dropped, 2) << "queued sends must go back to their owner";
}

TEST(Pami, AdvanceHonorsMaxEvents) {
  TwoNodeHarness h;
  for (int i = 0; i < 5; ++i) {
    h.a.context(0).post_work([] {});
  }
  EXPECT_EQ(h.a.context(0).advance(2), 2u);
  EXPECT_EQ(h.a.context(0).advance(), 3u);
}

TEST(Pami, UnregisteredDispatchThrows) {
  TwoNodeHarness h;
  SendParams p;
  p.dest = 1;
  p.dispatch = 42;  // never registered
  h.a.context(0).send_immediate(p);
  EXPECT_THROW(h.b.context(0).advance(), std::logic_error);
}

TEST(Pami, ContextCountValidated) {
  bgq::trace::Registry metrics;
  Torus t({2});
  Fabric f(metrics, t, NetworkParams{}, 2);
  EXPECT_THROW(Client(metrics, f, 0, 0), std::invalid_argument);
  EXPECT_THROW(Client(metrics, f, 0, 3), std::invalid_argument);  // 2 FIFOs
}

TEST(CommThread, PoolProcessesPostedWorkWhileCallerSleeps) {
  TwoNodeHarness h;
  std::atomic<int> executed{0};
  {
    CommThreadPool pool(h.metrics, {&h.a.context(0), &h.a.context(1)}, 2);
    for (int i = 0; i < 100; ++i) {
      h.a.context(i % 2).post_work([&] { executed.fetch_add(1); });
    }
    while (executed.load() < 100) std::this_thread::yield();
    pool.stop();
  }
  EXPECT_EQ(executed.load(), 100);
}

TEST(CommThread, WakesFromParkOnPacketArrival) {
  TwoNodeHarness h;
  std::atomic<int> received{0};
  h.b.set_dispatch(9, [&](const DispatchArgs&) { received.fetch_add(1); });

  CommThreadPool pool(h.metrics, {&h.b.context(0), &h.b.context(1)}, 1);
  // Let the comm thread park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GT(h.metrics.total("comm.parks"), 0u)
      << "idle comm thread should have parked";

  SendParams p;
  p.dest = 1;
  p.dispatch = 9;
  h.a.context(0).send_immediate(p);
  while (received.load() == 0) std::this_thread::yield();
  pool.stop();
  EXPECT_EQ(received.load(), 1);
}

/// Polls `done` until it holds or 5 s pass; false on the deadline.
template <typename Pred>
bool eventually(Pred done) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

/// A posted-send handler that counts the items it sends in the
/// std::atomic<int> its owner points at.
void count_sends(void* owner, Context* ctx, void*) {
  if (ctx != nullptr) static_cast<std::atomic<int>*>(owner)->fetch_add(1);
}

TEST(CommThread, WakesFromParkOnPostedSend) {
  TwoNodeHarness h;
  std::atomic<int> handled{0};
  h.a.context(0).set_send_handler(count_sends, &handled);

  CommThreadPool pool(h.metrics, {&h.a.context(0)}, 1);
  ASSERT_TRUE(eventually([&] { return h.metrics.total("comm.parks") > 0; }))
      << "idle comm thread should have parked";

  int item = 0;
  h.a.context(0).post_send(&item);
  const bool sent = eventually([&] { return handled.load() == 1; });
  pool.stop();
  EXPECT_TRUE(sent)
      << "a send posted to a parked comm thread was never handled";
}

TEST(CommThread, PostedSendsFromManyThreadsRunExactlyOnce) {
  // Everything is posted before the pool starts, so each context's
  // 1 024-slot ring fills and the rest spills to its overflow queue.
  constexpr int kThreads = 4;
  constexpr int kItems = 10000;
  TwoNodeHarness h;
  // Each item is the counter of its own runs; the owner counts them all.
  std::vector<std::atomic<int>> runs(kItems);
  std::atomic<int> handled{0};
  auto run_once = [](void* owner, Context* ctx, void* item) {
    if (ctx == nullptr) return;
    static_cast<std::atomic<int>*>(item)->fetch_add(1);
    static_cast<std::atomic<int>*>(owner)->fetch_add(1);
  };
  for (unsigned c = 0; c < 2; ++c) {
    h.a.context(c).set_send_handler(run_once, &handled);
  }

  // Thread t posts items t, t + 4, ..., alternating between the contexts.
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t) {
    posters.emplace_back([&, t] {
      for (int i = t; i < kItems; i += kThreads) {
        h.a.context(static_cast<unsigned>(i / kThreads) % 2)
            .post_send(&runs[i]);
      }
    });
  }
  for (auto& t : posters) t.join();

  CommThreadPool pool(h.metrics, {&h.a.context(0), &h.a.context(1)}, 2);
  eventually([&] { return handled.load() >= kItems; });
  pool.stop();
  ASSERT_EQ(handled.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "item " << i;
  }
}

TEST(CommThread, RouteSpreadsLoadEvenly) {
  // The paper's even distribution: each worker's traffic covers all
  // contexts over consecutive sends.
  constexpr unsigned kContexts = 4;
  int hits[kContexts] = {};
  for (unsigned w = 0; w < 8; ++w) {
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
      ++hits[CommThreadPool::route(w, seq, kContexts)];
    }
  }
  for (unsigned c = 0; c < kContexts; ++c) EXPECT_EQ(hits[c], 200);
}

TEST(CommThread, StopIsIdempotent) {
  TwoNodeHarness h;
  CommThreadPool pool(h.metrics, {&h.a.context(0)}, 1);
  pool.stop();
  pool.stop();
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Dispatch-table bounds checking
// ---------------------------------------------------------------------------

TEST(Pami, DispatchIdOutOfRangeFailsLoudly) {
  TwoNodeHarness h;
  EXPECT_THROW(h.a.set_dispatch(Client::kMaxDispatch, [](const DispatchArgs&) {}),
               std::invalid_argument);
  // The lookup side must also be checked: a dispatch id off the wire can
  // be anything (one bit flip away from valid).
  EXPECT_THROW(h.a.dispatch(Client::kMaxDispatch), std::out_of_range);
  EXPECT_THROW(h.a.dispatch(0xFFFF), std::out_of_range);
  EXPECT_NO_THROW(h.a.dispatch(Client::kMaxDispatch - 1));
}

// ---------------------------------------------------------------------------
// Reliability protocol (pami/reliability.hpp) over a faulty fabric
// ---------------------------------------------------------------------------

using bgq::net::FaultPlan;
using bgq::pami::ReliabilityParams;

ReliabilityParams fast_rto() {
  ReliabilityParams rp;
  rp.rto_ns = 50'000;  // this host schedules threads far apart; keep the
  rp.rto_max_ns = 2'000'000;  // test quick without retry storms
  return rp;
}

/// Advance both endpoints until `done` holds or `ms` elapses.
template <typename Done>
bool drive_until(TwoNodeHarness& h, Done done, int ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    h.a.context(0).advance();
    h.b.context(0).advance();
    if (done()) return true;
  }
  return done();
}

TEST(PamiReliability, ExactlyOnceUnderHeavyDrop) {
  TwoNodeHarness h;
  h.fabric.set_fault_plan(FaultPlan::parse("drop=0.5,seed=11"));
  h.a.enable_reliability(fast_rto());
  h.b.enable_reliability(fast_rto());

  std::atomic<int> delivered{0};
  h.b.set_dispatch(5, [&](const DispatchArgs&) { delivered.fetch_add(1); });

  constexpr int kMsgs = 50;
  for (int i = 0; i < kMsgs; ++i) {
    SendParams p;
    p.dest = 1;
    p.dispatch = 5;
    p.payload = &i;
    p.payload_bytes = sizeof(i);
    h.a.context(0).send_immediate(p);
  }
  ASSERT_TRUE(drive_until(h, [&] { return delivered.load() >= kMsgs; }))
      << "only " << delivered.load() << "/" << kMsgs << " delivered";
  EXPECT_EQ(delivered.load(), kMsgs) << "exactly once, never more";
  EXPECT_GT(h.metrics.total("net.retransmits"), 0u)
      << "half the packets dropped: the protocol must have retransmitted";
  EXPECT_GT(h.metrics.total("net.drops"), 0u);
}

TEST(PamiReliability, DedupUnderGuaranteedDuplication) {
  TwoNodeHarness h;
  h.fabric.set_fault_plan(FaultPlan::parse("dup=1.0,seed=12"));
  h.a.enable_reliability(fast_rto());
  h.b.enable_reliability(fast_rto());

  std::atomic<int> delivered{0};
  h.b.set_dispatch(5, [&](const DispatchArgs&) { delivered.fetch_add(1); });

  constexpr int kMsgs = 20;
  for (int i = 0; i < kMsgs; ++i) {
    SendParams p;
    p.dest = 1;
    p.dispatch = 5;
    h.a.context(0).send_immediate(p);
  }
  ASSERT_TRUE(drive_until(h, [&] { return delivered.load() >= kMsgs; }));
  // Let the duplicate copies flush through, then confirm none dispatched.
  drive_until(h, [&] { return false; }, 50);
  EXPECT_EQ(delivered.load(), kMsgs)
      << "every transfer delivered twice by the fabric, dispatched once";
  EXPECT_GT(h.metrics.total("net.dedup_drops"), 0u);
}

TEST(PamiReliability, ChecksumCatchesCorruptionAndRetransmitRecovers) {
  TwoNodeHarness h;
  // Half the transmissions take a bit flip; the clean retransmission
  // eventually lands.
  h.fabric.set_fault_plan(FaultPlan::parse("bitflip=0.5,seed=13"));
  h.a.enable_reliability(fast_rto());
  h.b.enable_reliability(fast_rto());

  std::atomic<int> delivered{0};
  std::atomic<int> bad_payloads{0};
  h.b.set_dispatch(5, [&](const DispatchArgs& a) {
    std::uint32_t v = 0;
    std::memcpy(&v, a.payload, sizeof(v));
    if (v != 0xC0FFEEu) bad_payloads.fetch_add(1);
    delivered.fetch_add(1);
  });

  constexpr int kMsgs = 20;
  for (int i = 0; i < kMsgs; ++i) {
    const std::uint32_t v = 0xC0FFEEu;
    SendParams p;
    p.dest = 1;
    p.dispatch = 5;
    p.payload = &v;
    p.payload_bytes = sizeof(v);
    h.a.context(0).send_immediate(p);
  }
  ASSERT_TRUE(drive_until(h, [&] { return delivered.load() >= kMsgs; }));
  EXPECT_EQ(delivered.load(), kMsgs);
  EXPECT_EQ(bad_payloads.load(), 0)
      << "corrupted packets must never reach dispatch";
  EXPECT_GT(h.metrics.total("net.corrupt_drops"), 0u);
  EXPECT_GT(h.metrics.total("net.bitflips"), 0u);
}

TEST(PamiReliability, WindowFullTriggersBackpressureThenDrains) {
  TwoNodeHarness h;
  ReliabilityParams rp = fast_rto();
  rp.window = 4;
  rp.rto_ns = 500'000'000;  // no retransmit noise in this test
  h.a.enable_reliability(rp);
  h.b.enable_reliability(rp);

  std::atomic<int> delivered{0};
  h.b.set_dispatch(5, [&](const DispatchArgs&) { delivered.fetch_add(1); });

  constexpr int kMsgs = 40;
  for (int i = 0; i < kMsgs; ++i) {
    SendParams p;
    p.dest = 1;
    p.dispatch = 5;
    h.a.context(0).send_immediate(p);
  }
  // Only a window's worth may be in flight; the rest stalled locally.
  EXPECT_GT(h.metrics.total("comm.backpressure_stalls"), 0u);
  ASSERT_TRUE(drive_until(h, [&] { return delivered.load() >= kMsgs; }));
  EXPECT_EQ(delivered.load(), kMsgs) << "backlog drains without loss";
}

TEST(PamiReliability, RetriesExhaustedFailsLoudlyInsteadOfHanging) {
  TwoNodeHarness h;
  h.fabric.set_fault_plan(FaultPlan::parse("drop=1.0"));
  ReliabilityParams rp = fast_rto();
  rp.rto_ns = 1'000;  // immediate expiry
  rp.rto_max_ns = 1'000;
  rp.max_retries = 3;
  h.a.enable_reliability(rp);
  h.b.enable_reliability(rp);

  SendParams p;
  p.dest = 1;
  p.dispatch = 5;
  h.a.context(0).send_immediate(p);

  EXPECT_THROW(
      {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(5);
        while (std::chrono::steady_clock::now() < deadline) {
          h.a.context(0).advance();
        }
      },
      std::runtime_error)
      << "an unreachable peer must surface as an error, not a hang";
}

TEST(PamiReliability, BacklogOverflowThrowsInsteadOfUnboundedMemory) {
  TwoNodeHarness h;
  ReliabilityParams rp = fast_rto();
  rp.window = 1;
  rp.backlog_max = 8;
  rp.rto_ns = 500'000'000;
  h.a.enable_reliability(rp);
  h.b.enable_reliability(rp);

  auto send_one = [&] {
    SendParams p;
    p.dest = 1;
    p.dispatch = 5;
    h.a.context(0).send_immediate(p);
  };
  send_one();  // occupies the window
  for (int i = 0; i < 8; ++i) send_one();  // fills the backlog
  EXPECT_THROW(send_one(), std::runtime_error);
}

TEST(PamiReliability, LosslessFastPathKeepsCountersAtZero) {
  TwoNodeHarness h;  // no fault plan, no reliability: the seed fast path
  std::atomic<int> delivered{0};
  h.b.set_dispatch(5, [&](const DispatchArgs&) { delivered.fetch_add(1); });
  SendParams p;
  p.dest = 1;
  p.dispatch = 5;
  h.a.context(0).send_immediate(p);
  EXPECT_EQ(h.b.context(0).advance(), 1u);
  EXPECT_EQ(delivered.load(), 1);
  for (const char* name :
       {"net.retransmits", "comm.backpressure_stalls", "net.dedup_drops",
        "net.corrupt_drops", "net.dup_acks", "net.drops",
        "net.fifo.spills"}) {
    EXPECT_EQ(h.metrics.total(name), 0u) << name;
  }
}

TEST(PamiReliability, PiggybackedAcksRideReverseTraffic) {
  TwoNodeHarness h;
  h.a.enable_reliability(fast_rto());
  h.b.enable_reliability(fast_rto());

  std::atomic<int> pings{0}, pongs{0};
  // b's handler replies immediately: the reply (sent from inside the
  // dispatch, before b's advance() flushes standalone acks) must carry
  // the ack for the ping it answers.
  h.b.set_dispatch(5, [&](const DispatchArgs& a) {
    pings.fetch_add(1);
    SendParams r;
    r.dest = a.origin;
    r.dispatch = 6;
    a.context->send_immediate(r);
  });
  h.a.set_dispatch(6, [&](const DispatchArgs&) { pongs.fetch_add(1); });

  constexpr int kRounds = 10;
  for (int i = 0; i < kRounds; ++i) {
    SendParams p;
    p.dest = 1;
    p.dispatch = 5;
    h.a.context(0).send_immediate(p);
    ASSERT_TRUE(drive_until(h, [&] { return pongs.load() > i; }));
  }
  EXPECT_EQ(pings.load(), kRounds);
  EXPECT_GT(h.metrics.total("net.acks.piggybacked"), 0u)
      << "replies should carry acks instead of separate ack packets";
}

TEST(PamiReliability, DedupHorizonBoundsTableAndStillDedups) {
  TwoNodeHarness h;
  ReliabilityParams rp = fast_rto();
  rp.dedup_horizon = 4;  // tiny on purpose: age entries out fast
  h.a.enable_reliability(rp);
  h.b.enable_reliability(rp);

  std::atomic<int> delivered{0};
  h.b.set_dispatch(5, [&](const DispatchArgs&) { delivered.fetch_add(1); });

  // First packet vanishes: its seq becomes a persistent gap, so every
  // later seq sits in the above-watermark dedup table instead of folding
  // into the cumulative watermark.
  h.fabric.set_fault_plan(FaultPlan::parse("drop=1.0"));
  SendParams p;
  p.dest = 1;
  p.dispatch = 5;
  h.a.context(0).send_immediate(p);
  h.fabric.set_fault_plan(FaultPlan{});

  // Nine clean packets: the table grows past the horizon and the oldest
  // entries age out (that is the bound under test).
  constexpr int kLater = 9;
  for (int i = 0; i < kLater; ++i) h.a.context(0).send_immediate(p);
  ASSERT_TRUE(drive_until(h, [&] { return delivered.load() >= kLater; }));
  EXPECT_GT(h.metrics.total("net.dedup.evicted"), 0u)
      << "a >horizon backlog above a gap must evict aged entries";

  // The dropped packet's retransmit now arrives far below max_seen: the
  // horizon classifies it as an ancient duplicate (its would-be table
  // entry is long gone) and it is acked but never dispatched, so the
  // sender drains instead of retrying forever.
  drive_until(h, [&] { return h.a.context(0).outstanding() == 0; }, 200);
  EXPECT_EQ(h.a.context(0).outstanding(), 0u);
  EXPECT_EQ(delivered.load(), kLater) << "horizon must not re-dispatch";
  EXPECT_GT(h.metrics.total("net.dedup_drops"), 0u);
}

TEST(PamiReliability, DeadPeerPendingAndBacklogAreCulled) {
  TwoNodeHarness h;
  ReliabilityParams rp = fast_rto();
  rp.window = 2;  // force part of the burst into the backlog
  h.a.enable_reliability(rp);
  h.b.enable_reliability(rp);

  SendParams p;
  p.dest = 1;
  p.dispatch = 5;

  h.fabric.kill_endpoint(1);
  // A window's worth of sends injects straight into the blackhole; the
  // rest queue behind the (never-acked) window in the local backlog.
  for (int i = 0; i < 6; ++i) h.a.context(0).send_immediate(p);
  // Unacked copies and backlogged sends to the dead endpoint are culled
  // at the reliability tick — no retry storm, no retries-exhausted throw.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline &&
         (h.a.context(0).outstanding() != 0 ||
          h.a.context(0).backlog_size() != 0)) {
    h.a.context(0).advance();
  }
  EXPECT_EQ(h.a.context(0).outstanding(), 0u);
  EXPECT_EQ(h.a.context(0).backlog_size(), 0u);
  EXPECT_GT(h.metrics.total("net.dead_peer_drops"), 0u);
  EXPECT_GT(h.metrics.total("net.blackholed"), 0u)
      << "in-flight traffic to the dead endpoint is swallowed";
}

}  // namespace
