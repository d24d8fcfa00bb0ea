// Tests for the in-process fabric (src/net).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <tuple>

#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "net/params.hpp"
#include "topology/torus.hpp"
#include "wakeup/wakeup_unit.hpp"

namespace {

using bgq::net::Fabric;
using bgq::net::MemRegion;
using bgq::net::NetworkParams;
using bgq::net::Packet;
using bgq::net::TransferKind;
using bgq::topo::Torus;

std::vector<std::byte> bytes_of(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

/// A mem-FIFO packet from endpoint `src` to `dst` with a zeroed payload.
Packet* make_packet(bgq::topo::NodeId src, bgq::topo::NodeId dst,
                    std::size_t payload_bytes = 0) {
  Packet* p = Packet::create(0, payload_bytes);
  p->src = src;
  p->dst = dst;
  std::memset(p->payload(), 0, payload_bytes);
  return p;
}

TEST(NetworkParams, PacketCountRoundsUp) {
  NetworkParams p;
  EXPECT_EQ(p.packets_for(0), 1u);
  EXPECT_EQ(p.packets_for(1), 1u);
  EXPECT_EQ(p.packets_for(512), 1u);
  EXPECT_EQ(p.packets_for(513), 2u);
  EXPECT_EQ(p.packets_for(5 * 512), 5u);
}

TEST(NetworkParams, WireTimeMonotoneInSizeAndHops) {
  NetworkParams p;
  EXPECT_LT(p.wire_time_ns(32, 1), p.wire_time_ns(4096, 1));
  EXPECT_LT(p.wire_time_ns(32, 1), p.wire_time_ns(32, 8));
  // Large transfers approach bandwidth-bound time: 1 MB at 1.8 GB/s is
  // about 580 us.
  const double us = static_cast<double>(p.wire_time_ns(1 << 20, 2)) * 1e-3;
  EXPECT_GT(us, 500.0);
  EXPECT_LT(us, 700.0);
}

TEST(NetworkParams, ShortMessageLatencyIsSubMicrosecond) {
  // Hardware MU-to-MU nearest neighbour is ~600 ns for tiny packets; the
  // software stack on top brings the paper's 2.9 us Converse figure.
  NetworkParams p;
  EXPECT_LT(p.wire_time_ns(32, 1), 1000u);
}

TEST(Fabric, MemFifoDeliversToCorrectNodeAndFifo) {
  Torus t({2, 2});
  Fabric f(t, NetworkParams{}, /*rec_fifos_per_node=*/2);

  Packet* p = make_packet(0, 3, 5);
  p->rec_fifo = 1;
  p->dispatch = 7;
  std::memcpy(p->payload(), "hello", 5);
  f.inject(p);

  EXPECT_EQ(f.reception_fifo(3, 0).poll(), nullptr);
  Packet* got = f.reception_fifo(3, 1).poll();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->dispatch, 7);
  EXPECT_EQ(got->payload_bytes, 5u);
  EXPECT_EQ(std::memcmp(got->payload(), "hello", 5), 0);
  EXPECT_GT(got->wire_ns, 0u);
  EXPECT_EQ(got->num_packets, 1u);
  got->release();
}

TEST(Fabric, WireTimeReflectsHopDistance) {
  Torus t({8, 1});
  Fabric f(t, NetworkParams{}, 1);

  auto send = [&](bgq::topo::NodeId dst) {
    f.inject(make_packet(0, dst, 32));
    Packet* got = f.reception_fifo(dst, 0).poll();
    const std::uint64_t w = got->wire_ns;
    got->release();
    return w;
  };
  EXPECT_LT(send(1), send(4));  // 1 hop vs 4 hops
}

TEST(Fabric, RdmaReadCopiesRemoteBuffer) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);

  std::vector<std::byte> src_buf = bytes_of("remote-data");
  std::vector<std::byte> dst_buf(src_buf.size());

  bool completed = false;
  Packet* p = Packet::create_rdma(TransferKind::kRdmaRead, src_buf.data(),
                                  dst_buf.data(), src_buf.size(),
                                  [&completed] { completed = true; });
  p->src = 1;  // data source
  p->dst = 0;  // requester, receives completion
  f.inject(p);

  Packet* got = f.reception_fifo(0, 0).poll();
  ASSERT_NE(got, nullptr);
  ASSERT_NE(got->rdma().run, nullptr);
  EXPECT_FALSE(completed) << "the completion runs on the receiver's poll";
  got->complete();
  got->release();

  EXPECT_TRUE(completed);
  EXPECT_EQ(std::memcmp(dst_buf.data(), src_buf.data(), src_buf.size()), 0);
}

TEST(Fabric, RdmaReadPaysSetupRoundTrip) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  std::vector<std::byte> buf(256);

  f.inject(make_packet(0, 1, 256));
  Packet* e = f.reception_fifo(1, 0).poll();

  // A copy of size 0 keeps src == dst harmless.
  Packet* rd = Packet::create_rdma(TransferKind::kRdmaRead, buf.data(),
                                   buf.data(), 0, {});
  rd->src = 0;
  rd->dst = 1;
  f.inject(rd);
  Packet* r = f.reception_fifo(1, 0).poll();

  EXPECT_GT(r->wire_ns, e->wire_ns) << "rget adds request round trip";
  e->release();
  r->release();
}

TEST(Fabric, PacketArrivalWakesGate) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  auto& fifo = f.reception_fifo(1, 0);
  bgq::wakeup::WaitGate gate;
  fifo.bind_gate(&gate);

  std::atomic<bool> got_packet{false};
  std::thread commthread([&] {
    for (;;) {
      if (Packet* p = fifo.poll()) {
        p->release();
        got_packet.store(true);
        return;
      }
      gate.park([&] { return !fifo.empty(); });
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  f.inject(make_packet(0, 1));
  commthread.join();
  EXPECT_TRUE(got_packet.load());
}

TEST(Fabric, StatsAccumulate) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  for (int i = 0; i < 3; ++i) f.inject(make_packet(0, 1, 1024));
  for (int i = 0; i < 2; ++i) {
    Packet* got = f.reception_fifo(1, 0).poll();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->num_packets, 2u);  // 1024 B = 2 packets
    got->release();
  }
  // Fabric destructor frees the undelivered packet (ASan verifies).
}

TEST(Fabric, ZeroFifosRejected) {
  Torus t({2});
  EXPECT_THROW(Fabric(t, NetworkParams{}, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault injection (net/fault.hpp)
// ---------------------------------------------------------------------------

using bgq::net::FaultPlan;

Packet* make_mem_packet(std::size_t payload_bytes = 32) {
  return make_packet(0, 1, payload_bytes);
}

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan p = FaultPlan::parse(
      "drop=0.01,dup=0.02,delay=0.03,bitflip=0.004,maxdelay=5,reject=1,"
      "seed=42");
  EXPECT_DOUBLE_EQ(p.drop, 0.01);
  EXPECT_DOUBLE_EQ(p.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(p.delay, 0.03);
  EXPECT_DOUBLE_EQ(p.bitflip, 0.004);
  EXPECT_EQ(p.max_delay_injects, 5u);
  EXPECT_TRUE(p.reject_on_full);
  EXPECT_EQ(p.seed, 42u);
  EXPECT_TRUE(p.enabled());
}

TEST(FaultPlan, EmptySpecIsDisabled) {
  EXPECT_FALSE(FaultPlan::parse("").enabled());
  EXPECT_FALSE(FaultPlan{}.enabled());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  EXPECT_THROW(FaultPlan::parse("drop=2.0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("unknown=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("maxdelay=0"), std::invalid_argument);
}

TEST(FaultyFabric, DropEverythingDeliversNothing) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  f.set_fault_plan(FaultPlan::parse("drop=1.0"));
  for (int i = 0; i < 10; ++i) f.inject(make_mem_packet());
  EXPECT_EQ(f.reception_fifo(1, 0).poll(), nullptr);
  EXPECT_EQ(f.faults_dropped(), 10u);
}

TEST(FaultyFabric, DuplicateDeliversTwice) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  f.set_fault_plan(FaultPlan::parse("dup=1.0"));
  f.inject(make_mem_packet());
  int delivered = 0;
  while (Packet* p = f.reception_fifo(1, 0).poll()) {
    ++delivered;
    p->release();
  }
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(f.faults_duplicated(), 1u);
}

TEST(FaultyFabric, BitflipCorruptsChecksummedPayload) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  f.set_fault_plan(FaultPlan::parse("bitflip=1.0"));
  Packet* p = make_mem_packet(64);
  const std::uint64_t clean = bgq::net::packet_checksum(*p);
  p->checksum = clean;
  f.inject(p);
  Packet* got = f.reception_fifo(1, 0).poll();
  ASSERT_NE(got, nullptr);
  EXPECT_NE(bgq::net::packet_checksum(*got), clean)
      << "one flipped bit must change the checksum";
  EXPECT_EQ(f.faults_corrupted(), 1u);
  got->release();
}

TEST(FaultyFabric, DelayedPacketMaturesOnLaterInjects) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  f.set_fault_plan(FaultPlan::parse("delay=1.0,maxdelay=1,seed=3"));
  // First packet is held back behind exactly one later inject.
  Packet* first = make_mem_packet();
  first->dispatch = 11;
  f.inject(first);
  EXPECT_EQ(f.reception_fifo(1, 0).poll(), nullptr);
  EXPECT_EQ(f.faults_delayed(), 1u);
  // The second inject matures it — but the second packet is itself
  // delayed, so only the first (reordered behind) comes out.
  Packet* second = make_mem_packet();
  second->dispatch = 22;
  f.inject(second);
  Packet* got = f.reception_fifo(1, 0).poll();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->dispatch, 11);
  got->release();
  // Fabric destructor frees the still-delayed second packet (ASan checks).
}

TEST(FaultyFabric, RdmaTransfersAreNeverFaulted) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  f.set_fault_plan(FaultPlan::parse("drop=1.0,dup=1.0,delay=1.0"));
  std::vector<std::byte> src_buf = bytes_of("dma"), dst_buf(3);
  Packet* p = Packet::create_rdma(TransferKind::kRdmaWrite, src_buf.data(),
                                  dst_buf.data(), src_buf.size(), {});
  p->src = 0;
  p->dst = 1;
  f.inject(p);
  Packet* got = f.reception_fifo(1, 0).poll();
  ASSERT_NE(got, nullptr) << "RDMA models the MU DMA engine: reliable";
  got->release();
  EXPECT_EQ(std::memcmp(dst_buf.data(), src_buf.data(), 3), 0);
  EXPECT_EQ(f.faults_dropped(), 0u);
}

TEST(FaultyFabric, RejectOnFullRefusesIntoFullFifo) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1, 1, /*fifo_capacity=*/4);
  f.set_fault_plan(FaultPlan::parse("reject=1"));
  for (int i = 0; i < 10; ++i) f.inject(make_mem_packet());
  int delivered = 0;
  while (Packet* p = f.reception_fifo(1, 0).poll()) {
    ++delivered;
    p->release();
  }
  // The lockless ring holds capacity-1 entries; everything beyond it was
  // refused and counted.
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, 10);
  EXPECT_EQ(f.fifo_rejects(), 10u - static_cast<unsigned>(delivered));
}

TEST(FaultyFabric, LosslessModeSpillsBeyondCapacityAndCounts) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1, 1, /*fifo_capacity=*/4);
  for (int i = 0; i < 10; ++i) f.inject(make_mem_packet());
  int delivered = 0;
  while (Packet* p = f.reception_fifo(1, 0).poll()) {
    ++delivered;
    p->release();
  }
  EXPECT_EQ(delivered, 10) << "default fabric is lossless: spills, not drops";
  EXPECT_GT(f.fifo_spills(), 0u);
}

TEST(FaultyFabric, SeededPlanIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    Torus t({2});
    Fabric f(t, NetworkParams{}, 1);
    FaultPlan plan = FaultPlan::parse("drop=0.3,dup=0.3,delay=0.2");
    plan.seed = seed;
    f.set_fault_plan(plan);
    for (int i = 0; i < 200; ++i) f.inject(make_mem_packet());
    int delivered = 0;
    while (Packet* p = f.reception_fifo(1, 0).poll()) {
      ++delivered;
      p->release();
    }
    return std::tuple{delivered, f.faults_dropped(), f.faults_duplicated(),
                      f.faults_delayed()};
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8)) << "different seed, different fault schedule";
}

TEST(FaultyFabric, DisabledPlanRemovesChaosLayer) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1);
  f.set_fault_plan(FaultPlan::parse("drop=1.0"));
  EXPECT_TRUE(f.faults_enabled());
  f.set_fault_plan(FaultPlan{});
  EXPECT_FALSE(f.faults_enabled());
  f.inject(make_mem_packet());
  Packet* got = f.reception_fifo(1, 0).poll();
  ASSERT_NE(got, nullptr);
  got->release();
}

}  // namespace
