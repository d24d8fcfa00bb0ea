// Additional coverage: fabric endpoint addressing, BG/P network
// parameters, message layout, allocator pool-hit accounting under
// threads, and ordered-queue total order under a concurrent consumer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "alloc/pool_allocator.hpp"
#include "converse/message.hpp"
#include "net/fabric.hpp"
#include "net/params.hpp"
#include "queue/ordered_l2_queue.hpp"
#include "topology/torus.hpp"

namespace {

using bgq::net::Fabric;
using bgq::net::NetworkParams;
using bgq::net::Packet;
using bgq::topo::Torus;

TEST(FabricEndpoints, MultipleProcessesShareANode) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, /*fifos=*/1, /*endpoints_per_node=*/4);
  EXPECT_EQ(f.endpoint_count(), 8u);
  EXPECT_EQ(f.node_of(0), 0u);
  EXPECT_EQ(f.node_of(3), 0u);
  EXPECT_EQ(f.node_of(4), 1u);
  EXPECT_EQ(f.node_of(7), 1u);
}

TEST(FabricEndpoints, SameNodeLoopbackPaysOnlyBaseLatency) {
  Torus t({2});
  Fabric f(t, NetworkParams{}, 1, 2);
  auto send = [&](bgq::topo::NodeId dst) {
    Packet* p = Packet::create(0, 32);
    p->src = 0;
    p->dst = dst;
    f.inject(p);
    Packet* got = f.reception_fifo(dst, 0).poll();
    const auto w = got->wire_ns;
    got->release();
    return w;
  };
  const auto same_node = send(1);   // endpoint 1: node 0 (loopback)
  const auto next_node = send(2);   // endpoint 2: node 1 (one hop)
  EXPECT_LE(same_node, next_node);
  EXPECT_EQ(same_node, NetworkParams{}.wire_time_ns(32, 0));
}

TEST(NetworkParams, BgpIsSlowerThanBgq) {
  const auto q = NetworkParams{};
  const auto p = bgq::net::bgp_network_params();
  EXPECT_GT(p.base_latency_ns, q.base_latency_ns);
  EXPECT_LT(p.link_bandwidth_gb_s, q.link_bandwidth_gb_s);
  EXPECT_GT(p.wire_time_ns(65536, 4), q.wire_time_ns(65536, 4));
}

TEST(Message, HeaderLayoutAndAccessors) {
  // One layout in every build: delivery fields plus the causal-trace id
  // and hop stamp.
  using bgq::cvs::MsgHeader;
  static_assert(sizeof(MsgHeader) == 32);
  alignas(16) unsigned char raw[sizeof(MsgHeader) + 48] = {};
  auto* m = bgq::cvs::Message::from_raw(raw);
  m->header().payload_bytes = 48;
  m->header().handler = 7;
  m->header().src_pe = 3;
  m->header().dst_pe = 5;
  m->header().trace_id = (std::uint64_t{4} << 32) | 9;
  EXPECT_EQ(m->payload_bytes(), 48u);
  EXPECT_EQ(m->total_bytes(), sizeof(MsgHeader) + 48u);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(m->payload()),
            raw + sizeof(MsgHeader));
  EXPECT_EQ(m->header().trace_id >> 32, 4u);
  EXPECT_EQ(m->header().trace_id & 0xffffffffu, 9u);
}

TEST(PoolAllocator, SteadyStateRecyclingIsAllPoolHits) {
  // The §III-B steady state: buffers freed (from another thread slot, the
  // paper's receiver-frees-sender's-buffer pattern) return to the owner's
  // pool, so subsequent allocations never touch the heap.
  bgq::alloc::PoolAllocator a(2, 256);
  constexpr int kRounds = 500;
  constexpr int kBatch = 32;

  // Warm: one batch through the cycle populates the pool.
  std::vector<void*> bufs;
  for (int i = 0; i < kBatch; ++i) bufs.push_back(a.allocate(0, 128));
  for (void* p : bufs) a.deallocate(1, p);  // cross-thread free
  const auto heap_before = a.heap_allocs();
  const auto hits_before = a.pool_hits();

  for (int round = 0; round < kRounds; ++round) {
    bufs.clear();
    for (int i = 0; i < kBatch; ++i) bufs.push_back(a.allocate(0, 128));
    for (void* p : bufs) a.deallocate(1, p);
  }

  EXPECT_EQ(a.heap_allocs(), heap_before)
      << "steady-state allocations must come from the pool";
  EXPECT_EQ(a.pool_hits() - hits_before,
            static_cast<std::uint64_t>(kRounds) * kBatch);
}

TEST(OrderedL2Queue, TotalOrderWithConcurrentConsumer) {
  // Single producer, tiny ring (constant overflow pressure), concurrent
  // consumer: delivery must be the exact production order.
  bgq::queue::OrderedL2Queue<std::uint64_t*> q(4);
  constexpr std::uint64_t kN = 50000;
  std::atomic<bool> ok{true};

  std::thread consumer([&] {
    std::uint64_t expect = 1;
    while (expect <= kN) {
      if (auto* p = q.try_dequeue()) {
        if (reinterpret_cast<std::uint64_t>(p) != expect) {
          ok.store(false);
          return;
        }
        ++expect;
      }
    }
  });
  for (std::uint64_t i = 1; i <= kN; ++i) {
    q.enqueue(reinterpret_cast<std::uint64_t*>(i));
  }
  consumer.join();
  EXPECT_TRUE(ok.load()) << "MPI-semantics queue must preserve FIFO";
}

}  // namespace
