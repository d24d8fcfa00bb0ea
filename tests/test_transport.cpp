// Transport-subsystem conformance suite.
//
// Three layers of checks, cheapest first:
//
//   * the wire frames (packet buffers, hostile-frame rejection, the ctrl
//     codec) and the Config grammar (pure functions);
//   * direct backend contracts — delivery, per-pair ordering, the
//     control plane, shared liveness/death state, ring-full
//     backpressure, a malformed frame killing its sender instead of the
//     receiver — driven on transport pairs living in this process (the
//     shm segment and socket mesh don't care whether the ranks are
//     processes or threads);
//   * machine-level checks on 2-rank jobs run as two Machines on two
//     threads, one emulated process each: an shm ping-pong whose data
//     frames must not ring the poller's doorbell while the workers drain
//     inline, and the oracle — the same deterministic FFT mini-app over
//     shm (in every machine mode) and socket must reproduce the
//     in-process run's per-element digests bit-for-bit, including under
//     a chaos fault plan, where the reliability protocol hides the
//     drops.
//
// The multi-OS-process version of the oracle (real fork/exec ranks,
// crash + recovery) lives in tools/bgq-run; CI drives it directly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "charm/ft_apps.hpp"
#include "common/hash.hpp"
#include "net/fault.hpp"
#include "trace/registry.hpp"
#include "transport/config.hpp"
#include "transport/shm.hpp"
#include "transport/socket.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace {

using bgq::charm::FtFft2D;
using bgq::charm::Runtime;
using bgq::cvs::HandlerId;
using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Message;
using bgq::cvs::Mode;
using bgq::cvs::Pe;
using bgq::net::Packet;
using bgq::net::PacketPtr;
using bgq::net::TransferKind;
using bgq::trace::Registry;
using bgq::transport::Config;
using bgq::transport::CtrlMsg;
using bgq::transport::DeliverySink;
using bgq::transport::InProcTransport;
using bgq::transport::Kind;
using bgq::transport::ShmTransport;
using bgq::transport::SocketTransport;
using bgq::transport::Transport;

/// Job-unique session tag: concurrent ctest invocations must not share
/// shm segments or socket paths.
std::string session(const char* tag) {
  return std::string("t") + std::to_string(::getpid()) + tag;
}

Config pair_config(Kind kind, unsigned nprocs, unsigned rank,
                   const std::string& sess) {
  Config c;
  c.kind = kind;
  c.nprocs = nprocs;
  c.rank = rank;
  c.session = sess;
  return c;
}

/// Sink that keeps every delivered packet (order-preserving).
struct CaptureSink final : DeliverySink {
  std::mutex mu;
  std::vector<PacketPtr> got;
  void deliver_remote(Packet* p) override {
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(p);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return got.size();
  }
};

/// Ctrl handler that keeps every message.
struct CtrlCapture {
  std::mutex mu;
  std::vector<CtrlMsg> got;
  void attach(Transport& t) {
    t.set_ctrl_handler([this](const CtrlMsg& m) {
      std::lock_guard<std::mutex> lock(mu);
      got.push_back(m);
    });
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return got.size();
  }
};

Packet* make_packet(unsigned src, unsigned dst, std::uint64_t seq,
                    std::size_t payload_bytes = 32) {
  Packet* p = Packet::create(0, payload_bytes);
  p->src = static_cast<bgq::topo::NodeId>(src);
  p->dst = static_cast<bgq::topo::NodeId>(dst);
  p->dispatch = 7;
  p->seq = seq;
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    p->payload()[i] = static_cast<std::byte>((seq * 131 + i) & 0xff);
  }
  p->checksum = bgq::net::packet_checksum(*p);
  return p;
}

/// Poll `t` until `done()` or the deadline; returns whether done() held.
template <typename Pred>
bool poll_until(Transport& t, Pred done,
                std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    t.poll();
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// ---- wire frames -----------------------------------------------------------

namespace wire = bgq::transport::wire;
using wire::FrameError;

/// A fully populated mem-FIFO packet: every header field set, 11 bytes of
/// metadata, 300 of payload and 3 acks.
PacketPtr sample_packet() {
  PacketPtr p(Packet::create(11, 300, 3));
  p->src = 3;
  p->dst = 1;
  p->dispatch = 0x1234;
  p->rec_fifo = 2;
  p->src_ctx = 5;
  p->flags = bgq::net::kPktReliable;
  p->seq = 0x1122334455667788ull;
  p->cid = 42;
  p->wire_ns = 1234567;
  p->num_packets = 9;
  for (int i = 0; i < 11; ++i) p->metadata()[i] = std::byte(i);
  for (int i = 0; i < 300; ++i) p->payload()[i] = std::byte(i & 0xff);
  p->set_ack(0, 1);
  p->set_ack(1, 2);
  p->set_ack(2, 1000000007);
  p->checksum = bgq::net::packet_checksum(*p);
  return p;
}

/// The frame of `p` as a byte vector (what a ring or socket carries).
std::vector<std::byte> frame_bytes(const Packet& p) {
  const auto f = wire::frame_of(p);
  return {f.begin(), f.end()};
}

TEST(Wire, PacketRoundTripPreservesEveryField) {
  const PacketPtr p = sample_packet();
  const std::vector<std::byte> frame = frame_bytes(*p);

  // The buffer is the frame: header + metadata + payload + 8 B per ack,
  // starting with the u32 length and the type byte every frame has.
  ASSERT_EQ(frame.size(), sizeof(Packet) + 11 + 300 + 3 * 8);
  EXPECT_EQ(wire::frame_length(frame.data()), frame.size());
  EXPECT_EQ(wire::frame_type(frame.data()), wire::kFrameData);

  const PacketPtr q(wire::decode_packet(frame.data(), frame.size()));
  EXPECT_EQ(q->kind, TransferKind::kMemFifo);
  EXPECT_EQ(q->src, p->src);
  EXPECT_EQ(q->dst, p->dst);
  EXPECT_EQ(q->dispatch, p->dispatch);
  EXPECT_EQ(q->rec_fifo, p->rec_fifo);
  EXPECT_EQ(q->src_ctx, p->src_ctx);
  EXPECT_EQ(q->flags, p->flags);
  EXPECT_EQ(q->seq, p->seq);
  EXPECT_EQ(q->checksum, p->checksum);
  EXPECT_EQ(q->cid, p->cid);
  EXPECT_EQ(q->wire_ns, p->wire_ns);
  EXPECT_EQ(q->num_packets, p->num_packets);
  ASSERT_EQ(q->meta_bytes, p->meta_bytes);
  ASSERT_EQ(q->payload_bytes, p->payload_bytes);
  ASSERT_EQ(q->nacks, p->nacks);
  EXPECT_EQ(std::memcmp(q->metadata(), p->metadata(), p->meta_bytes), 0);
  EXPECT_EQ(std::memcmp(q->payload(), p->payload(), p->payload_bytes), 0);
  for (std::size_t i = 0; i < p->nacks; ++i) EXPECT_EQ(q->ack(i), p->ack(i));
  // The receiver re-verifies the checksum over what it received: the
  // copy is transparent, so the value matches the sender's.
  EXPECT_EQ(bgq::net::packet_checksum(*q), p->checksum);
}

TEST(Wire, CtrlRoundTrip) {
  CtrlMsg m;
  m.type = 19;
  m.origin = 3;
  m.a = 0xA5A5A5A5ull;
  m.b = 77;
  m.c = ~0ull;
  for (int i = 0; i < 1000; ++i) m.blob.push_back(std::byte(i * 7));

  std::vector<std::byte> frame;
  wire::encode_ctrl(m, frame);
  EXPECT_EQ(wire::frame_length(frame.data()), frame.size());
  EXPECT_EQ(wire::frame_type(frame.data()), wire::kFrameCtrl);
  const CtrlMsg d = wire::decode_ctrl(frame.data() + wire::kFrameOverhead,
                                      frame.size() - wire::kFrameOverhead);
  EXPECT_EQ(d.type, m.type);
  EXPECT_EQ(d.origin, m.origin);
  EXPECT_EQ(d.a, m.a);
  EXPECT_EQ(d.b, m.b);
  EXPECT_EQ(d.c, m.c);
  EXPECT_EQ(d.blob, m.blob);
}

TEST(Wire, TruncatedFrameIsALoudError) {
  CtrlMsg m;
  m.blob.resize(64);
  std::vector<std::byte> frame;
  wire::encode_ctrl(m, frame);
  // Chop the body: the bounds-checked reader must throw, not wild-read.
  EXPECT_THROW(wire::decode_ctrl(frame.data() + wire::kFrameOverhead,
                                 frame.size() - wire::kFrameOverhead - 10),
               FrameError);
}

TEST(Wire, CtrlFrameWithTrailingBytesIsRejected) {
  CtrlMsg m;
  m.type = 19;
  m.blob = {std::byte{1}, std::byte{2}};
  std::vector<std::byte> frame;
  wire::encode_ctrl(m, frame);
  ASSERT_EQ(frame.size(), 41u);
  // The length prefix claims 50 bytes; the fields and blob fill only 41.
  frame.resize(50, std::byte{0});
  const std::uint32_t n = 50;
  std::memcpy(frame.data(), &n, sizeof(n));
  EXPECT_THROW(wire::decode_ctrl(frame.data() + wire::kFrameOverhead,
                                 frame.size() - wire::kFrameOverhead),
               FrameError);
}

TEST(Wire, RdmaTransfersCannotBeEncoded) {
  std::byte buf[8] = {};
  const PacketPtr p(Packet::create_rdma(TransferKind::kRdmaRead, buf, buf,
                                        sizeof buf, {}));
  EXPECT_THROW(wire::frame_of(*p), std::logic_error);
}

TEST(Wire, DataFrameShorterThanAHeaderIsRejected) {
  const std::vector<std::byte> frame = frame_bytes(*sample_packet());
  for (const std::size_t n : {std::size_t{0}, std::size_t{5},
                              sizeof(Packet) - 1}) {
    EXPECT_THROW(wire::decode_packet(frame.data(), n), FrameError) << n;
  }
}

TEST(Wire, DataFrameLengthsMustMatchTheFrameSize) {
  const std::vector<std::byte> good = frame_bytes(*sample_packet());
  // Each header length, inflated or deflated, disagrees with the frame:
  // a huge ack count must be refused before anything is allocated.
  const struct {
    std::size_t offset;
    std::uint64_t value;
    std::size_t width;
  } bad[] = {
      {offsetof(Packet, nacks), 0xFFFF, 2},
      {offsetof(Packet, nacks), 2, 2},
      {offsetof(Packet, meta_bytes), 12, 2},
      {offsetof(Packet, payload_bytes), 0xFFFFFFFF, 4},
      {offsetof(Packet, frame_bytes), good.size() + 8, 4},
  };
  for (const auto& b : bad) {
    std::vector<std::byte> frame = good;
    std::memcpy(frame.data() + b.offset, &b.value, b.width);
    EXPECT_THROW(wire::decode_packet(frame.data(), frame.size()), FrameError)
        << "field at offset " << b.offset << " = " << b.value;
  }
  // A frame cut short of what its header promises is refused too.
  EXPECT_THROW(wire::decode_packet(good.data(), good.size() - 8), FrameError);
}

TEST(Wire, DataFrameOfAnRdmaKindIsRejected) {
  std::vector<std::byte> frame = frame_bytes(*sample_packet());
  frame[offsetof(Packet, kind)] =
      static_cast<std::byte>(TransferKind::kRdmaWrite);
  EXPECT_THROW(wire::decode_packet(frame.data(), frame.size()), FrameError);
}

// ---- config grammar -------------------------------------------------------

TEST(TransportConfig, EmptySpecIsInProc) {
  const Config c = Config::parse("");
  EXPECT_EQ(c.kind, Kind::kInProc);
  EXPECT_FALSE(c.remote());
  EXPECT_EQ(c.nprocs, 1u);
}

TEST(TransportConfig, FullSpecParses) {
  const Config c = Config::parse(
      "kind=shm,nprocs=4,rank=2,session=job17,ring_kb=256");
  EXPECT_EQ(c.kind, Kind::kShm);
  EXPECT_TRUE(c.remote());
  EXPECT_EQ(c.nprocs, 4u);
  EXPECT_EQ(c.rank, 2u);
  EXPECT_EQ(c.session, "job17");
  EXPECT_EQ(c.ring_bytes, 256u * 1024u);
}

TEST(TransportConfig, SocketSpecParses) {
  const Config c = Config::parse(
      "kind=socket,nprocs=2,rank=1,session=s,tcp=1,port=20000,dir=/tmp/x");
  EXPECT_EQ(c.kind, Kind::kSocket);
  EXPECT_TRUE(c.use_tcp);
  EXPECT_EQ(c.base_port, 20000);
  EXPECT_EQ(c.socket_dir, "/tmp/x");
}

TEST(TransportConfig, ToSpecRoundTrips) {
  Config c;
  c.kind = Kind::kSocket;
  c.nprocs = 3;
  c.rank = 2;
  c.session = "abc";
  c.ring_bytes = 1u << 15;
  c.use_tcp = true;
  const Config d = Config::parse(c.to_spec());
  EXPECT_EQ(d.kind, c.kind);
  EXPECT_EQ(d.nprocs, c.nprocs);
  EXPECT_EQ(d.rank, c.rank);
  EXPECT_EQ(d.session, c.session);
  EXPECT_EQ(d.ring_bytes, c.ring_bytes);
  EXPECT_EQ(d.use_tcp, c.use_tcp);
}

TEST(TransportConfig, MalformedSpecsThrow) {
  EXPECT_THROW(Config::parse("kind=carrierpigeon"), std::invalid_argument);
  EXPECT_THROW(Config::parse("kind=shm,nprocs=banana"),
               std::invalid_argument);
  EXPECT_THROW(Config::parse("kind=shm,wat=1"), std::invalid_argument);
  // A rank outside the job is a config error, not a later crash.
  EXPECT_THROW(Config::parse("kind=shm,nprocs=2,rank=5"),
               std::invalid_argument);
}

// ---- inproc backend -------------------------------------------------------

TEST(InProc, EveryEndpointIsLocalAndInjectIsIllegal) {
  Registry metrics;
  InProcTransport t(metrics, 4);
  EXPECT_EQ(t.kind(), Kind::kInProc);
  for (unsigned i = 0; i < 4; ++i) EXPECT_TRUE(t.endpoint_local(i));
  EXPECT_EQ(t.poll(), 0u);
  EXPECT_THROW(t.inject(make_packet(0, 1, 1)), std::logic_error);
  // Liveness/death state still works — the transport is the fabric's
  // single home for it regardless of backend.
  t.kill_endpoint(2);
  EXPECT_TRUE(t.endpoint_dead(2));
  EXPECT_FALSE(t.endpoint_dead(1));
  t.touch_liveness(1, 12345);
  EXPECT_EQ(t.last_heard(1), 12345u);
}

// ---- backend pair contracts -----------------------------------------------

/// A connected pair of transports of `kind` (ranks 0 and 1 of a 2-rank
/// job), each counting into its own registry.  Socket constructors
/// handshake with each other, so one runs on a helper thread.
struct Pair {
  std::unique_ptr<Registry> ma = std::make_unique<Registry>();
  std::unique_ptr<Registry> mb = std::make_unique<Registry>();
  std::unique_ptr<Transport> a, b;  // rank 0, rank 1

  static Pair make(Kind kind, const std::string& sess,
                   std::size_t ring_bytes = 1u << 16) {
    Pair p;
    if (kind == Kind::kShm) {
      ShmTransport::unlink_session(sess);
      Config c0 = pair_config(kind, 2, 0, sess);
      Config c1 = pair_config(kind, 2, 1, sess);
      c0.ring_bytes = c1.ring_bytes = ring_bytes;
      p.a = std::make_unique<ShmTransport>(*p.ma, c0);
      p.b = std::make_unique<ShmTransport>(*p.mb, c1);
    } else {
      std::thread t0([&] {
        p.a = std::make_unique<SocketTransport>(
            *p.ma, pair_config(kind, 2, 0, sess));
      });
      p.b = std::make_unique<SocketTransport>(*p.mb,
                                              pair_config(kind, 2, 1, sess));
      t0.join();
    }
    return p;
  }
};

/// Rank 0 sends to rank 1.
void check_delivery_and_ordering(Pair& p) {
  Transport& tx = *p.a;
  Transport& rx = *p.b;
  CaptureSink sink;
  rx.set_sink(&sink);
  constexpr std::uint64_t kN = 200;
  for (std::uint64_t i = 1; i <= kN; ++i) {
    tx.inject(make_packet(0, 1, i, 16 + (i % 97)));
  }
  tx.flush();
  ASSERT_TRUE(poll_until(rx, [&] { return sink.count() == kN; }))
      << "only " << sink.count() << "/" << kN << " packets arrived";
  // Per-pair FIFO: seq 1..kN in exactly injection order, payloads intact.
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Packet& p = *sink.got[i];
    ASSERT_EQ(p.seq, i + 1);
    EXPECT_EQ(p.payload_bytes, 16 + ((i + 1) % 97));
    EXPECT_EQ(bgq::net::packet_checksum(p), p.checksum);
  }
  EXPECT_EQ(p.ma->total("net.transport.injects"), kN);
  EXPECT_EQ(p.mb->total("net.transport.injects"), 0u);
}

void check_ctrl_plane(Transport& a, Transport& b) {
  CtrlCapture ca, cb;
  ca.attach(a);
  cb.attach(b);
  // Directed both ways; ctrl must interleave FIFO with data frames on the
  // same pair, so sandwich a ctrl between data packets.
  CaptureSink sink;
  b.set_sink(&sink);
  a.inject(make_packet(0, 1, 1));
  CtrlMsg m;
  m.type = 21;
  m.a = 7;
  m.b = 8;
  m.c = 9;
  m.blob = {std::byte{0xAB}, std::byte{0xCD}};
  a.send_ctrl(1, m);
  a.inject(make_packet(0, 1, 2));
  a.flush();
  ASSERT_TRUE(poll_until(b, [&] { return sink.count() == 2 && cb.count() == 1; }));
  EXPECT_EQ(cb.got[0].type, 21);
  EXPECT_EQ(cb.got[0].a, 7u);
  EXPECT_EQ(cb.got[0].blob, m.blob);

  CtrlMsg r;
  r.type = 22;
  b.send_ctrl(0, r);
  b.flush();
  ASSERT_TRUE(poll_until(a, [&] { return ca.count() == 1; }));
  EXPECT_EQ(ca.got[0].type, 22);

  // Broadcast (dst = -1) reaches every *other* rank, not the sender.
  CtrlMsg bc;
  bc.type = 23;
  a.send_ctrl(-1, bc);
  a.flush();
  ASSERT_TRUE(poll_until(b, [&] { return cb.count() == 2; }));
  a.poll();
  EXPECT_EQ(ca.count(), 1u) << "broadcast must not loop back to sender";
  EXPECT_EQ(cb.got[1].type, 23);
}

/// A data frame from rank 0 whose header disagrees with its size
/// (payload_bytes one short of what the frame carries) is counted and
/// kills its sender; poll() returns normally and reads nothing more from
/// that peer.
void check_malformed_frame_kills_sender(Pair& p) {
  Transport& tx = *p.a;
  Transport& rx = *p.b;
  auto errors = [&] { return p.mb->total("net.transport.frame_errors"); };
  CaptureSink sink;
  rx.set_sink(&sink);
  Packet* bad = make_packet(0, 1, 1, 32);
  bad->payload_bytes = 31;
  tx.inject(bad);
  tx.flush();
  ASSERT_TRUE(poll_until(rx, [&] { return errors() != 0; }));
  EXPECT_EQ(errors(), 1u);
  EXPECT_TRUE(rx.endpoint_dead(0)) << "the sender must be treated as failed";
  EXPECT_FALSE(rx.endpoint_dead(1));
  // The stream is closed: a well-formed frame behind the bad one is
  // never read, and polling stays quiet.
  tx.inject(make_packet(0, 1, 2));
  tx.flush();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rx.poll(), 0u);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(errors(), 1u);
}

TEST(ShmPair, DeliveryAndPerPairOrdering) {
  const std::string s = session("shmord");
  Pair p = Pair::make(Kind::kShm, s);
  check_delivery_and_ordering(p);
}

TEST(ShmPair, CtrlPlaneDirectedAndBroadcast) {
  const std::string s = session("shmctl");
  Pair p = Pair::make(Kind::kShm, s);
  check_ctrl_plane(*p.a, *p.b);
}

TEST(ShmPair, LivenessAndDeathAreSharedAcrossRanks) {
  const std::string s = session("shmlive");
  Pair p = Pair::make(Kind::kShm, s);
  // Last-heard stamps live in the segment header: a stamp written through
  // one rank's transport is read by the other's failure detector.
  p.a->touch_liveness(0, 777);
  EXPECT_EQ(p.b->last_heard(0), 777u);
  // Death flags too — and a kill declared by either side blackholes
  // future sends instead of wedging the producer on a never-drained ring.
  p.b->kill_endpoint(1);
  EXPECT_TRUE(p.a->endpoint_dead(1));
  CaptureSink sink;
  p.b->set_sink(&sink);
  const std::uint64_t before = p.ma->total("net.blackholed");
  // Fill well past the ring capacity: without the dead-consumer escape
  // this would deadlock the test.
  for (int i = 0; i < 50; ++i) p.a->inject(make_packet(0, 1, 100 + i, 2048));
  EXPECT_GT(p.ma->total("net.blackholed"), before);
}

TEST(ShmPair, FullRingBackpressuresUntilConsumerDrains) {
  const std::string s = session("shmfull");
  // 4 KiB rings: a dozen 1 KiB payloads cannot fit at once.
  Pair p = Pair::make(Kind::kShm, s, /*ring_bytes=*/4096);
  CaptureSink sink;
  p.b->set_sink(&sink);
  constexpr std::uint64_t kN = 12;
  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kN; ++i) {
      p.a->inject(make_packet(0, 1, i, 1024));
    }
  });
  // Let the producer actually hit the wall before draining: ring_full is
  // the backpressure signal the metrics export.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (p.ma->total("net.transport.ring_full") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_GE(p.ma->total("net.transport.ring_full"), 1u);
  ASSERT_TRUE(poll_until(*p.b, [&] { return sink.count() == kN; }));
  producer.join();
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(sink.got[i]->seq, i + 1) << "backpressure must not reorder";
  }
}

TEST(ShmPair, MalformedFrameKillsTheSenderNotTheRank) {
  const std::string s = session("shmbad");
  Pair p = Pair::make(Kind::kShm, s);
  check_malformed_frame_kills_sender(p);
}

TEST(ShmPair, OversizedFrameIsRejectedLoudly) {
  const std::string s = session("shmbig");
  Pair p = Pair::make(Kind::kShm, s, /*ring_bytes=*/4096);
  // A frame that can never fit must throw (raise ring_kb), not spin.
  EXPECT_THROW(p.a->inject(make_packet(0, 1, 1, 64 * 1024)),
               std::runtime_error);
}

TEST(SocketPair, DeliveryAndPerPairOrdering) {
  const std::string s = session("sockord");
  Pair p = Pair::make(Kind::kSocket, s);
  check_delivery_and_ordering(p);
}

TEST(SocketPair, CtrlPlaneDirectedAndBroadcast) {
  const std::string s = session("sockctl");
  Pair p = Pair::make(Kind::kSocket, s);
  check_ctrl_plane(*p.a, *p.b);
}

TEST(SocketPair, MalformedFrameKillsTheSenderNotTheRank) {
  const std::string s = session("sockbad");
  Pair p = Pair::make(Kind::kSocket, s);
  check_malformed_frame_kills_sender(p);
}

TEST(SocketPair, ArrivalStampsLiveness) {
  const std::string s = session("socklive");
  Pair p = Pair::make(Kind::kSocket, s);
  // On a socket, hearing from a peer is the only evidence it is alive: a
  // received ctrl frame (heartbeats ride the ctrl plane) must refresh the
  // local last-heard table.  (Data frames are stamped by the fabric sink
  // on delivery, same as the other backends.)
  p.b->enable_liveness();
  CtrlCapture cb;
  cb.attach(*p.b);
  EXPECT_EQ(p.b->last_heard(0), 0u);
  CtrlMsg hb;
  hb.type = 16;
  p.a->send_ctrl(1, hb);
  p.a->flush();
  ASSERT_TRUE(poll_until(*p.b, [&] { return cb.count() == 1; }));
  EXPECT_GT(p.b->last_heard(0), 0u);
}

// ---- machine level: shm ping-pong ------------------------------------------

/// Counters one rank of the ping-pong reports once its run is over.
struct PingPongRank {
  bool finished = false;
  std::uint64_t doorbell_wakes = 0;
  std::uint64_t data_frames_out = 0;  ///< net.transport.injects
};

TEST(ShmPair, PingPongDataFramesLeaveThePollerAsleep) {
  // While each rank's worker drains its rings inline, a data frame must
  // not ring the rank's doorbell: the poller sleeps through the whole
  // ping-pong and only ctrl frames (barrier, stop, quiesce) and the
  // stretches before the workers start draining may wake it.
  constexpr std::uint32_t kRounds = 10000;
  const std::string sess = session("shmbell");
  ShmTransport::unlink_session(sess);
  auto rank = [&](unsigned r, PingPongRank& out) {
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.mode = Mode::kSmp;
    cfg.workers_per_process = 1;
    cfg.transport = pair_config(Kind::kShm, 2, r, sess);
    Machine machine(cfg);
    std::uint32_t rounds = 0;
    const HandlerId h = machine.register_handler([&](Pe& pe, Message* m) {
      if (pe.rank() == 1) {
        pe.send_message(0, m);
        return;
      }
      if (++rounds == kRounds) {
        pe.free_message(m);
        out.finished = true;
        pe.exit_all();
        return;
      }
      pe.send_message(1, m);
    });
    machine.run([&](Pe& pe) {
      if (pe.rank() != 0) return;
      Message* m = pe.alloc_message(16, h);
      std::memset(m->payload(), 0x5A, 16);
      pe.send_message(1, m);
    });
    const bgq::trace::Report rep = machine.metrics_report();
    out.data_frames_out = rep.value("net.transport.injects");
    out.doorbell_wakes = rep.value("net.transport.doorbell_wakes");
  };
  PingPongRank r0, r1;
  std::thread peer([&] { rank(1, r1); });
  rank(0, r0);
  peer.join();
  ASSERT_TRUE(r0.finished);
  // Every data frame one rank injects, the other drains.
  const std::uint64_t frames = r0.data_frames_out + r1.data_frames_out;
  const std::uint64_t wakes = r0.doorbell_wakes + r1.doorbell_wakes;
  std::printf("[ DOORBELL ] %llu wakes for %llu data frames\n",
              static_cast<unsigned long long>(wakes),
              static_cast<unsigned long long>(frames));
  EXPECT_GE(frames, 2u * kRounds - 1);
  EXPECT_LT(wakes * 100, frames) << "data frames are ringing the doorbell";
}

// ---- machine-level digest parity ------------------------------------------

/// One rank's share of an FFT job: per-element digests of the elements
/// homed on it, plus completion state.
struct RankResult {
  bool ok = false;
  bool finished = false;
  std::string error;
  std::map<std::size_t, std::uint64_t> elems;
};

constexpr std::size_t kGrid = 8;
constexpr std::size_t kProcs = 2;
constexpr std::uint32_t kSteps = 6;

/// Run one rank (or, with an inproc config, the whole job) of the
/// deterministic FFT mini-app in machine mode `mode` (one emulated
/// process per node, one worker each) and report its locally-homed
/// elements.
RankResult run_fft_rank(const Config& tc, const bgq::net::FaultPlan& faults,
                        Mode mode = Mode::kSmp) {
  RankResult out;
  try {
    MachineConfig cfg;
    cfg.nodes = kProcs;
    cfg.mode = mode;
    cfg.workers_per_process = 1;
    cfg.processes_per_node = 1;
    cfg.comm_threads = 1;
    cfg.transport = tc;
    cfg.faults = faults;
    Machine machine(cfg);
    Runtime rt(machine);
    FtFft2D app(rt, kGrid, kProcs, kSteps);
    machine.run([&](Pe& pe) {
      if (pe.rank() == 0) app.start(pe);
    });
    out.finished = app.finished();
    const unsigned wpp = machine.config().effective_workers_per_process();
    for (std::size_t e = 0; e < app.element_count(); ++e) {
      const std::size_t owner = app.element_home(e) / wpp;
      if (!machine.process_local(owner)) continue;
      out.elems[e] = app.element_digest(e);
    }
    out.ok = true;
  } catch (const std::exception& ex) {
    out.error = ex.what();
  }
  return out;
}

/// Merge both ranks' reports and fold the per-element digests in element
/// order — the combined job digest (same fold as tools/bgq-app).
std::uint64_t merged_digest(const RankResult& r0, const RankResult& r1,
                            std::size_t expect_elems) {
  std::map<std::size_t, std::uint64_t> all = r0.elems;
  for (const auto& [i, d] : r1.elems) {
    EXPECT_EQ(all.count(i), 0u) << "element " << i << " reported twice";
    all[i] = d;
  }
  EXPECT_EQ(all.size(), expect_elems) << "element coverage has gaps";
  std::uint64_t h = bgq::kFnvOffsetBasis;
  for (const auto& [i, d] : all) {
    (void)i;
    h = bgq::charm::fnv1a(h, &d, sizeof(d));
  }
  return h;
}

std::uint64_t run_twin_job(Kind kind, const std::string& sess,
                           const bgq::net::FaultPlan& faults,
                           Mode mode = Mode::kSmp) {
  if (kind == Kind::kShm) ShmTransport::unlink_session(sess);
  RankResult r0, r1;
  std::thread t0([&] {
    r0 = run_fft_rank(pair_config(kind, 2, 0, sess), faults, mode);
  });
  std::thread t1([&] {
    r1 = run_fft_rank(pair_config(kind, 2, 1, sess), faults, mode);
  });
  t0.join();
  t1.join();
  EXPECT_TRUE(r0.ok) << "rank 0: " << r0.error;
  EXPECT_TRUE(r1.ok) << "rank 1: " << r1.error;
  EXPECT_TRUE(r0.finished || r1.finished);
  return merged_digest(r0, r1, kProcs);
}

TEST(DigestParity, ShmAndSocketMatchInProcess) {
  // Reference: the whole job in this process over the classic fabric.
  const RankResult ref = run_fft_rank(Config{}, bgq::net::FaultPlan{});
  ASSERT_TRUE(ref.ok) << ref.error;
  ASSERT_TRUE(ref.finished);
  const std::uint64_t want = merged_digest(ref, RankResult{}, kProcs);

  // shm in every mode: the worker drains inline in kNonSmp (executing
  // handlers straight from the drain) and kSmp; in kSmpCommThreads the
  // comm thread drains, and leaves the drainer count before it parks.
  const struct {
    Mode mode;
    const char* tag;
  } modes[] = {{Mode::kNonSmp, "parshm-nonsmp"},
               {Mode::kSmp, "parshm-smp"},
               {Mode::kSmpCommThreads, "parshm-comm"}};
  for (const auto& m : modes) {
    const std::uint64_t shm = run_twin_job(Kind::kShm, session(m.tag),
                                           bgq::net::FaultPlan{}, m.mode);
    EXPECT_EQ(shm, want) << "shm transport changed application state in "
                         << m.tag;
  }

  const std::uint64_t sock =
      run_twin_job(Kind::kSocket, session("parsock"), bgq::net::FaultPlan{});
  EXPECT_EQ(sock, want) << "socket transport changed application state";
}

TEST(DigestParity, ChaosFabricOverShmStillMatches) {
  // Chaos is injected on the sender's fabric *before* the transport hop;
  // the PAMI reliability protocol hides drop/dup/reorder, so the final
  // application state must still be bit-identical to a clean run.
  const RankResult ref = run_fft_rank(Config{}, bgq::net::FaultPlan{});
  ASSERT_TRUE(ref.ok) << ref.error;
  const std::uint64_t want = merged_digest(ref, RankResult{}, kProcs);

  bgq::net::FaultPlan chaos;
  chaos.drop = 0.02;
  chaos.duplicate = 0.02;
  chaos.delay = 0.05;
  chaos.seed = 0xBADC0FFEEull;
  const std::uint64_t got =
      run_twin_job(Kind::kShm, session("parchaos"), chaos);
  EXPECT_EQ(got, want) << "chaos over shm leaked into application state";
}

}  // namespace
