// Seeded mutational fuzz of the transport wire decoders
// (transport/wire.hpp).  The bytes a shm ring or a socket hands a rank
// come from another process, so they can be anything.
//
// Each case builds a stream of valid frames — mem-FIFO data packets and
// ctrl messages of assorted shapes — and mutates it: flipped bits,
// overwritten bytes, a length field set to an edge value, truncation,
// random bytes appended, or a piece of another stream spliced in.  A
// receiver model then walks the stream as the socket transport does:
// read the length prefix, wait if the frame is incomplete, else decode
// it as a ctrl or a data frame.  The contract:
//
//   * every frame that decodes re-encodes to exactly its own bytes;
//   * anything else is a wire::FrameError — never another exception,
//     never a crash or a read outside the buffer (the CI asan job runs
//     this binary), and no allocation larger than the frame.
//
// BGQ_TEST_SEED replays a run; BGQ_HARNESS_SCALE divides the case count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iterator>
#include <random>
#include <vector>

#include "net/packet.hpp"
#include "test_seed.hpp"
#include "transport/wire.hpp"

namespace {

namespace wire = bgq::transport::wire;
using bgq::net::Packet;
using bgq::net::PacketPtr;
using bgq::transport::CtrlMsg;
using Bytes = std::vector<std::byte>;
using Rng = std::mt19937_64;

std::size_t below(Rng& rng, std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}
std::byte random_byte(Rng& rng) { return static_cast<std::byte>(rng()); }

/// Append one valid data frame: a mem-FIFO packet with random fields.
void add_data_frame(Rng& rng, Bytes& out) {
  const PacketPtr p(
      Packet::create(below(rng, 48), below(rng, 700), below(rng, 5)));
  p->src = static_cast<bgq::topo::NodeId>(below(rng, 8));
  p->dst = static_cast<bgq::topo::NodeId>(below(rng, 8));
  p->dispatch = static_cast<std::uint16_t>(rng());
  p->flags = static_cast<std::uint8_t>(below(rng, 4));
  p->seq = rng();
  p->cid = rng();
  for (std::size_t i = 0; i < p->meta_bytes; ++i) {
    p->metadata()[i] = random_byte(rng);
  }
  for (std::size_t i = 0; i < p->payload_bytes; ++i) {
    p->payload()[i] = random_byte(rng);
  }
  for (std::size_t i = 0; i < p->nacks; ++i) p->set_ack(i, rng());
  p->checksum = bgq::net::packet_checksum(*p);
  const auto f = wire::frame_of(*p);
  out.insert(out.end(), f.begin(), f.end());
}

/// Append one valid ctrl frame with random fields and blob.
void add_ctrl_frame(Rng& rng, Bytes& out) {
  CtrlMsg m;
  m.type = static_cast<std::uint16_t>(rng());
  m.origin = static_cast<std::uint32_t>(rng());
  m.a = rng();
  m.b = rng();
  m.c = rng();
  m.blob.resize(below(rng, 300));
  for (std::byte& b : m.blob) b = random_byte(rng);
  wire::encode_ctrl(m, out);
}

/// A stream of 1 to 4 valid frames; `frames` receives the count.
Bytes valid_stream(Rng& rng, std::size_t* frames) {
  Bytes s;
  *frames = 1 + below(rng, 4);
  for (std::size_t i = 0; i < *frames; ++i) {
    if (rng() & 1) {
      add_data_frame(rng, s);
    } else {
      add_ctrl_frame(rng, s);
    }
  }
  return s;
}

/// Store the low `width` bytes of `v` at `at`, clipped to the stream.
void poke(Bytes& s, std::size_t at, std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width && at + i < s.size(); ++i) {
    s[at + i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// One random mutation of `s`; `donor` is another valid stream.
void mutate(Rng& rng, Bytes& s, const Bytes& donor) {
  switch (below(rng, 6)) {
    case 0:  // flip a bit
      if (!s.empty()) s[below(rng, s.size())] ^= std::byte{1} << below(rng, 8);
      break;
    case 1:  // overwrite a byte
      if (!s.empty()) s[below(rng, s.size())] = random_byte(rng);
      break;
    case 2: {  // set a 16- or 32-bit field to an edge value
      if (s.empty()) break;
      const std::uint64_t edges[] = {0,          1,          4,
                                     5,          0xFF,       0xFFFF,
                                     0xFFFFFFFF, s.size(),   s.size() - 1,
                                     s.size() + 1, rng()};
      poke(s, below(rng, s.size()), edges[below(rng, std::size(edges))],
           below(rng, 2) ? 2 : 4);
      break;
    }
    case 3:  // truncate
      s.resize(below(rng, s.size() + 1));
      break;
    case 4: {  // extend with random bytes
      const std::size_t n = 1 + below(rng, 64);
      for (std::size_t i = 0; i < n; ++i) s.push_back(random_byte(rng));
      break;
    }
    default: {  // splice a piece of the donor in at a random offset
      const std::size_t from = below(rng, donor.size());
      const std::size_t len = 1 + below(rng, donor.size() - from);
      const std::size_t at = below(rng, s.size() + 1);
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
               donor.begin() + static_cast<std::ptrdiff_t>(from),
               donor.begin() + static_cast<std::ptrdiff_t>(from + len));
      break;
    }
  }
}

/// What a receiver makes of a stream: the re-encoding of every whole
/// frame it decoded, in order, and the bytes those frames covered.
struct Decoded {
  Bytes reencoded;
  std::size_t consumed = 0;
  std::size_t frames = 0;
};

/// Walk `s` as the socket transport's reassembly does; throws
/// wire::FrameError at the first malformed frame.
Decoded decode_stream(const Bytes& s) {
  Decoded d;
  while (s.size() - d.consumed >= wire::kFrameOverhead) {
    const std::byte* h = s.data() + d.consumed;
    const std::uint32_t n = wire::frame_length(h);
    if (n < wire::kFrameOverhead) {
      throw wire::FrameError("frame shorter than its prefix");
    }
    if (n > s.size() - d.consumed) break;  // incomplete: wait for more
    if (wire::frame_type(h) == wire::kFrameCtrl) {
      wire::encode_ctrl(wire::decode_ctrl(h + wire::kFrameOverhead,
                                          n - wire::kFrameOverhead),
                        d.reencoded);
    } else {
      const PacketPtr p(wire::decode_packet(h, n));
      const auto f = wire::frame_of(*p);
      d.reencoded.insert(d.reencoded.end(), f.begin(), f.end());
    }
    d.consumed += n;
    ++d.frames;
  }
  return d;
}

TEST(FuzzWire, MutatedFramesReencodeExactlyOrThrow) {
  const std::uint64_t seed =
      bgq::test_support::announce_seed("FuzzWire.MutatedFrames", 0x3a1f);
  const std::uint64_t cases = 40000 / bgq::test_support::harness_scale();
  Rng rng(seed);
  std::uint64_t rejected = 0, whole = 0, partial = 0;
  for (std::uint64_t c = 0; c < cases; ++c) {
    std::size_t frames = 0, donor_frames = 0;
    Bytes s = valid_stream(rng, &frames);
    const Bytes donor = valid_stream(rng, &donor_frames);
    {
      const Decoded d = decode_stream(s);  // unmutated: decodes whole
      ASSERT_EQ(d.frames, frames) << "case " << c;
      ASSERT_TRUE(d.reencoded == s) << "case " << c;
    }
    const std::size_t mutations = 1 + below(rng, 3);
    for (std::size_t m = 0; m < mutations; ++m) mutate(rng, s, donor);
    try {
      const Decoded d = decode_stream(s);
      const Bytes covered(s.begin(),
                          s.begin() + static_cast<std::ptrdiff_t>(d.consumed));
      ASSERT_TRUE(d.reencoded == covered)
          << "case " << c << " (seed " << seed << "): a frame decoded to "
          << "something that re-encodes to other bytes";
      if (d.consumed == s.size()) {
        ++whole;
      } else {
        ++partial;
      }
    } catch (const wire::FrameError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "case " << c << " (seed " << seed
             << "): not a FrameError: " << e.what();
    }
  }
  // Every outcome occurs, so the mutations reach each path.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(whole, 0u);
  EXPECT_GT(partial, 0u);
  std::printf("[   WIRE   ] %llu cases: %llu rejected, %llu decoded whole, "
              "%llu decoded up to an incomplete frame\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(whole),
              static_cast<unsigned long long>(partial));
}

}  // namespace
