// Schedule-fuzzed checks for the shared-memory transport's SPSC byte
// ring (transport/shm_ring.hpp).  The harness build compiles the ring's
// BGQ_SCHED_POINT markers (shmring.push.full / push.copied / peek.copied
// / consume) live, so the fuzzer can serialize producer and consumer
// inside the racy windows — between the data memcpy and the index
// publication — and prove the Lamport protocol holds there:
//
//   * the consumer sees a byte stream equal to the concatenation of the
//     pushed frames, in order (FIFO, never torn, never duplicated);
//   * a frame is visible all-or-nothing: a successful header peek means
//     the body peek succeeds with the right bytes, because try_push
//     publishes the whole frame with one release-store;
//   * a full ring fails the push without corrupting anything, and the
//     producer's retry eventually lands once the consumer frees space.
//
// FuzzShmDoorbell drives the transport's doorbell handshake
// (transport/doorbell.hpp) with its own live schedule points: a
// producer, a thread draining inline that withdraws mid-stream and a
// poller that parks with no safety-net deadline must deliver every
// frame, in order, on every schedule — a lost wakeup would leave the
// poller asleep and show up as a deadlock.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness_util.hpp"
#include "test_seed.hpp"
#include "transport/doorbell.hpp"
#include "transport/shm_ring.hpp"
#include "verify/scheduler.hpp"

namespace {

using bgq::harness::describe_run;
using bgq::harness::DoorbellFuzzConfig;
using bgq::harness::fuzz_doorbell_once;
using bgq::harness::run_schedule;
using bgq::harness::RunOptions;
using bgq::transport::Doorbell;
using bgq::test_support::announce_seed;
using bgq::test_support::harness_scale;
using bgq::transport::ShmRingCtrl;
using bgq::transport::ShmRingView;
using bgq::verify::exhaust_schedules;

/// Deterministic body byte for frame `f`, offset `j`.
std::uint8_t body_byte(std::size_t f, std::size_t j) {
  return static_cast<std::uint8_t>((f * 37 + j * 11 + 5) & 0xff);
}

/// Frame length for frame `f` (varied so wraparound happens constantly
/// on a small ring).
std::size_t body_len(std::size_t f, std::size_t max_body) {
  return 1 + (f * 3 + 1) % max_body;
}

struct TransferResult {
  bool ok = false;
  std::string error;
};

/// Producer/consumer bodies moving `frames` length-prefixed frames
/// through a ring of `cap` bytes; the consumer verifies content in-line.
/// Mirrors the transport's real access pattern: peek the 1-byte header,
/// peek the body at an offset, then consume the whole frame at once.
void make_bodies(ShmRingCtrl* ctrl, std::byte* data, std::size_t cap,
                 std::size_t frames, std::size_t max_body,
                 TransferResult* result,
                 std::vector<std::function<void()>>& bodies) {
  bodies.emplace_back([=] {
    ShmRingView tx(ctrl, data, cap);  // producer-side view
    std::vector<std::byte> frame;
    for (std::size_t f = 0; f < frames; ++f) {
      const std::size_t len = body_len(f, max_body);
      frame.clear();
      frame.push_back(static_cast<std::byte>(len));
      for (std::size_t j = 0; j < len; ++j) {
        frame.push_back(static_cast<std::byte>(body_byte(f, j)));
      }
      while (!tx.try_push(frame.data(), frame.size())) {
      }
    }
  });
  bodies.emplace_back([=] {
    ShmRingView rx(ctrl, data, cap);  // consumer-side view
    std::vector<std::byte> body(max_body);
    for (std::size_t f = 0; f < frames;) {
      std::byte head;
      if (!rx.peek(0, &head, 1)) continue;
      const std::size_t len = static_cast<std::size_t>(head);
      const std::size_t want = body_len(f, max_body);
      if (len != want) {
        result->error = "frame " + std::to_string(f) + ": header says " +
                        std::to_string(len) + ", expected " +
                        std::to_string(want);
        return;
      }
      // All-or-nothing visibility: the header was readable, so the body
      // must be too — try_push published them with one release-store.
      if (!rx.peek(1, body.data(), len)) {
        result->error = "frame " + std::to_string(f) + ": torn (header "
                        "visible, body not)";
        return;
      }
      for (std::size_t j = 0; j < len; ++j) {
        if (static_cast<std::uint8_t>(body[j]) != body_byte(f, j)) {
          result->error = "frame " + std::to_string(f) + ": byte " +
                          std::to_string(j) + " corrupted";
          return;
        }
      }
      rx.consume(1 + len);
      ++f;
    }
    result->ok = true;
  });
}

TEST(FuzzShmRing, FifoFramesSurviveFuzzedSchedules) {
  const std::uint64_t base = announce_seed("FuzzShmRing.Fifo", 0x5112);
  const std::uint64_t n =
      std::max<std::uint64_t>(2000 / harness_scale(), 10);
  // Ring barely larger than the biggest frame: the full/retry path and
  // the wraparound copies run on nearly every push.
  constexpr std::size_t kCap = 16;
  constexpr std::size_t kMaxBody = 7;
  constexpr std::size_t kFrames = 8;
  for (std::uint64_t i = 0; i < n; ++i) {
    ShmRingCtrl ctrl;
    std::vector<std::byte> data(kCap);
    TransferResult result;
    std::vector<std::function<void()>> bodies;
    make_bodies(&ctrl, data.data(), kCap, kFrames, kMaxBody, &result, bodies);
    RunOptions ro;
    ro.seed = base + i;
    const auto run = run_schedule(ro, bodies);
    ASSERT_FALSE(run.deadlocked) << describe_run(ro.seed, run);
    ASSERT_TRUE(result.ok) << describe_run(ro.seed, run) << "\n"
                           << result.error;
  }
}

TEST(FuzzShmRing, ExhaustiveSmallBound) {
  // Systematically enumerate every interleaving (up to the decision
  // bound) of 3 frames through an 8-byte ring — tight enough that full,
  // wrap and publication races all occur inside the enumerated window.
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kMaxBody = 4;
  constexpr std::size_t kFrames = 3;
  std::uint64_t violations = 0;
  std::string first_bad;
  const std::uint64_t runs = exhaust_schedules(
      12, 30000, [&](const std::vector<std::uint8_t>& prefix) {
        ShmRingCtrl ctrl;
        std::vector<std::byte> data(kCap);
        TransferResult result;
        std::vector<std::function<void()>> bodies;
        make_bodies(&ctrl, data.data(), kCap, kFrames, kMaxBody, &result,
                    bodies);
        RunOptions ro;
        ro.seed = 13;
        ro.replay = &prefix;
        ro.deterministic_fallback = true;
        const auto run = run_schedule(ro, bodies);
        if (run.deadlocked || !result.ok) {
          ++violations;
          if (first_bad.empty()) {
            first_bad = describe_run(ro.seed, run) + "\n" + result.error;
          }
        }
        return run.trace;
      });
  EXPECT_EQ(violations, 0u) << first_bad;
  // The enumeration must actually branch; a handful of runs would mean
  // the ring's schedule points are dead in this build.
  EXPECT_GT(runs, 50u);
  std::fprintf(stderr, "[ EXHAUST  ] ShmRing: %llu schedules\n",
               static_cast<unsigned long long>(runs));
}

TEST(FuzzShmRing, FullRingRejectsWithoutCorruption) {
  // Single-threaded boundary check rides along: fill to exactly capacity,
  // verify the next push fails clean, drain and verify every byte.
  constexpr std::size_t kCap = 8;
  ShmRingCtrl ctrl;
  std::vector<std::byte> data(kCap);
  ShmRingView ring(&ctrl, data.data(), kCap);
  std::byte five[5] = {std::byte{1}, std::byte{2}, std::byte{3},
                       std::byte{4}, std::byte{5}};
  std::byte three[3] = {std::byte{6}, std::byte{7}, std::byte{8}};
  ASSERT_TRUE(ring.try_push(five, 5));
  ASSERT_TRUE(ring.try_push(three, 3));  // exactly full
  EXPECT_EQ(ring.writable(), 0u);
  EXPECT_FALSE(ring.try_push(three, 1));  // no room for even one byte
  std::byte out[8];
  ASSERT_TRUE(ring.peek(0, out, 8));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<int>(out[i]), i + 1);
  }
  ring.consume(8);
  EXPECT_EQ(ring.readable(), 0u);
  // Wrapped reuse after the drain: offsets past cap still read right.
  ASSERT_TRUE(ring.try_push(five, 5));
  ASSERT_TRUE(ring.peek(0, out, 5));
  EXPECT_EQ(static_cast<int>(out[4]), 5);
}

TEST(FuzzShmDoorbell, EveryFrameDeliveredWithoutTheSafetyNet) {
  const std::uint64_t base = announce_seed("FuzzShmDoorbell.Fuzz", 0xD00B);
  const std::uint64_t n =
      std::max<std::uint64_t>(2000 / harness_scale(), 10);
  // A ring smaller than the stream (full-ring rings on most schedules)
  // and a roomy one (every wakeup comes from notify or the withdrawal).
  const DoorbellFuzzConfig shapes[] = {{3, 2, 2}, {2, 4, 2}};
  for (const DoorbellFuzzConfig& shape : shapes) {
    for (std::uint64_t i = 0; i < n; ++i) {
      DoorbellFuzzConfig cfg = shape;
      cfg.seed = base + i;
      const auto out = fuzz_doorbell_once<Doorbell>(cfg);
      ASSERT_FALSE(out.run.deadlocked)
          << "lost wakeup: " << describe_run(cfg.seed, out.run);
      ASSERT_EQ(out.delivered, cfg.frames) << describe_run(cfg.seed, out.run);
      ASSERT_TRUE(out.error.empty())
          << describe_run(cfg.seed, out.run) << "\n" << out.error;
    }
  }
}

TEST(FuzzShmDoorbell, ExhaustiveSmallBound) {
  std::uint64_t violations = 0;
  std::string first_bad;
  const std::uint64_t cap =
      std::max<std::uint64_t>(20000 / harness_scale(), 200);
  const std::uint64_t runs = exhaust_schedules(
      12, cap, [&](const std::vector<std::uint8_t>& prefix) {
        DoorbellFuzzConfig cfg{3, 2, 2};
        cfg.seed = 29;
        cfg.replay = &prefix;
        cfg.deterministic_fallback = true;
        const auto out = fuzz_doorbell_once<Doorbell>(cfg);
        if (out.run.deadlocked || out.delivered != cfg.frames ||
            !out.error.empty()) {
          ++violations;
          if (first_bad.empty()) {
            first_bad = describe_run(cfg.seed, out.run) + "\n" + out.error;
          }
        }
        return out.run.trace;
      });
  EXPECT_EQ(violations, 0u) << first_bad;
  EXPECT_GT(runs, 50u);
  std::fprintf(stderr, "[ EXHAUST  ] ShmDoorbell: %llu schedules\n",
               static_cast<unsigned long long>(runs));
}

}  // namespace
