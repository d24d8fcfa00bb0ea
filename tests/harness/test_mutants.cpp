// The harness must have teeth: each seeded mutant in src/verify/mutants.hpp
// re-creates a bug class the real lockless structures defend against, and
// the linearizability checker (or the deadlock watchdog) must flag it
// within a bounded number of fuzzed schedules.  If one of these tests
// fails, the harness has gone vacuous — not the runtime.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness_util.hpp"
#include "test_seed.hpp"
#include "verify/mutants.hpp"

namespace {

using bgq::harness::DoorbellFuzzConfig;
using bgq::harness::fuzz_doorbell_once;
using bgq::harness::fuzz_gate_once;
using bgq::harness::fuzz_queue_once;
using bgq::harness::GateFuzzConfig;
using bgq::harness::QueueFuzzConfig;
using bgq::test_support::announce_seed;
using bgq::verify::MutantEarlyRecheckDoorbell;
using bgq::verify::MutantEarlyRecheckPark;
using bgq::verify::MutantLatchGate;
using bgq::verify::MutantNoDrainQueue;
using bgq::verify::MutantRacyTicketQueue;
using bgq::verify::MutantStaleSlotQueue;

/// Fuzz `Queue` until the checker flags a schedule (or the budget runs
/// out).  Returns the number of schedules needed, or 0 if undetected.
template <typename Queue>
std::uint64_t schedules_to_detect(std::uint64_t base_seed,
                                  std::uint64_t budget, std::size_t ring,
                                  int producers, int per_producer) {
  for (std::uint64_t i = 0; i < budget; ++i) {
    QueueFuzzConfig cfg;
    cfg.ring = ring;
    cfg.producers = producers;
    cfg.per_producer = per_producer;
    cfg.seed = base_seed + i;
    const auto out = fuzz_queue_once<Queue>(cfg);
    if (!out.lin.ok() || out.run.deadlocked) return i + 1;
  }
  return 0;
}

TEST(Mutants, RacyTicketClaimLosesMessages) {
  // Non-atomic read-check-write ticket claim: two producers claim the same
  // ticket, one slot store overwrites the other, and the post-drain empty
  // probe convicts the queue of losing a message.
  const std::uint64_t n = schedules_to_detect<MutantRacyTicketQueue<
      std::uint64_t*>>(announce_seed("Mutants.RacyTicket", 0x7AC3), 2000,
                       /*ring=*/4, /*producers=*/3, /*per_producer=*/2);
  ASSERT_NE(n, 0u) << "racy ticket mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr, "[ MUTANT   ] racy-ticket detected after %llu schedules\n",
               static_cast<unsigned long long>(n));
}

TEST(Mutants, DroppedOverflowDrainLosesSpilledMessages) {
  // The consumer never drains the overflow queue, so every message that
  // spilled past the L2 bound vanishes.  Tiny ring + more messages than
  // slots forces the spill on essentially every schedule.
  const std::uint64_t n = schedules_to_detect<MutantNoDrainQueue<
      std::uint64_t*>>(announce_seed("Mutants.NoDrain", 0xD7A1), 2000,
                       /*ring=*/2, /*producers=*/3, /*per_producer=*/3);
  ASSERT_NE(n, 0u) << "no-drain mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr, "[ MUTANT   ] no-drain detected after %llu schedules\n",
               static_cast<unsigned long long>(n));
}

TEST(Mutants, StaleSlotDeliversDuplicates) {
  // The consumer skips the slot clear, breaking the nulled-slot emptiness
  // protocol: after the ring wraps, a stale pointer is delivered twice
  // (bag-spec duplicate violation).
  const std::uint64_t n = schedules_to_detect<MutantStaleSlotQueue<
      std::uint64_t*>>(announce_seed("Mutants.StaleSlot", 0x57A1E), 2000,
                       /*ring=*/2, /*producers=*/2, /*per_producer=*/3);
  ASSERT_NE(n, 0u) << "stale-slot mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr, "[ MUTANT   ] stale-slot detected after %llu schedules\n",
               static_cast<unsigned long long>(n));
}

TEST(Mutants, LatchGateCommitsWithoutJustifyingWake) {
  // Sticky-latch gate: a wake with no waiter leaves the latch set, so a
  // later commit returns even though no wake advanced the epoch past its
  // snapshot — a GateSpec violation.  (The same latch can also swallow a
  // wake meant for another waiter; that shows up as a watchdog deadlock.)
  const std::uint64_t base = announce_seed("Mutants.LatchGate", 0x1A7C4);
  std::uint64_t detected_at = 0;
  for (std::uint64_t i = 0; i < 2000 && !detected_at; ++i) {
    GateFuzzConfig cfg;
    cfg.rounds = 3;
    cfg.waiters = 1;
    cfg.seed = base + i;
    cfg.watchdog = std::chrono::milliseconds(3000);
    const auto out = fuzz_gate_once<MutantLatchGate>(cfg);
    if (!out.lin.ok() || out.run.deadlocked) detected_at = i + 1;
  }
  ASSERT_NE(detected_at, 0u)
      << "latch-gate mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr, "[ MUTANT   ] latch-gate detected after %llu schedules\n",
               static_cast<unsigned long long>(detected_at));
}

TEST(Mutants, LatchGateLosesWakeupWithTwoWaiters) {
  // Two waiters, one latch: one waiter consumes the other's wake, parking
  // it forever.  Detection is either the watchdog deadlock (the rescue
  // wake un-wedges the run afterwards) or a spec violation.
  const std::uint64_t base = announce_seed("Mutants.LatchGate2", 0x1A7C5);
  std::uint64_t detected_at = 0;
  for (std::uint64_t i = 0; i < 2000 && !detected_at; ++i) {
    GateFuzzConfig cfg;
    cfg.rounds = 3;
    cfg.waiters = 2;
    cfg.waiter_cap = 12;
    cfg.seed = base + i;
    cfg.watchdog = std::chrono::milliseconds(3000);
    const auto out = fuzz_gate_once<MutantLatchGate>(cfg);
    if (!out.lin.ok() || out.run.deadlocked) detected_at = i + 1;
  }
  ASSERT_NE(detected_at, 0u)
      << "two-waiter latch-gate mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr, "[ MUTANT   ] latch-gate-2w detected after %llu schedules\n",
               static_cast<unsigned long long>(detected_at));
}

TEST(Mutants, EarlyRecheckDoorbellLosesWakeup) {
  // The drainer re-checks the rings before it leaves the count: a frame
  // published in between is skipped by the producer (count non-zero) and
  // by the re-check, and the poller — parked with no safety-net deadline
  // — sleeps through it.  Detection is the watchdog deadlock; the rescue
  // ring un-wedges the run afterwards.
  const std::uint64_t base = announce_seed("Mutants.EarlyRecheck", 0xD00C);
  std::uint64_t detected_at = 0;
  for (std::uint64_t i = 0; i < 2000 && !detected_at; ++i) {
    DoorbellFuzzConfig cfg{2, 4, 2};
    cfg.seed = base + i;
    cfg.watchdog = std::chrono::milliseconds(3000);
    const auto out = fuzz_doorbell_once<MutantEarlyRecheckDoorbell>(cfg);
    if (out.run.deadlocked || out.delivered != cfg.frames) {
      detected_at = i + 1;
    }
  }
  ASSERT_NE(detected_at, 0u)
      << "early-recheck doorbell mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr,
               "[ MUTANT   ] early-recheck-doorbell detected after %llu "
               "schedules\n",
               static_cast<unsigned long long>(detected_at));
}

TEST(Mutants, EarlyRecheckParkLosesWakeup) {
  // The poller re-checks the ring before it announces itself on the
  // gate: a frame published and rung in between bumps the epoch before
  // the poller's snapshot, so the ring wakes nobody and the poller —
  // parked with no deadline — sleeps through the frame.  Detection is
  // the watchdog deadlock; the rescue wake un-wedges the run afterwards.
  const std::uint64_t base = announce_seed("Mutants.EarlyRecheckPark", 0xD00D);
  std::uint64_t detected_at = 0;
  for (std::uint64_t i = 0; i < 2000 && !detected_at; ++i) {
    DoorbellFuzzConfig cfg{2, 4, 2};
    cfg.seed = base + i;
    cfg.watchdog = std::chrono::milliseconds(3000);
    const auto out = fuzz_doorbell_once<MutantEarlyRecheckPark>(cfg);
    if (out.run.deadlocked || out.delivered != cfg.frames) {
      detected_at = i + 1;
    }
  }
  ASSERT_NE(detected_at, 0u)
      << "early-recheck park mutant survived 2000 fuzzed schedules";
  std::fprintf(stderr,
               "[ MUTANT   ] early-recheck-park detected after %llu "
               "schedules\n",
               static_cast<unsigned long long>(detected_at));
}

}  // namespace
