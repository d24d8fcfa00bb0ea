// End-to-end crash / checkpoint / recovery tests (the PR's acceptance
// bar): a process is killed mid-run by an injected crash event, the
// failure detector declares it dead, the survivors roll back to the last
// committed in-memory checkpoint, re-home the dead process's chare
// elements, replay — and the run completes *bit-identical* to a
// crash-free run.  With checkpointing disabled, the hang watchdog must
// detect the same scenario and produce a diagnostic dump instead.
//
// Both mini-apps (ft_apps.hpp) are strictly deterministic: every
// iteration is a pure function of (state, iter), so FNV-1a digests of the
// final element state are comparable across runs and configurations.
#include <gtest/gtest.h>

#include <cstdint>

#include "charm/ft_apps.hpp"

namespace {

using bgq::charm::FtFft2D;
using bgq::charm::FtMdRing;
using bgq::charm::Runtime;
using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Mode;
using bgq::cvs::Pe;
using bgq::net::FaultPlan;

// Four single-worker SMP processes: each PE advances its own PAMI
// context, so PEs parked in the protocol barriers still execute inbound
// messages inline (what makes quiescence converge).
MachineConfig ft_config() {
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.ft.enabled = true;
  cfg.ft.checkpoint_period_ms = 5;
  cfg.ft.heartbeat_period_ms = 2;
  cfg.ft.failure_timeout_ms = 15;
  cfg.ft.watchdog_abort = false;  // a test failure must not abort ctest
  return cfg;
}

constexpr std::size_t kGrid = 16;    // FFT grid edge (2,3,5-smooth)
constexpr std::size_t kElems = 4;    // one element per PE
constexpr std::uint32_t kIters = 12;

constexpr std::size_t kPatches = 4;
constexpr std::size_t kParticles = 6;
// Enough steps that the run spans many 1 ms monitor ticks — a
// message-count crash fires on the first tick at/after its watermark,
// so the app must still be running then.
constexpr std::uint32_t kSteps = 160;

struct FftResult {
  std::uint64_t digest;
  double total;
  bool finished;
};

FftResult run_fft(MachineConfig cfg) {
  Machine machine(cfg);
  Runtime rt(machine);
  FtFft2D app(rt, kGrid, kElems, kIters);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });
  return {app.digest(), app.final_total(), app.finished()};
}

struct MdResult {
  std::uint64_t digest;
  double energy;
  bool finished;
};

MdResult run_md(MachineConfig cfg) {
  Machine machine(cfg);
  Runtime rt(machine);
  FtMdRing app(rt, kPatches, kParticles, kSteps);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });
  return {app.digest(), app.final_energy(), app.finished()};
}

TEST(Recovery, FftSurvivesCrashBitIdentical) {
  const FftResult ref = run_fft(ft_config());
  ASSERT_TRUE(ref.finished);

  // Kill process 1 once the 150th application message is sent — a
  // deterministic point a few iterations in, well past the seed
  // checkpoint at the first step boundary.
  MachineConfig cfg = ft_config();
  cfg.faults = FaultPlan::parse("crash@1:150msg");
  Machine machine(cfg);
  Runtime rt(machine);
  FtFft2D app(rt, kGrid, kElems, kIters);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });

  ASSERT_TRUE(app.finished()) << "the crashed run must still complete";
  EXPECT_TRUE(machine.process_killed(1));
  EXPECT_TRUE(machine.process_dead(1)) << "heartbeat silence declared it";
  ASSERT_NE(machine.ft_manager(), nullptr);
  EXPECT_EQ(app.digest(), ref.digest)
      << "rollback + replay must reproduce the crash-free run exactly";
  EXPECT_EQ(app.final_total(), ref.total);

  const auto report = machine.metrics_report();
  EXPECT_GE(report.value("ft.checkpoints"), 1u);
  EXPECT_GE(report.value("ft.recoveries"), 1u);
  EXPECT_GE(report.value("ft.crashes"), 1u);
  EXPECT_GT(report.value("ft.checkpoint_bytes"), 0u);
  EXPECT_GT(report.value("net.blackholed"), 0u);
}

TEST(Recovery, FftSurvivesLeaderCrash) {
  // Process 0 hosts the protocol leader AND the reduction root: killing
  // it forces leadership + reduction re-homing onto the survivors.
  const FftResult ref = run_fft(ft_config());
  ASSERT_TRUE(ref.finished);

  MachineConfig cfg = ft_config();
  cfg.faults = FaultPlan::parse("crash@0:150msg");
  Machine machine(cfg);
  Runtime rt(machine);
  FtFft2D app(rt, kGrid, kElems, kIters);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });

  ASSERT_TRUE(app.finished());
  EXPECT_TRUE(machine.process_dead(0));
  EXPECT_NE(machine.lowest_live_pe(), 0u) << "leadership moved";
  EXPECT_GE(machine.metrics().total("ft.recoveries"), 1u);
  EXPECT_EQ(app.digest(), ref.digest);
  EXPECT_EQ(app.final_total(), ref.total);
}

TEST(Recovery, MdSurvivesCrashBitIdentical) {
  const MdResult ref = run_md(ft_config());
  ASSERT_TRUE(ref.finished);

  MachineConfig cfg = ft_config();
  cfg.faults = FaultPlan::parse("crash@2:100msg");
  Machine machine(cfg);
  Runtime rt(machine);
  FtMdRing app(rt, kPatches, kParticles, kSteps);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });

  ASSERT_TRUE(app.finished());
  EXPECT_GE(machine.metrics().total("ft.recoveries"), 1u);
  EXPECT_EQ(app.digest(), ref.digest);
  EXPECT_EQ(app.final_energy(), ref.energy);
}

TEST(Recovery, ReductionDeliversExactlyOneCorrectTotalAcrossCrash) {
  // Satellite: a sum reduction interrupted by a crash must deliver
  // exactly one, correct total.  Every MD step ends in an energy
  // reduction; the crash lands mid-step, so contributions from the
  // pre-rollback attempt race the replayed ones.  The per-element
  // contribution slots either dropped them as duplicates or the epoch
  // guard discarded them — either way the final energy is bit-identical
  // and each step advanced exactly once (else the digest would diverge).
  const MdResult ref = run_md(ft_config());
  ASSERT_TRUE(ref.finished);

  MachineConfig cfg = ft_config();
  cfg.faults = FaultPlan::parse("crash@1:110msg");
  Machine machine(cfg);
  Runtime rt(machine);
  FtMdRing app(rt, kPatches, kParticles, kSteps);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });

  ASSERT_TRUE(app.finished());
  EXPECT_GE(machine.metrics().total("ft.recoveries"), 1u);
  EXPECT_EQ(app.final_energy(), ref.energy)
      << "a double-folded or lost contribution would change the total";
  EXPECT_EQ(app.digest(), ref.digest)
      << "a double-delivered total would double-advance a step";
}

TEST(Recovery, CheckpointingIsTransparentWhenNothingCrashes) {
  // FT machinery on, no failures: periodic checkpoints must not perturb
  // the computation relative to a plain (FT-off) machine.
  MachineConfig plain;
  plain.nodes = 4;
  plain.mode = Mode::kSmp;
  plain.workers_per_process = 1;
  const FftResult ref = run_fft(plain);
  ASSERT_TRUE(ref.finished);

  const FftResult ft = run_fft(ft_config());
  ASSERT_TRUE(ft.finished);
  EXPECT_EQ(ft.digest, ref.digest);
  EXPECT_EQ(ft.total, ref.total);
}

TEST(Recovery, WatchdogDetectsHangWhenCheckpointingIsDisabled) {
  // Same crash, no checkpoint/restart protocol: the machine cannot heal,
  // so the hang watchdog must notice the stalled progress, dump
  // diagnostics, and stop the run (watchdog_abort=false keeps ctest
  // alive; production default aborts).
  MachineConfig cfg;
  cfg.nodes = 4;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;
  cfg.ft.enabled = false;
  cfg.ft.watchdog_ms = 60;
  cfg.ft.watchdog_abort = false;
  cfg.faults = FaultPlan::parse("crash@1:60msg");
  ASSERT_TRUE(cfg.ft.armed());

  Machine machine(cfg);
  Runtime rt(machine);
  FtFft2D app(rt, kGrid, kElems, /*iters=*/1000);  // can't finish pre-crash
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });

  EXPECT_FALSE(app.finished());
  auto* mgr = machine.ft_manager();
  ASSERT_NE(mgr, nullptr);
  EXPECT_TRUE(mgr->hang_detected());
  const auto report = machine.metrics_report();
  EXPECT_GE(report.value("ft.crashes"), 1u);
  EXPECT_GE(report.value("ft.watchdog_dumps"), 1u);
}

}  // namespace
