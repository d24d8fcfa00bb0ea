// The fault-tolerance manager: crash injection, heartbeat failure
// detection, coordinated buddy checkpointing, rollback recovery, and the
// hang watchdog — the runtime service that turns the chaos-tolerant
// machine of PR 3 into a failure-tolerant one.
//
// One Manager per fault-tolerant Machine.  It owns a monitor thread
// (started/stopped by Machine::run) that fires scheduled crash events,
// posts best-effort heartbeats, declares silent processes dead, and
// watches global progress.  The heavyweight protocol work — quiescing,
// snapshotting, restoring — runs on the worker PEs themselves via poll(),
// which the scheduler loop calls when its queue is drained: workers park
// in a progress-aware barrier while the leader (lowest live PE) drives
// the protocol, exactly the shape of Charm++'s in-memory checkpointing.
//
// Epoch discipline: every application message carries the machine's
// 16-bit epoch.  Detection bumps it once (in-flight and queued messages
// go stale immediately); the recovery leader bumps it again inside the
// barrier, after every handler has parked, so messages sent by handlers
// that raced the first bump are stale too.  Only post-resume traffic
// carries the live epoch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ft/config.hpp"
#include "ft/store.hpp"
#include "net/fault.hpp"
#include "trace/registry.hpp"
#include "transport/transport.hpp"

namespace bgq::cvs {
class Machine;
class Pe;
}  // namespace bgq::cvs

namespace bgq::ft {

/// The application-state hooks the checkpoint protocol drives — the
/// charm layer's Runtime implements them (pup of chare-array elements
/// plus in-flight reduction state).
class Client {
 public:
  virtual ~Client() = default;

  /// Serialize process `proc`'s share of application state.
  virtual std::vector<std::byte> save(unsigned proc) = 0;

  /// Roll all application state back to the checkpoint in `blobs`
  /// (proc -> blob, one entry per process saved).  Runs with every live
  /// worker parked; element re-homing onto survivors happens here.
  virtual void restore(
      const std::map<unsigned, std::vector<std::byte>>& blobs) = 0;

  /// Re-kick the application after a checkpoint or recovery (the app
  /// defers its next step while a snapshot is in progress).  Runs on the
  /// leader PE; sends normal epoch-stamped messages.
  virtual void resume(cvs::Pe& pe) = 0;
};

class Manager {
 public:
  /// Counts into the machine's registry (ft.*).
  Manager(cvs::Machine& mach, Config cfg,
          std::vector<net::CrashEvent> crashes);
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Register the application-state hooks (the charm Runtime).  Must
  /// outlive the run.
  void set_client(Client* c) noexcept { client_ = c; }

  /// Machine::run lifecycle: start() seeds liveness and launches the
  /// monitor thread before workers spawn; stop() joins it after they
  /// exit.
  void start();
  void stop();

  /// Run the monitor's duties now rather than at its next tick (the
  /// machine calls this when a message-count crash comes due).
  void wake();

  /// Worker-scheduler hook, called when the PE's queue is drained.
  /// Returns true when protocol work ran (checkpoint or recovery).
  bool poll(cvs::Pe& pe);

  /// Ask for a coordinated checkpoint (app-cooperative: call at a step
  /// boundary, when no application messages are outstanding).  Returns
  /// false when a checkpoint or recovery is already in progress.
  bool request_checkpoint();

  /// True when checkpoint_period_ms elapsed since the last snapshot.
  bool checkpoint_due() const;

  /// Bookkeeping hook for Machine::kill_process: the copies a dead
  /// process held are gone.  (In a multi-process job each rank's store
  /// only ever holds copies in its own memory — a dead rank's store dies
  /// with its OS process — so there is nothing to drop.)
  void on_killed(unsigned proc);

  /// FT control frames (ctrl::kFtBase and up) routed here by the machine
  /// layer.  Runs on whichever thread drains the transport (one at a
  /// time, in per-pair FIFO order).
  void on_ctrl(const transport::CtrlMsg& m);

  /// Set when the watchdog fired with watchdog_abort == false.
  bool hang_detected() const noexcept {
    return hang_.load(std::memory_order_acquire);
  }

  CheckpointStore& store() noexcept { return store_; }

 private:
  enum class Phase : int { kRun, kCheckpoint, kRecover };

  void monitor_loop();
  void fire_crashes(std::uint64_t now);
  /// Point the machine's crash watermark at the next unfired local
  /// message-count crash.
  void arm_crash_watermark();
  void post_heartbeats(std::uint64_t now);
  void detect_failures(std::uint64_t now);
  void watchdog(std::uint64_t now);
  void unrecoverable(const char* why);
  void dump_diagnostics(const char* why);

  void do_checkpoint(cvs::Pe& pe);
  void do_checkpoint_multi(cvs::Pe& pe);
  void do_recover(cvs::Pe& pe);
  void do_recover_multi(cvs::Pe& pe);
  bool is_leader(const cvs::Pe& pe) const;
  bool wait_quiesce(cvs::Pe& pe);
  bool wait_quiesce_multi(cvs::Pe& pe);
  unsigned buddy_of(unsigned proc) const;
  void snapshot_all(std::uint64_t seq);
  std::uint64_t live_mask() const;
  void record_members(std::uint64_t seq, std::uint64_t mask);

  cvs::Machine& mach_;
  const Config cfg_;
  Client* client_ = nullptr;
  CheckpointStore store_;

  std::vector<net::CrashEvent> crashes_;
  std::vector<bool> crash_fired_;

  std::atomic<Phase> phase_{Phase::kRun};
  std::atomic<std::uint64_t> ckpt_seq_{0};
  std::atomic<std::uint64_t> last_ckpt_ns_{0};

  // ---- multi-process protocol state (idle single-process) --------------
  // Per-rank quiescence registers, fed by each rank's monitor broadcasting
  // kFtRegs every tick.  gen is written last (release) so a reader that
  // sees it advanced sees a row at least that fresh.
  struct alignas(64) RegsRow {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> exec{0};
    std::atomic<std::uint64_t> gen{0};
  };
  std::vector<RegsRow> regs_;  ///< by transport rank; sized when multiproc
  std::atomic<std::uint64_t> regs_gen_{0};

  // Leader -> ranks checkpoint plan.  One plan is outstanding at a time
  // (serialized by the protocol barriers); stamp is bumped last.
  std::atomic<std::uint64_t> plan_seq_{0};
  std::atomic<std::uint64_t> plan_go_{0};
  std::atomic<std::uint64_t> plan_members_{0};
  std::atomic<std::uint64_t> plan_stamp_{0};
  std::uint64_t plan_seen_ = 0;  ///< protocol PE only

  std::atomic<std::uint64_t> done_count_{0};  ///< kCkptDone arrivals (leader)

  // Which procs a committed epoch covers (recovery must gather exactly
  // these blobs) and the blob exchange for an in-flight recovery.
  std::mutex members_mu_;
  std::map<std::uint64_t, std::uint64_t> members_by_seq_;
  std::mutex rec_mu_;
  std::map<std::uint64_t, std::map<unsigned, std::vector<std::byte>>>
      rec_blobs_;

  // Monitor thread.
  std::thread monitor_;
  std::mutex mon_mu_;
  std::condition_variable mon_cv_;
  bool mon_stop_ = false;
  bool mon_woken_ = false;
  std::uint64_t run_start_ns_ = 0;
  std::uint64_t last_hb_ns_ = 0;
  std::uint64_t last_exec_ = 0;
  std::uint64_t last_progress_ns_ = 0;

  std::atomic<bool> hang_{false};
  trace::Cell& checkpoints_;
  trace::Cell& skipped_;       ///< checkpoints_skipped
  trace::Cell& recoveries_;
  trace::Cell& crashes_fired_;
  trace::Cell& heartbeats_;
  trace::Cell& dumps_;         ///< watchdog_dumps
  trace::Cell& ckpt_bytes_;    ///< resident checkpoint bytes (set)
  trace::Cell& recovery_ns_;   ///< summed over recoveries
  trace::Cell& detect_ns_;     ///< last detection's silence (set)
};

}  // namespace bgq::ft
