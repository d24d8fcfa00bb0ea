// Fault-tolerance manager implementation: see manager.hpp for the
// protocol overview.  The monitor thread owns the cheap periodic duties
// (crash schedule, heartbeats, failure detection, hang watchdog); the
// checkpoint/recovery protocol itself runs on the worker PEs via poll().
#include "ft/manager.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/timing.hpp"
#include "converse/machine.hpp"
#include "trace/trace.hpp"

namespace bgq::ft {

namespace {
constexpr std::uint64_t kMsPerNs = 1000u * 1000u;

std::uint64_t popcount64(std::uint64_t v) {
  std::uint64_t n = 0;
  for (; v != 0; v &= v - 1) ++n;
  return n;
}
}  // namespace

Manager::Manager(cvs::Machine& mach, Config cfg,
                 std::vector<net::CrashEvent> crashes)
    : mach_(mach),
      cfg_(cfg),
      crashes_(std::move(crashes)),
      crash_fired_(crashes_.size(), false),
      // config-derived count: the machine's Process objects don't exist
      // yet when the manager is built.
      regs_(mach.multiproc() ? mach.config().process_count() : 0) {}

Manager::~Manager() { stop(); }

void Manager::start() {
  const std::uint64_t now = now_ns();
  run_start_ns_ = now;
  last_hb_ns_ = now;
  last_exec_ = 0;
  last_progress_ns_ = now;
  last_ckpt_ns_.store(now, std::memory_order_release);
  // Seed liveness so nobody is declared dead before first traffic.
  for (std::size_t p = 0; p < mach_.process_count(); ++p) {
    mach_.fabric().touch_liveness(static_cast<topo::NodeId>(p), now);
  }
  {
    std::lock_guard<std::mutex> g(mon_mu_);
    mon_stop_ = false;
    mon_woken_ = false;
  }
  arm_crash_watermark();
  monitor_ = std::thread([this] { monitor_loop(); });
}

void Manager::stop() {
  {
    std::lock_guard<std::mutex> g(mon_mu_);
    mon_stop_ = true;
  }
  mon_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  mach_.set_crash_watermark(0);
}

void Manager::wake() {
  {
    std::lock_guard<std::mutex> g(mon_mu_);
    mon_woken_ = true;
  }
  mon_cv_.notify_all();
}

void Manager::monitor_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mon_mu_);
      mon_cv_.wait_for(lk, std::chrono::milliseconds(1),
                       [this] { return mon_stop_ || mon_woken_; });
      if (mon_stop_) return;
      mon_woken_ = false;
    }
    const std::uint64_t now = now_ns();
    fire_crashes(now);
    if (cfg_.enabled) {
      post_heartbeats(now);
      detect_failures(now);
      if (mach_.multiproc()) {
        // Publish this rank's quiescence registers every tick; the
        // checkpoint leader sums the latest row from every live rank
        // (wait_quiesce_multi).  gen lets the reader insist on a row
        // newer than its previous sample.
        transport::CtrlMsg rm;
        rm.type = cvs::ctrl::kFtRegs;
        rm.a = mach_.ft_sent();
        rm.b = mach_.ft_executed();
        rm.c = regs_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
        try {
          mach_.send_ctrl(-1, std::move(rm));
        } catch (...) {
          // A peer torn down mid-shutdown: the detector handles it.
        }
      }
    }
    watchdog(now);
  }
}

void Manager::fire_crashes(std::uint64_t now) {
  // A crash landing after the app finished (the stop flag is up) would
  // model a failure nobody is left to recover from — and in a
  // multi-process job would turn a clean run's teardown into a spurious
  // exit-42.  The plan's window is the run, not the teardown.
  if (mach_.stopping()) return;
  for (std::size_t i = 0; i < crashes_.size(); ++i) {
    if (crash_fired_[i]) continue;
    const net::CrashEvent& ev = crashes_[i];
    if (mach_.multiproc() && !mach_.process_local(ev.process)) {
      // Another OS rank owns this event (each rank fires only its own
      // crash — and fires it for real, by exiting).
      crash_fired_[i] = true;
      continue;
    }
    const bool due =
        (ev.at_ms != 0 && now - run_start_ns_ >= ev.at_ms * kMsPerNs) ||
        (ev.at_msgs != 0 && mach_.ft_sent() >= ev.at_msgs);
    if (!due) continue;
    crash_fired_[i] = true;
    arm_crash_watermark();
    if (ev.process >= mach_.process_count()) continue;  // plan oversized
    if (mach_.multiproc()) {
      // A real process death: no destructors, no flushes — the survivors
      // must learn of it from heartbeat silence alone.  bgq-run treats
      // exit code 42 as the planned crash.
      std::fprintf(stderr, "bgq-ft: rank %u crashing on schedule\n",
                   ev.process);
      std::_Exit(42);
    }
    mach_.kill_process(ev.process);
    crashes_fired_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Manager::arm_crash_watermark() {
  std::uint64_t next = 0;
  for (std::size_t i = 0; i < crashes_.size(); ++i) {
    const net::CrashEvent& ev = crashes_[i];
    if (crash_fired_[i] || ev.at_msgs == 0) continue;
    if (mach_.multiproc() && !mach_.process_local(ev.process)) continue;
    if (next == 0 || ev.at_msgs < next) next = ev.at_msgs;
  }
  mach_.set_crash_watermark(next);
}

void Manager::post_heartbeats(std::uint64_t now) {
  if (now - last_hb_ns_ < cfg_.heartbeat_period_ms * kMsPerNs) return;
  last_hb_ns_ = now;
  for (std::size_t p = 0; p < mach_.process_count(); ++p) {
    // Only a process whose threads run here can post work; a remote
    // rank's Process object is an addressing stub with no one to drain
    // its queues.
    if (!mach_.process_local(p)) continue;
    if (mach_.process_killed(p)) continue;
    mach_.process(p).post_heartbeats();
    heartbeats_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Manager::detect_failures(std::uint64_t now) {
  // Declared deaths drive everything downstream (barrier skips, the
  // leader role, re-homing).  Detection runs during kRun and also during
  // kCheckpoint — a crash landing mid-checkpoint must still be declared,
  // or the survivors cycling the (killed-slot-skipping) barriers would
  // wait forever for a leader that no longer exists.  Only kRecover is
  // off-limits: the restore itself must see a frozen membership.
  if (phase_.load(std::memory_order_acquire) == Phase::kRecover) return;
  if (mach_.stopping()) return;
  bool newly_dead = false;
  for (std::size_t p = 0; p < mach_.process_count(); ++p) {
    if (mach_.process_dead(p)) continue;
    const std::uint64_t heard =
        mach_.fabric().last_heard(static_cast<topo::NodeId>(p));
    const std::uint64_t age = now > heard ? now - heard : 0;
    if (age < cfg_.failure_timeout_ms * kMsPerNs) continue;
    // Silent past the timeout: declare it dead.  kill_process is
    // idempotent — for an injected crash the endpoint is already dead and
    // this is a no-op; for a genuine wedge it also cuts the process off,
    // so the survivors' view and the fabric agree from here on.
    mach_.kill_process(p);
    mach_.declare_dead(p);
    detect_ns_.store(age, std::memory_order_relaxed);
    newly_dead = true;
  }
  if (!newly_dead) return;
  if (mach_.live_process_count() == 0) {
    unrecoverable("all processes dead");
    return;
  }
  if (client_ == nullptr || store_.latest_complete() == 0) {
    unrecoverable("process died before any committed checkpoint");
    return;
  }
  // First epoch bump: every in-flight and queued pre-death message goes
  // stale immediately.  Handlers racing this bump may still emit messages
  // at the new epoch; the recovery leader bumps once more inside the
  // barrier to invalidate those too.
  mach_.bump_msg_epoch();
  phase_.store(Phase::kRecover, std::memory_order_release);
}

void Manager::watchdog(std::uint64_t now) {
  if (cfg_.watchdog_ms == 0) return;
  const std::uint64_t exec = mach_.ft_executed();
  if (mach_.stopping() ||
      phase_.load(std::memory_order_acquire) != Phase::kRun ||
      exec != last_exec_) {
    // Progress (or a protocol phase that legitimately stalls the app):
    // re-arm.  Heartbeats keep the fabric busy during a wedge, so the
    // watchdog watches executed-message count, never raw transfers.
    last_exec_ = exec;
    last_progress_ns_ = now;
    return;
  }
  if (now - last_progress_ns_ < cfg_.watchdog_ms * kMsPerNs) return;
  dumps_.fetch_add(1, std::memory_order_relaxed);
  dump_diagnostics("watchdog: no message executed within deadline");
  if (cfg_.watchdog_abort) std::abort();
  hang_.store(true, std::memory_order_release);
  mach_.request_stop();
}

void Manager::unrecoverable(const char* why) {
  dump_diagnostics(why);
  if (cfg_.watchdog_abort) std::abort();
  hang_.store(true, std::memory_order_release);
  mach_.request_stop();
}

void Manager::dump_diagnostics(const char* why) {
  const std::uint64_t now = now_ns();
  std::fprintf(stderr, "=== bgq ft diagnostic dump: %s ===\n", why);
  std::fprintf(
      stderr,
      "phase=%d epoch=%u ft_sent=%llu ft_executed=%llu stale_drops=%llu\n",
      static_cast<int>(phase_.load(std::memory_order_acquire)),
      mach_.msg_epoch(),
      static_cast<unsigned long long>(mach_.ft_sent()),
      static_cast<unsigned long long>(mach_.ft_executed()),
      static_cast<unsigned long long>(mach_.stale_drops()));
  for (std::size_t p = 0; p < mach_.process_count(); ++p) {
    const std::uint64_t heard =
        mach_.fabric().last_heard(static_cast<topo::NodeId>(p));
    std::fprintf(stderr,
                 "proc %zu: killed=%d dead=%d last_heard_age_ms=%.1f\n", p,
                 mach_.process_killed(p) ? 1 : 0,
                 mach_.process_dead(p) ? 1 : 0,
                 heard != 0 && now > heard
                     ? static_cast<double>(now - heard) / 1e6
                     : -1.0);
    pami::Client& cl = mach_.process(p).client();
    for (unsigned i = 0; i < cl.context_count(); ++i) {
      const pami::Context& ctx = cl.context(i);
      std::fprintf(
          stderr,
          "  ctx%u: outstanding=%zu backlog=%zu retransmits=%llu\n", i,
          ctx.outstanding(), ctx.backlog_size(),
          static_cast<unsigned long long>(ctx.retransmits()));
    }
  }
  std::fprintf(stderr, "fabric: blackholed=%llu drops=%llu\n",
               static_cast<unsigned long long>(mach_.fabric().blackholed()),
               static_cast<unsigned long long>(
                   mach_.fabric().faults_dropped()));
  if (mach_.trace_session().enabled()) {
    const trace::FlatTrace& ft = mach_.trace_session().collect();
    for (const auto& track : ft.tracks) {
      const std::size_t n = track.events.size();
      if (n == 0) continue;
      std::fprintf(stderr, "trace tail %s:", track.name.c_str());
      for (std::size_t i = n > 4 ? n - 4 : 0; i < n; ++i) {
        const trace::Event& e = track.events[i];
        std::fprintf(stderr, " [%s arg=%u t=%.3fms]",
                     trace::kind_name(e.kind), e.arg,
                     static_cast<double>(e.t_ns) / 1e6);
      }
      std::fprintf(stderr, "\n");
    }
  }
  std::fprintf(stderr, "=== end dump ===\n");
}

bool Manager::poll(cvs::Pe& pe) {
  switch (phase_.load(std::memory_order_acquire)) {
    case Phase::kRun:
      return false;
    case Phase::kCheckpoint:
      mach_.multiproc() ? do_checkpoint_multi(pe) : do_checkpoint(pe);
      return true;
    case Phase::kRecover:
      mach_.multiproc() ? do_recover_multi(pe) : do_recover(pe);
      return true;
  }
  return false;
}

bool Manager::request_checkpoint() {
  if (!cfg_.enabled) return false;
  Phase expected = Phase::kRun;
  if (!phase_.compare_exchange_strong(expected, Phase::kCheckpoint,
                                      std::memory_order_acq_rel)) {
    return false;
  }
  // The request lands on whichever rank hosts the triggering element;
  // pull every other rank's phase over too (receivers CAS kRun ->
  // kCheckpoint, so a request racing a failure loses to recovery).
  if (mach_.multiproc()) {
    transport::CtrlMsg m;
    m.type = cvs::ctrl::kCkptReq;
    mach_.send_ctrl(-1, std::move(m));
  }
  return true;
}

void Manager::on_killed(unsigned proc) {
  // Single-process: the copies the dead emulated process held are gone.
  // Multi-process: each rank's store only ever holds copies in its own
  // memory — a dead rank's store died with its OS process, and dropping
  // by holder here would wrongly discard the *survivor's* buddy copy of
  // the dead rank's state (stored under the dead rank's proc id).
  if (!mach_.multiproc()) store_.drop_holder(proc);
}

void Manager::on_ctrl(const transport::CtrlMsg& m) {
  switch (m.type) {
    case cvs::ctrl::kFtRegs: {
      if (m.origin >= regs_.size()) return;
      RegsRow& r = regs_[m.origin];
      r.sent.store(m.a, std::memory_order_relaxed);
      r.exec.store(m.b, std::memory_order_relaxed);
      r.gen.store(m.c, std::memory_order_release);  // written last
      return;
    }
    case cvs::ctrl::kCkptReq: {
      Phase expected = Phase::kRun;
      phase_.compare_exchange_strong(expected, Phase::kCheckpoint,
                                     std::memory_order_acq_rel);
      return;
    }
    case cvs::ctrl::kCkptPlan: {
      plan_seq_.store(m.a, std::memory_order_relaxed);
      plan_go_.store(m.b, std::memory_order_relaxed);
      plan_members_.store(m.c, std::memory_order_relaxed);
      plan_stamp_.fetch_add(1, std::memory_order_release);  // wakes waiter
      return;
    }
    case cvs::ctrl::kCkptBlob: {
      // This rank is the buddy holder of rank m.b's blob for epoch m.a.
      store_.put(m.a, static_cast<unsigned>(m.b),
                 static_cast<unsigned>(m.b), m.blob);
      return;
    }
    case cvs::ctrl::kCkptDone: {
      // Stale dones from an abandoned round carry an older seq.
      if (m.a == plan_seq_.load(std::memory_order_relaxed)) {
        done_count_.fetch_add(1, std::memory_order_acq_rel);
      }
      return;
    }
    case cvs::ctrl::kCkptCommit: {
      record_members(m.a, m.c);
      store_.commit(m.a);
      std::uint64_t cur = ckpt_seq_.load(std::memory_order_acquire);
      while (cur < m.a &&
             !ckpt_seq_.compare_exchange_weak(cur, m.a,
                                              std::memory_order_acq_rel)) {
      }
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
      ckpt_bytes_.store(store_.resident_bytes(), std::memory_order_relaxed);
      last_ckpt_ns_.store(now_ns(), std::memory_order_release);
      return;
    }
    case cvs::ctrl::kRecBlob: {
      // First copy wins; every holder rebroadcasts what it has, so
      // duplicates are the common case.
      std::lock_guard<std::mutex> g(rec_mu_);
      rec_blobs_[m.a].emplace(static_cast<unsigned>(m.b), m.blob);
      return;
    }
    default:
      return;
  }
}

bool Manager::checkpoint_due() const {
  if (!cfg_.enabled || cfg_.checkpoint_period_ms == 0) return false;
  // Until the first commit any failure is unrecoverable, so the first
  // step boundary always checkpoints regardless of the period.
  if (checkpoints_.load(std::memory_order_relaxed) == 0) return true;
  return now_ns() - last_ckpt_ns_.load(std::memory_order_acquire) >=
         cfg_.checkpoint_period_ms * kMsPerNs;
}

bool Manager::is_leader(const cvs::Pe& pe) const {
  return pe.rank() == mach_.lowest_live_pe();
}

unsigned Manager::buddy_of(unsigned proc) const {
  const std::size_t n = mach_.process_count();
  for (std::size_t k = 1; k < n; ++k) {
    const auto q = static_cast<unsigned>((proc + k) % n);
    if (!mach_.process_dead(q) && !mach_.process_killed(q)) return q;
  }
  return proc;  // no live buddy: single copy
}

bool Manager::wait_quiesce(cvs::Pe& pe) {
  // The other live PEs are parked in the exit barrier, where each keeps
  // advancing its own PAMI context — in the FT configurations (one worker
  // per process) arrivals execute inline from that advance, so straggling
  // messages drain and the sent/executed counts converge.  Bounded: an
  // app that checkpoints mid-step (messages still crossing) makes no
  // progress here and the checkpoint is skipped, not wedged.
  pami::Context* ctx = pe.owned_context();
  for (int iter = 0; iter < 200000; ++iter) {
    if (mach_.ft_sent() == mach_.ft_executed()) return true;
    if (mach_.stopping()) return false;
    // A failure detected while we wait flips the phase to kRecover; the
    // counts then can never converge (sends to the dead process are
    // executed by no one), so give up and let recovery run.
    if (phase_.load(std::memory_order_acquire) != Phase::kCheckpoint) {
      return false;
    }
    if (ctx != nullptr) ctx->advance();
    // Inline-executed arrivals may have staged fresh aggregation records;
    // without the timeout flush the sent/executed counts could not
    // converge while they sit buffered.
    mach_.tram_tick(pe);
    std::this_thread::yield();
  }
  return false;
}

bool Manager::wait_quiesce_multi(cvs::Pe& pe) {
  // Distributed four-counter quiescence (leader only).  Every rank's
  // monitor broadcasts its local (sent, executed) registers each tick;
  // we sum our own live counters with the newest remote rows and succeed
  // when two samples agree, the totals balance, and every live remote
  // generation advanced in between — by counter monotonicity a message
  // in flight across the second sample would leave sent > executed.
  pami::Context* ctx = pe.owned_context();
  const std::size_t n = mach_.process_count();
  const unsigned self = mach_.local_rank();
  std::vector<std::uint64_t> gen0(n, 0);
  std::uint64_t s0 = 0, e0 = 0;
  bool armed = false;
  for (int iter = 0; iter < 400000; ++iter) {
    if (mach_.stopping()) return false;
    if (phase_.load(std::memory_order_acquire) != Phase::kCheckpoint) {
      return false;  // a failure flipped us into recovery
    }
    std::uint64_t s = mach_.ft_sent();
    std::uint64_t e = mach_.ft_executed();
    std::vector<std::uint64_t> gen(n, 0);
    bool have_all = true;
    for (std::size_t p = 0; p < n; ++p) {
      if (p == self || mach_.process_dead(p) || mach_.process_killed(p)) {
        continue;
      }
      gen[p] = regs_[p].gen.load(std::memory_order_acquire);
      if (gen[p] == 0) {
        have_all = false;  // no report from this rank yet
        break;
      }
      s += regs_[p].sent.load(std::memory_order_relaxed);
      e += regs_[p].exec.load(std::memory_order_relaxed);
    }
    if (have_all && s == e) {
      if (armed && s == s0 && e == e0) {
        bool fresher = true;
        for (std::size_t p = 0; p < n; ++p) {
          if (p == self || mach_.process_dead(p) ||
              mach_.process_killed(p)) {
            continue;
          }
          if (gen[p] <= gen0[p]) {
            fresher = false;
            break;
          }
        }
        if (fresher) return true;
      }
      if (!armed) {
        armed = true;
        s0 = s;
        e0 = e;
        gen0 = gen;
      } else if (s != s0 || e != e0) {
        s0 = s;
        e0 = e;
        gen0 = gen;  // totals moved: restart the double sample
      }
    } else {
      armed = false;
    }
    if (ctx != nullptr) ctx->advance();
    mach_.tram_tick(pe);
    std::this_thread::yield();
  }
  return false;
}

void Manager::snapshot_all(std::uint64_t seq) {
  for (std::size_t p = 0; p < mach_.process_count(); ++p) {
    if (mach_.process_dead(p) || mach_.process_killed(p)) continue;
    const auto proc = static_cast<unsigned>(p);
    store_.put(seq, proc, buddy_of(proc), client_->save(proc));
  }
}

void Manager::do_checkpoint(cvs::Pe& pe) {
  // Entry barrier: every live PE is inside the protocol with its local
  // queue drained before anyone snapshots.
  mach_.worker_barrier(&pe);
  if (mach_.process_killed(mach_.process_of(pe.rank()))) return;
  if (is_leader(pe)) {
    const bool quiet = client_ != nullptr && wait_quiesce(pe);
    // A killed-but-undeclared process means home() still maps elements
    // onto it, so its share of the state would be missing from every
    // blob: never commit such an epoch — skip, and let the detector
    // (which also runs during this phase) turn the kill into a recovery.
    bool intact = true;
    for (std::size_t p = 0; p < mach_.process_count(); ++p) {
      if (mach_.process_killed(p) && !mach_.process_dead(p)) intact = false;
    }
    if (quiet && intact) {
      const std::uint64_t seq =
          ckpt_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
      snapshot_all(seq);
      store_.commit(seq);
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
      ckpt_bytes_.store(store_.resident_bytes(),
                        std::memory_order_relaxed);
    } else {
      skipped_.fetch_add(1, std::memory_order_relaxed);
    }
    last_ckpt_ns_.store(now_ns(), std::memory_order_release);
    // The detector may have flipped the phase to kRecover while we
    // worked; in that case leave it alone and skip the resume — the
    // recovery leader re-kicks the app after the rollback instead.
    Phase expected = Phase::kCheckpoint;
    if (phase_.compare_exchange_strong(expected, Phase::kRun,
                                       std::memory_order_acq_rel) &&
        client_ != nullptr) {
      client_->resume(pe);
    }
  }
  // Exit barrier: non-leaders park here (advancing their contexts) until
  // the leader has committed and reopened the run phase.
  mach_.worker_barrier(&pe);
}

std::uint64_t Manager::live_mask() const {
  std::uint64_t mask = 0;
  for (std::size_t p = 0; p < mach_.process_count() && p < 64; ++p) {
    if (!mach_.process_dead(p) && !mach_.process_killed(p)) {
      mask |= 1ull << p;
    }
  }
  return mask;
}

void Manager::record_members(std::uint64_t seq, std::uint64_t mask) {
  std::lock_guard<std::mutex> g(members_mu_);
  members_by_seq_[seq] = mask;
}

void Manager::do_checkpoint_multi(cvs::Pe& pe) {
  // One emulated process per rank, so this PE is both the local lead and
  // the whole local membership.  Entry barrier: every rank's PE is inside
  // the protocol (kCkptReq pulled the others' phases over) before anyone
  // quiesces or snapshots.
  mach_.worker_barrier(&pe);
  const unsigned self = mach_.local_rank();
  if (mach_.process_killed(self)) return;
  const bool leader = is_leader(pe);
  pami::Context* ctx = pe.owned_context();
  std::uint64_t seq = 0, go = 0, members = 0;
  if (leader) {
    const bool quiet = client_ != nullptr && wait_quiesce_multi(pe);
    bool intact = true;
    for (std::size_t p = 0; p < mach_.process_count(); ++p) {
      if (mach_.process_killed(p) && !mach_.process_dead(p)) intact = false;
    }
    go = (quiet && intact) ? 1 : 0;
    seq = ckpt_seq_.load(std::memory_order_acquire) + 1;
    members = live_mask();
    done_count_.store(0, std::memory_order_release);
    plan_seq_.store(seq, std::memory_order_relaxed);  // filters stale dones
    transport::CtrlMsg pm;
    pm.type = cvs::ctrl::kCkptPlan;
    pm.a = seq;
    pm.b = go;
    pm.c = members;
    mach_.send_ctrl(-1, std::move(pm));
  } else {
    // Wait for the leader's plan (bounded; bail if a failure flips the
    // phase or the run is tearing down — the skipped round costs only a
    // missed checkpoint, never a wedge).
    bool got = false;
    for (int iter = 0; iter < 400000; ++iter) {
      const std::uint64_t st = plan_stamp_.load(std::memory_order_acquire);
      if (st != plan_seen_) {
        plan_seen_ = st;
        got = true;
        break;
      }
      if (mach_.stopping() ||
          phase_.load(std::memory_order_acquire) != Phase::kCheckpoint) {
        break;
      }
      if (ctx != nullptr) ctx->advance();
      mach_.tram_tick(pe);
      std::this_thread::yield();
    }
    if (got) {
      seq = plan_seq_.load(std::memory_order_relaxed);
      go = plan_go_.load(std::memory_order_relaxed);
      members = plan_members_.load(std::memory_order_relaxed);
    }
  }
  if (go != 0 && client_ != nullptr) {
    // Local copy first, then ship the buddy copy out of band; the
    // kCkptBlob lands in the buddy's store regardless of its phase.
    std::vector<std::byte> blob = client_->save(self);
    const unsigned buddy = buddy_of(self);
    store_.put(seq, self, self, blob);
    if (buddy != self) {
      transport::CtrlMsg bm;
      bm.type = cvs::ctrl::kCkptBlob;
      bm.a = seq;
      bm.b = self;
      bm.blob = std::move(blob);
      mach_.send_ctrl(static_cast<int>(buddy), std::move(bm));
    }
    if (leader) {
      done_count_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      transport::CtrlMsg dm;
      dm.type = cvs::ctrl::kCkptDone;
      dm.a = seq;
      mach_.send_ctrl(
          static_cast<int>(mach_.process_of(mach_.lowest_live_pe())),
          std::move(dm));
    }
  }
  if (leader) {
    bool committed = false;
    if (go != 0) {
      // Commit only after every member reported its save: from then on a
      // single further death cannot lose the epoch.
      const std::uint64_t want = popcount64(members);
      for (int iter = 0; iter < 400000; ++iter) {
        if (done_count_.load(std::memory_order_acquire) >= want) {
          committed = true;
          break;
        }
        if (mach_.stopping() ||
            phase_.load(std::memory_order_acquire) != Phase::kCheckpoint) {
          break;
        }
        if (ctx != nullptr) ctx->advance();
        std::this_thread::yield();
      }
    }
    if (committed) {
      record_members(seq, members);
      store_.commit(seq);
      std::uint64_t cur = ckpt_seq_.load(std::memory_order_acquire);
      while (cur < seq &&
             !ckpt_seq_.compare_exchange_weak(cur, seq,
                                              std::memory_order_acq_rel)) {
      }
      checkpoints_.fetch_add(1, std::memory_order_relaxed);
      ckpt_bytes_.store(store_.resident_bytes(), std::memory_order_relaxed);
      // FIFO ordering makes the exit barrier the commit fence: this
      // broadcast precedes our barrier bump on every per-pair stream, so
      // a rank leaving the barrier has already committed.
      transport::CtrlMsg cm;
      cm.type = cvs::ctrl::kCkptCommit;
      cm.a = seq;
      cm.c = members;
      mach_.send_ctrl(-1, std::move(cm));
    } else {
      skipped_.fetch_add(1, std::memory_order_relaxed);
    }
    last_ckpt_ns_.store(now_ns(), std::memory_order_release);
    Phase expected = Phase::kCheckpoint;
    if (phase_.compare_exchange_strong(expected, Phase::kRun,
                                       std::memory_order_acq_rel) &&
        client_ != nullptr) {
      client_->resume(pe);
    }
  } else {
    // Reopen our own phase; the leader's kCkptCommit (when there is one)
    // was handled by the transport drain before its barrier bump reaches
    // us, so there is nothing to wait for here.
    last_ckpt_ns_.store(now_ns(), std::memory_order_release);
    Phase expected = Phase::kCheckpoint;
    phase_.compare_exchange_strong(expected, Phase::kRun,
                                   std::memory_order_acq_rel);
  }
  mach_.worker_barrier(&pe);
}

void Manager::do_recover_multi(cvs::Pe& pe) {
  // Entry barrier: completes only once every surviving rank's own
  // detector declared the death (a rank that has not yet noticed keeps
  // waiting on the dead PE's slot until it does) — membership agreement
  // before anyone touches state.
  mach_.worker_barrier(&pe);
  const unsigned self = mach_.local_rank();
  if (mach_.process_killed(self)) return;
  const std::uint64_t t0 = now_ns();
  pami::Context* ctx = pe.owned_context();
  // Every rank bumps the epoch a second time and resets its counters in
  // lockstep (exactly two bumps per failure keeps the ranks' epochs
  // equal without any exchange); stale quiescence rows go with them.
  mach_.bump_msg_epoch();
  mach_.reset_ft_counters();
  for (auto& r : regs_) {
    r.sent.store(0, std::memory_order_relaxed);
    r.exec.store(0, std::memory_order_relaxed);
    r.gen.store(0, std::memory_order_relaxed);
  }
  const std::uint64_t seq = store_.latest_complete();
  std::uint64_t members = 0;
  {
    std::lock_guard<std::mutex> g(members_mu_);
    const auto it = members_by_seq_.find(seq);
    if (it != members_by_seq_.end()) members = it->second;
  }
  if (seq == 0 || members == 0) {
    unrecoverable("no committed checkpoint epoch to recover from");
    return;
  }
  // Contribute every blob this rank holds for the epoch — its own and
  // any buddy copies — to the shared pool, locally and by broadcast
  // (receivers dedup first-wins).  With the double scheme every blob of
  // a committed epoch survives any single death on some rank.
  {
    std::vector<std::pair<unsigned, std::vector<std::byte>>> held;
    for (unsigned proc : store_.procs(seq)) {
      std::vector<std::byte> b;
      if (store_.fetch(seq, proc, b)) held.emplace_back(proc, std::move(b));
    }
    {
      std::lock_guard<std::mutex> g(rec_mu_);
      auto& pool = rec_blobs_[seq];
      for (const auto& [proc, b] : held) pool.emplace(proc, b);
    }
    for (auto& [proc, b] : held) {
      transport::CtrlMsg rm;
      rm.type = cvs::ctrl::kRecBlob;
      rm.a = seq;
      rm.b = proc;
      rm.blob = std::move(b);
      mach_.send_ctrl(-1, std::move(rm));
    }
  }
  // Wait until the pool covers every member of the epoch.
  std::map<unsigned, std::vector<std::byte>> blobs;
  bool covered = false;
  for (int iter = 0; iter < 400000 && !covered; ++iter) {
    {
      std::lock_guard<std::mutex> g(rec_mu_);
      auto& pool = rec_blobs_[seq];
      covered = true;
      for (std::size_t p = 0; p < mach_.process_count(); ++p) {
        if (((members >> p) & 1) != 0 &&
            pool.find(static_cast<unsigned>(p)) == pool.end()) {
          covered = false;
          break;
        }
      }
      if (covered) blobs = pool;
    }
    if (covered) break;
    if (mach_.stopping()) return;
    if (ctx != nullptr) ctx->advance();
    std::this_thread::yield();
  }
  if (!covered) {
    unrecoverable("checkpoint blob lost with both of its holders");
    return;
  }
  client_->restore(blobs);
  // Re-establish double redundancy with zero communication: after the
  // restore every rank holds the complete rolled-back state, so each
  // re-snapshots every live process's share locally.  All ranks compute
  // the same nseq and the same membership, hence agree forever after.
  const std::uint64_t nseq = seq + 1;
  const std::uint64_t nmembers = live_mask();
  for (std::size_t p = 0; p < mach_.process_count(); ++p) {
    if (((nmembers >> p) & 1) == 0) continue;
    const auto proc = static_cast<unsigned>(p);
    store_.put(nseq, proc, proc, client_->save(proc));
  }
  store_.commit(nseq);
  record_members(nseq, nmembers);
  std::uint64_t cur = ckpt_seq_.load(std::memory_order_acquire);
  while (cur < nseq &&
         !ckpt_seq_.compare_exchange_weak(cur, nseq,
                                          std::memory_order_acq_rel)) {
  }
  {
    std::lock_guard<std::mutex> g(rec_mu_);
    rec_blobs_.clear();
  }
  ckpt_bytes_.store(store_.resident_bytes(), std::memory_order_relaxed);
  if (cfg_.reset_metrics_epoch) mach_.metrics().reset_epoch();
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  recovery_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  last_ckpt_ns_.store(now_ns(), std::memory_order_release);
  phase_.store(Phase::kRun, std::memory_order_release);
  // Exit barrier *before* the resume: unlike the single-process path,
  // traffic may only restart once every rank has restored.
  mach_.worker_barrier(&pe);
  if (is_leader(pe) && client_ != nullptr) client_->resume(pe);
}

void Manager::do_recover(cvs::Pe& pe) {
  mach_.worker_barrier(&pe);
  if (mach_.process_killed(mach_.process_of(pe.rank()))) return;
  if (is_leader(pe)) {
    const std::uint64_t t0 = now_ns();
    // Second epoch bump, with every survivor parked: messages emitted by
    // handlers that raced the detector's first bump are now stale too.
    // Quiescence accounting restarts from zero — stale discards touch
    // neither counter, so the books stay balanced.
    mach_.bump_msg_epoch();
    mach_.reset_ft_counters();
    const std::uint64_t seq = store_.latest_complete();
    std::map<unsigned, std::vector<std::byte>> blobs;
    for (unsigned proc : store_.procs(seq)) {
      std::vector<std::byte> b;
      if (store_.fetch(seq, proc, b)) blobs.emplace(proc, std::move(b));
    }
    client_->restore(blobs);
    // Re-establish double redundancy immediately: the dead process took
    // one holder of every blob with it, so survivors re-checkpoint the
    // rolled-back state before new work begins.
    const std::uint64_t nseq =
        ckpt_seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
    snapshot_all(nseq);
    store_.commit(nseq);
    ckpt_bytes_.store(store_.resident_bytes(), std::memory_order_relaxed);
    if (cfg_.reset_metrics_epoch) mach_.metrics().reset_epoch();
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    recovery_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    last_ckpt_ns_.store(now_ns(), std::memory_order_release);
    phase_.store(Phase::kRun, std::memory_order_release);
    client_->resume(pe);
  }
  mach_.worker_barrier(&pe);
}

}  // namespace bgq::ft
