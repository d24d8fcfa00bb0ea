// Ablation for §III-D: idle-poll pacing.
//
// On BG/Q an idle worker spinning hot steals pipeline slots from the
// sibling hardware threads on its core; the optimized poll stalls on an
// L2 atomic load (~60 cycles) instead.  On this host the analogue is a
// busy PE sharing the core with an active one: we run one "active"
// thread doing fixed arithmetic while a second thread idles under each
// policy, and report the active thread's throughput plus the idle
// thread's wake latency when work finally arrives.
//
// Wake latency is measured through the trace subsystem: each post is a
// causal-id-stamped synthetic lifecycle (kMsgSend+kMsgEnqueue on the
// poster's ring, kMsgDequeue+handler span on the idler's — the queue is
// SPSC, so ordinal i on one side is ordinal i on the other), and the
// post-mortem analyzer's "queueing" segment is the wake latency — the
// same pipeline a traced Machine run feeds.
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench_json.hpp"
#include "common/spin.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "queue/l2_atomic_queue.hpp"
#include "trace/trace.hpp"

using namespace bgq;

namespace {

struct Result {
  double active_mops = 0;  ///< active thread's Mops/s with the idler beside it
  double wake_us = 0;      ///< idle thread's median reaction latency
  std::uint64_t wakes = 0; ///< matched post->receive pairs
};

Result run_policy(IdlePollPolicy policy) {
  queue::L2AtomicQueue<std::uint64_t*> q(64);
  std::atomic<bool> stop{false};
  trace::Session session(true, 1 << 10);
  trace::EventRing* post_ring = session.make_ring(0, 0, "poster");
  trace::EventRing* idle_ring = session.make_ring(0, 1, "idler");

  std::thread idler([&] {
    trace::Session::bind_thread(idle_ring);
    std::uint64_t taken = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // The §III-D loop: probe the message-queue counter, pace per policy.
      if (auto* m = q.try_dequeue()) {
        (void)m;
        // SPSC: the i-th dequeue pairs with the i-th post's cid.
        const std::uint64_t cid = (std::uint64_t{1} << 32) | ++taken;
        trace::emit_here(trace::EventKind::kMsgDequeue, 0, cid);
        trace::emit_here(trace::EventKind::kHandlerBegin, 0, cid);
        trace::emit_here(trace::EventKind::kHandlerEnd, 0, cid);
        continue;
      }
      idle_pause(policy);
    }
  });

  // Active thread (this one): arithmetic throughput while the idler
  // shares the core, with a few message arrivals sprinkled in.
  static std::uint64_t token_storage = 1;
  double ops = 0;
  volatile double sink = 1.0;
  Timer t;
  for (int burst = 0; burst < 20; ++burst) {
    for (int i = 0; i < 400000; ++i) sink = sink * 1.0000001 + 1e-9;
    ops += 400000;
    // Stamp-then-publish, so the dequeue timestamp is always later.
    const std::uint64_t cid =
        (std::uint64_t{1} << 32) | static_cast<std::uint64_t>(burst + 1);
    const std::uint64_t t = now_ns();
    post_ring->emit({t, 0, trace::EventKind::kMsgSend, cid});
    post_ring->emit({t, 0, trace::EventKind::kMsgEnqueue, cid});
    q.enqueue(&token_storage);
  }
  const double secs = t.elapsed_s();
  stop.store(true, std::memory_order_release);
  idler.join();

  // The analyzer reassembles each cid across the two tracks; the
  // enqueue->dequeue ("queueing") segment is the idler's wake latency.
  const trace::Analysis an = trace::analyze(session.collect());
  const trace::Histogram& wake =
      an.decomp.segments[trace::kHopDequeue - 1];

  Result r;
  r.active_mops = ops / secs * 1e-6;
  r.wake_us = static_cast<double>(wake.percentile(0.5)) * 1e-3;
  r.wakes = wake.count();
  (void)sink;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json = bench::parse_args(argc, argv, "bench_idlepoll");
  std::printf("== Sec III-D ablation: idle-poll pacing ==\n");
  std::printf("paper: the optimized poll stalls on L2 atomic loads so an "
              "idle thread leaves the core's pipeline to active "
              "threads\n\n");
  TextTable tbl({"policy", "active_Mops", "idle_wake_us"});
  const auto hot = run_policy(IdlePollPolicy::kHotSpin);
  const auto paced = run_policy(IdlePollPolicy::kL2Paced);
  const auto yield = run_policy(IdlePollPolicy::kOsYield);
  tbl.row("hot_spin", hot.active_mops, hot.wake_us);
  tbl.row("l2_paced", paced.active_mops, paced.wake_us);
  tbl.row("os_yield", yield.active_mops, yield.wake_us);
  tbl.print();
  std::printf("\nexpected shape: paced/yield give the active thread more "
              "of the core than hot spin, at modestly higher wake "
              "latency\n");
  json.add("hot_spin.active_mops", hot.active_mops);
  json.add("hot_spin.wake_us", hot.wake_us);
  json.add("hot_spin.wakes", hot.wakes);
  json.add("l2_paced.active_mops", paced.active_mops);
  json.add("l2_paced.wake_us", paced.wake_us);
  json.add("l2_paced.wakes", paced.wakes);
  json.add("os_yield.active_mops", yield.active_mops);
  json.add("os_yield.wake_us", yield.wake_us);
  json.add("os_yield.wakes", yield.wakes);
  return json.write();
}
