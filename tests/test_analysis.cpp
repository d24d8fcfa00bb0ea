// Post-mortem analysis pipeline: histogram bucket math, causal-id
// round-trips through the faulty fabric (exactly-once spans under
// retransmit), the analyzer on a synthetic trace with a known critical
// path, and strict-JSON validation of the bgq-prof-v1 document.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "converse/machine.hpp"
#include "net/fault.hpp"
#include "trace/analysis.hpp"
#include "trace/histogram.hpp"
#include "trace/json_read.hpp"
#include "trace/trace_io.hpp"

namespace {

using bgq::trace::Event;
using bgq::trace::EventKind;
using bgq::trace::FlatTrace;
using bgq::trace::Histogram;
using bgq::trace::Track;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_high(Histogram::bucket_index(v)), v);
  }
}

TEST(Histogram, BucketBoundsAreMonotoneAndTight) {
  std::uint64_t prev_idx = 0;
  for (std::uint64_t v : {64ull, 65ull, 127ull, 128ull, 1000ull, 4096ull,
                          65535ull, 1000000ull, 123456789ull,
                          (1ull << 40) + 17, (1ull << 62)}) {
    const unsigned idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev_idx);
    prev_idx = idx;
    const std::uint64_t high = Histogram::bucket_high(idx);
    EXPECT_GE(high, v);
    // Log-linear with 32 sub-buckets per octave: <= ~3% relative error.
    EXPECT_LE(high - v, v / 16)
        << "bucket for " << v << " wider than the promised resolution";
    if (idx > 0) {
      EXPECT_LT(Histogram::bucket_high(idx - 1), v);
    }
  }
  EXPECT_LT(Histogram::bucket_index(UINT64_MAX), Histogram::kBuckets);
}

TEST(Histogram, PercentilesOverUniformRange) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // percentile() reports the upper edge of the covering bucket, so it is
  // >= the exact order statistic and within one bucket width above it.
  EXPECT_GE(h.percentile(0.50), 500u);
  EXPECT_LE(h.percentile(0.50), 520u);
  EXPECT_GE(h.percentile(0.99), 990u);
  EXPECT_LE(h.percentile(0.99), 1024u);
  EXPECT_EQ(h.percentile(1.0), 1000u);  // capped at the observed max
  EXPECT_EQ(h.percentile(0.0), h.percentile(0.001));
}

TEST(Histogram, MergeMatchesSingleHistogram) {
  Histogram evens, odds, all;
  for (std::uint64_t v = 1; v <= 2000; ++v) {
    (v % 2 == 0 ? evens : odds).record(v);
    all.record(v);
  }
  evens.merge(odds);
  EXPECT_EQ(evens.count(), all.count());
  EXPECT_EQ(evens.sum(), all.sum());
  EXPECT_EQ(evens.min(), all.min());
  EXPECT_EQ(evens.max(), all.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(evens.percentile(q), all.percentile(q)) << "q=" << q;
  }
}

TEST(Histogram, WeightedRecord) {
  Histogram h;
  h.record(10, 3);
  h.record(100, 1);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 130u);
  EXPECT_EQ(h.percentile(0.5), 10u);
  EXPECT_EQ(h.percentile(1.0), 100u);
}

// ---------------------------------------------------------------------------
// Synthetic trace with a known critical path
// ---------------------------------------------------------------------------

// cid encoding mirrors the machine layer: ((origin_pe + 1) << 32) | seq.
constexpr std::uint64_t kCidA = (std::uint64_t{1} << 32) | 1;  // pe0 -> pe1
constexpr std::uint64_t kCidB = (std::uint64_t{2} << 32) | 1;  // pe1 -> pe0
constexpr std::uint64_t kCidC = (std::uint64_t{1} << 32) | 2;  // pe0 -> pe1

FlatTrace synthetic_trace() {
  // A's handler sends B; B's handler sends C: the causal chain A->B->C is
  // the critical path, with exact hand-written hop timestamps.
  FlatTrace flat;
  Track pe0;
  pe0.pid = 0;
  pe0.tid = 0;
  pe0.name = "pe0";
  pe0.events = {
      {100, 1, EventKind::kMsgSend, kCidA},
      {400, 0, EventKind::kHandlerBegin, kCidB},
      {450, 1, EventKind::kMsgSend, kCidC},
      {500, 0, EventKind::kHandlerEnd, kCidB},
  };
  Track pe1;
  pe1.pid = 0;
  pe1.tid = 1;
  pe1.name = "pe1";
  pe1.events = {
      {150, 1, EventKind::kMsgEnqueue, kCidA},
      {180, 0, EventKind::kMsgDequeue, kCidA},
      {200, 0, EventKind::kHandlerBegin, kCidA},
      {250, 0, EventKind::kMsgSend, kCidB},
      {300, 0, EventKind::kHandlerEnd, kCidA},
      {600, 0, EventKind::kHandlerBegin, kCidC},
      {700, 0, EventKind::kHandlerEnd, kCidC},
  };
  flat.tracks.push_back(std::move(pe0));
  flat.tracks.push_back(std::move(pe1));
  return flat;
}

TEST(Analyzer, DecompositionTelescopesOnSyntheticTrace) {
  const bgq::trace::Analysis an = bgq::trace::analyze(synthetic_trace());
  EXPECT_EQ(an.lifecycles.size(), 3u);
  EXPECT_EQ(an.decomp.messages, 3u);
  EXPECT_EQ(an.decomp.incomplete, 0u);
  // A: send 100 -> enqueue 150 -> dequeue 180 -> begin 200 -> end 300.
  using bgq::trace::kHopDequeue;
  using bgq::trace::kHopEnqueue;
  using bgq::trace::kHopHandlerBegin;
  using bgq::trace::kHopHandlerEnd;
  EXPECT_EQ(an.decomp.seg_sum_ns[kHopEnqueue - 1], 50);    // dispatch (A)
  EXPECT_EQ(an.decomp.seg_sum_ns[kHopDequeue - 1], 30);    // queueing (A)
  EXPECT_EQ(an.decomp.seg_sum_ns[kHopHandlerBegin - 1],
            20 + 150 + 150);                               // sched (A,B,C)
  EXPECT_EQ(an.decomp.seg_sum_ns[kHopHandlerEnd - 1], 300);  // handler x3
  EXPECT_EQ(an.decomp.end_to_end_sum_ns, 200 + 250 + 250);
  EXPECT_EQ(an.decomp.hop_sum_ns(), an.decomp.end_to_end_sum_ns)
      << "segments must telescope exactly to end-to-end";
}

TEST(Analyzer, CriticalPathFollowsCausalChain) {
  const bgq::trace::Analysis an = bgq::trace::analyze(synthetic_trace());
  ASSERT_EQ(an.critical.steps.size(), 3u);
  EXPECT_EQ(an.critical.steps[0].cid, kCidA);
  EXPECT_EQ(an.critical.steps[1].cid, kCidB);
  EXPECT_EQ(an.critical.steps[2].cid, kCidC);
  EXPECT_EQ(an.critical.span_ns, 600u);  // A sent at 100, C done at 700
  EXPECT_EQ(an.critical.steps[0].origin_pe, 0u);
  EXPECT_EQ(an.critical.steps[1].origin_pe, 1u);
}

TEST(Analyzer, LoadImbalanceFromHandlerSpans) {
  const bgq::trace::Analysis an = bgq::trace::analyze(synthetic_trace());
  ASSERT_EQ(an.imbalance.tracks.size(), 2u);  // both tracks ran handlers
  EXPECT_EQ(an.imbalance.max_busy_ns, 200u);  // pe1: A (100) + C (100)
  EXPECT_EQ(an.imbalance.min_busy_ns, 100u);  // pe0: B (100)
  EXPECT_NEAR(an.imbalance.imbalance, 200.0 / 150.0, 1e-9);
}

TEST(Analyzer, FlatTraceRoundTripPreservesAnalysis) {
  const FlatTrace orig = synthetic_trace();
  std::ostringstream ss;
  bgq::trace::write_flat_trace(ss, orig);
  const FlatTrace back = bgq::trace::read_flat_trace(ss.str());
  ASSERT_EQ(back.tracks.size(), orig.tracks.size());
  EXPECT_EQ(back.total_events(), orig.total_events());
  const bgq::trace::Analysis an = bgq::trace::analyze(back);
  EXPECT_EQ(an.decomp.messages, 3u);
  EXPECT_EQ(an.decomp.hop_sum_ns(), an.decomp.end_to_end_sum_ns);
  ASSERT_EQ(an.critical.steps.size(), 3u);
  EXPECT_EQ(an.critical.span_ns, 600u);  // timestamps re-based, deltas kept
}

TEST(Analyzer, RejectsWrongSchema) {
  EXPECT_THROW(bgq::trace::read_flat_trace(
                   R"({"schema":"not-a-trace","tracks":[]})"),
               std::exception);
  EXPECT_THROW(bgq::trace::read_flat_trace("{nonsense"), std::exception);
}

// ---------------------------------------------------------------------------
// bgq-prof-v1 JSON schema
// ---------------------------------------------------------------------------

TEST(ProfJson, StrictSchemaOnSyntheticTrace) {
  const bgq::trace::Analysis an = bgq::trace::analyze(synthetic_trace());
  std::ostringstream ss;
  bgq::trace::write_prof_json(ss, an);

  namespace json = bgq::trace::json;
  const json::ValuePtr doc = json::parse(ss.str());  // throws if malformed
  EXPECT_EQ(doc->at("schema").str, "bgq-prof-v1");
  EXPECT_EQ(doc->u64("span_events"), 6u);  // three begin/end pairs

  const json::Value& msgs = doc->at("messages");
  EXPECT_EQ(msgs.u64("traced"), 3u);
  EXPECT_EQ(msgs.u64("complete"), 3u);
  EXPECT_EQ(msgs.u64("retransmitted"), 0u);

  const json::Value& dec = doc->at("decomposition");
  EXPECT_EQ(dec.u64("hop_sum_ns"), dec.u64("end_to_end_sum_ns"));
  const json::Value& segs = dec.at("segments");
  EXPECT_NE(segs.get("queueing"), nullptr);
  EXPECT_NE(segs.get("handler"), nullptr);
  EXPECT_EQ(segs.at("handler").u64("count"), 3u);
  EXPECT_EQ(segs.get("network"), nullptr);  // no net hops: segment omitted

  const json::Value& cp = doc->at("critical_path");
  EXPECT_EQ(cp.u64("length"), 3u);
  EXPECT_EQ(cp.u64("span_ns"), 600u);
  ASSERT_EQ(cp.at("steps").arr.size(), 3u);
  EXPECT_EQ(cp.at("steps").arr[0]->u64("cid"), kCidA);

  const json::Value& li = doc->at("load_imbalance");
  EXPECT_EQ(li.u64("workers"), 2u);
  EXPECT_EQ(doc->at("time_profile").at("tracks").arr.size(), 2u);
}

// ---------------------------------------------------------------------------
// Causal ids through the real machine over a faulty fabric
// ---------------------------------------------------------------------------

using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Mode;

TEST(CausalTrace, ExactlyOnceSpansUnderDropDupRetransmit) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  cfg.comm_threads = 1;
  cfg.trace_events = true;
  cfg.trace_ring_events = 1 << 17;
  cfg.faults =
      bgq::net::FaultPlan::parse("drop=0.05,dup=0.02,delay=0.02,seed=42");
  cfg.reliability.rto_ns = 100'000;
  cfg.reliability.rto_max_ns = 5'000'000;
  Machine machine(cfg);
  const std::size_t senders = machine.pe_count() - 1;
  constexpr int kPer = 150;

  std::atomic<std::size_t> got{0};
  const bgq::cvs::HandlerId h =
      machine.register_handler([&](bgq::cvs::Pe& pe, bgq::cvs::Message* m) {
        pe.free_message(m);
        if (got.fetch_add(1) + 1 == senders * kPer) pe.exit_all();
      });
  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() == 0) return;
    for (int i = 0; i < kPer; ++i) pe.send(0, h, &i, sizeof(i));
  });
  ASSERT_EQ(got.load(), senders * kPer);

  const auto report = machine.metrics_report();
  EXPECT_GT(report.value("net.retransmits"), 0u)
      << "fault plan must have forced retransmits";
  EXPECT_GT(report.value("trace.ring.hwm"), 0u)
      << "ring occupancy high-water mark must be surfaced";
  EXPECT_EQ(report.value("trace.ring.drops"), 0u);

  const FlatTrace& flat = machine.trace_session().collect();
  ASSERT_EQ(flat.total_dropped(), 0u) << "rings sized too small for test";

  // Exactly-once: despite wire-level dups and retransmits, no cid may be
  // received past dedup or dispatched to its handler more than once.
  std::unordered_map<std::uint64_t, int> recvs, handled;
  for (const Track& tr : flat.tracks) {
    for (const Event& e : tr.events) {
      if (e.cid == 0) continue;
      if (e.kind == EventKind::kMsgRecv) ++recvs[e.cid];
      if (e.kind == EventKind::kHandlerBegin) ++handled[e.cid];
    }
  }
  for (const auto& [cid, n] : recvs) {
    EXPECT_EQ(n, 1) << "cid " << cid << " passed dedup " << n << " times";
  }
  for (const auto& [cid, n] : handled) {
    EXPECT_EQ(n, 1) << "cid " << cid << " dispatched " << n << " times";
  }

  // The analyzer folds retransmit detours into counters, never into the
  // segment math: the hop sum still telescopes exactly.
  const bgq::trace::Analysis an = bgq::trace::analyze(flat);
  EXPECT_GE(an.decomp.messages, senders * kPer);
  EXPECT_GT(an.decomp.retransmitted, 0u)
      << "retransmitted lifecycles must be visible to the analyzer";
  EXPECT_EQ(an.decomp.hop_sum_ns(), an.decomp.end_to_end_sum_ns);
}

TEST(CausalTrace, CleanPingPongDecomposesInEveryBuild) {
  // The default build carries the causal fields: a traced inter-node SMP
  // ping-pong decomposes every message it sent, end to end.
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  cfg.trace_events = true;
  Machine machine(cfg);
  const auto peer = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);
  ASSERT_NE(machine.process_of(peer), machine.process_of(0));
  constexpr int kRounds = 200;
  constexpr std::size_t kBytes = 512;

  std::atomic<std::uint64_t> sent{0};
  int rounds = 0;  // PE 0's thread only
  const bgq::cvs::HandlerId h =
      machine.register_handler([&](bgq::cvs::Pe& pe, bgq::cvs::Message* m) {
        if (pe.rank() == 0 && ++rounds == kRounds) {
          pe.free_message(m);
          pe.exit_all();
          return;
        }
        sent.fetch_add(1);
        pe.send_message(pe.rank() == 0 ? peer : 0, m);
      });
  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    bgq::cvs::Message* m = pe.alloc_message(kBytes, h);
    sent.fetch_add(1);
    pe.send_message(peer, m);
  });
  ASSERT_EQ(rounds, kRounds);
  ASSERT_EQ(sent.load(), 2u * kRounds);

  const FlatTrace& flat = machine.trace_session().collect();
  EXPECT_EQ(flat.total_dropped(), 0u);
  const bgq::trace::Analysis an = bgq::trace::analyze(flat);
  EXPECT_EQ(an.decomp.messages, sent.load());
  EXPECT_EQ(an.decomp.incomplete, 0u);
  EXPECT_GT(an.decomp.end_to_end_sum_ns, 0);
  EXPECT_EQ(an.decomp.hop_sum_ns(), an.decomp.end_to_end_sum_ns);
  EXPECT_FALSE(an.critical.steps.empty());
}

TEST(CausalTrace, TracingOffEmitsNoCidsAndZeroGauges) {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  Machine machine(cfg);

  std::atomic<int> got{0};
  const bgq::cvs::HandlerId h =
      machine.register_handler([&](bgq::cvs::Pe& pe, bgq::cvs::Message* m) {
        EXPECT_EQ(m->header().trace_id, 0u) << "trace off: no cid stamping";
        pe.free_message(m);
        if (got.fetch_add(1) + 1 == 20) pe.exit_all();
      });
  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    for (int i = 0; i < 20; ++i) {
      pe.send(static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1), h, &i,
              sizeof(i));
    }
  });
  ASSERT_EQ(got.load(), 20);

  const auto report = machine.metrics_report();
  EXPECT_EQ(report.value("trace.ring.drops"), 0u);
  EXPECT_EQ(report.value("trace.ring.hwm"), 0u);
  EXPECT_EQ(machine.trace_session().collect().total_events(), 0u);
}

TEST(TraceProfile, CommThreadParksAreIdleInEveryBuild) {
  // The comm threads' park spans are emitted whenever the run traces, and
  // the time profile counts them as idle.
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmpCommThreads;
  cfg.workers_per_process = 1;
  cfg.processes_per_node = 1;
  cfg.comm_threads = 1;
  cfg.trace_events = true;
  Machine machine(cfg);
  machine.run([](bgq::cvs::Pe& pe) {
    if (pe.rank() != 0) return;
    // Idle far past the comm threads' spin-before-park budget (50 us).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pe.exit_all();
  });

  const FlatTrace& flat = machine.trace_session().collect();
  std::size_t parks = 0;
  for (const Track& tr : flat.tracks) {
    if (tr.name.rfind("comm", 0) != 0) continue;
    parks += bgq::trace::extract_spans(tr, EventKind::kParkBegin).size();
  }
  EXPECT_GT(parks, 0u);
  const bgq::trace::Analysis an = bgq::trace::analyze(flat);
  double idle = 0;
  for (const auto& tp : an.profile.tracks) {
    if (tp.name.rfind("comm", 0) != 0) continue;
    for (const double f : tp.idle) idle += f;
  }
  EXPECT_GT(idle, 0.0);
}

}  // namespace
