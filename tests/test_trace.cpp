// Unit + integration tests for the tracing & metrics subsystem
// (src/trace): ring wrap/drop accounting, cross-thread flush ordering,
// the counter registry, span reconstruction, and the Chrome trace_event
// exporter, whose JSON is parsed with the strict test-side parser and
// checked for begin/end pairing, per-PE tracks, monotonic timestamps and
// drop counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "converse/machine.hpp"
#include "json_util.hpp"
#include "trace/trace.hpp"

namespace {

using bgq::trace::Event;
using bgq::trace::EventKind;
using bgq::trace::EventRing;
using bgq::trace::FlatTrace;
using bgq::trace::Registry;
using bgq::trace::Session;
using bgq::trace::Track;

// ---- ring -----------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(5).capacity(), 8u);
  EXPECT_EQ(EventRing(8).capacity(), 8u);
  EXPECT_EQ(EventRing(1).capacity(), 2u);
}

TEST(TraceRing, DropsNewestWhenFullAndCounts) {
  EventRing ring(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    const bool ok = ring.emit({i, i, EventKind::kUser});
    EXPECT_EQ(ok, i < 4) << "event " << i;
  }
  EXPECT_EQ(ring.emitted(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);

  // The survivors are the *oldest* four, in emission order — drop-newest,
  // never overwrite (the Projections rule: tracing must not disturb what
  // already happened).
  std::vector<Event> out;
  EXPECT_EQ(ring.drain(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].arg, i);
}

TEST(TraceRing, FifoAcrossInterleavedDrains) {
  EventRing ring(4);
  std::vector<Event> out;
  std::uint32_t next = 0;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 3; ++k) {
      ring.emit({next, next, EventKind::kUser});
      ++next;
    }
    ring.drain(out);
  }
  EXPECT_EQ(ring.dropped(), 0u);
  ASSERT_EQ(out.size(), next);
  for (std::uint32_t i = 0; i < next; ++i) EXPECT_EQ(out[i].arg, i);
}

TEST(TraceRing, ConcurrentFlushLosesNothing) {
  // One producer hammers a tiny ring while the consumer drains
  // concurrently: everything emitted is either drained (in FIFO order) or
  // accounted as dropped — never silently lost, never duplicated.
  constexpr std::uint32_t kAttempts = 200000;
  EventRing ring(8);
  std::vector<Event> drained;
  std::atomic<bool> producing{true};

  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kAttempts; ++i) {
      ring.emit({i, i, EventKind::kUser});
    }
    producing.store(false, std::memory_order_release);
  });
  while (producing.load(std::memory_order_acquire)) ring.drain(drained);
  ring.drain(drained);
  producer.join();
  ring.drain(drained);

  EXPECT_EQ(drained.size() + ring.dropped(), kAttempts);
  for (std::size_t i = 1; i < drained.size(); ++i) {
    ASSERT_LT(drained[i - 1].arg, drained[i].arg) << "FIFO violated at " << i;
  }
}

// ---- session --------------------------------------------------------------

TEST(TraceSession, DisabledSessionIsInert) {
  Session session(false);
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.make_ring(0, 0, "pe0"), nullptr);
  // Emitting through an unbound thread is a no-op, not a crash.
  Session::bind_thread(nullptr);
  bgq::trace::emit_here(EventKind::kUser, 7);
  EXPECT_EQ(session.collect().total_events(), 0u);
}

TEST(TraceSession, CollectAccumulatesFifoAcrossCollects) {
  Session session(true, 16);
  EventRing* a = session.make_ring(0, 0, "pe0");
  EventRing* b = session.make_ring(0, 1, "pe1");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  a->emit({10, 1, EventKind::kUser});
  b->emit({11, 2, EventKind::kUser});
  session.collect();
  a->emit({12, 3, EventKind::kUser});
  const FlatTrace& flat = session.collect();

  ASSERT_EQ(flat.tracks.size(), 2u);
  EXPECT_EQ(flat.tracks[0].name, "pe0");
  EXPECT_EQ(flat.tracks[0].pid, 0u);
  EXPECT_EQ(flat.tracks[0].tid, 0u);
  ASSERT_EQ(flat.tracks[0].events.size(), 2u);
  EXPECT_EQ(flat.tracks[0].events[0].arg, 1u);
  EXPECT_EQ(flat.tracks[0].events[1].arg, 3u);
  ASSERT_EQ(flat.tracks[1].events.size(), 1u);
  EXPECT_EQ(flat.tracks[1].events[0].arg, 2u);
  EXPECT_EQ(flat.total_events(), 3u);
}

TEST(TraceSession, CrossThreadFlushOrdering) {
  // Each of three worker threads binds its own ring and emits a strictly
  // increasing sequence while the main thread collects concurrently; the
  // accumulated per-track streams must preserve each thread's order.
  constexpr int kThreads = 3;
  constexpr std::uint32_t kPerThread = 20000;
  Session session(true, 1 << 16);
  std::vector<EventRing*> rings;
  for (int t = 0; t < kThreads; ++t) {
    rings.push_back(session.make_ring(0, static_cast<std::uint32_t>(t),
                                      "w" + std::to_string(t)));
  }

  std::atomic<int> live{kThreads};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Session::bind_thread(rings[t]);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        bgq::trace::emit_here(EventKind::kUser, i);
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  while (live.load(std::memory_order_acquire) != 0) session.collect();
  for (auto& w : workers) w.join();
  const FlatTrace& flat = session.collect();

  ASSERT_EQ(flat.tracks.size(), static_cast<std::size_t>(kThreads));
  for (const Track& tr : flat.tracks) {
    EXPECT_EQ(tr.events.size() + tr.dropped, kPerThread) << tr.name;
    for (std::size_t i = 1; i < tr.events.size(); ++i) {
      ASSERT_LT(tr.events[i - 1].arg, tr.events[i].arg)
          << tr.name << " out of order at " << i;
    }
  }
}

// ---- registry -------------------------------------------------------------

TEST(TraceRegistry, CellTotalsAndGauges) {
  Registry reg;
  const Registry::Id sent = reg.intern("pe.msgs.sent");
  reg.intern("pe.msgs.executed");
  EXPECT_EQ(reg.intern("pe.msgs.sent"), sent) << "intern is idempotent";
  EXPECT_EQ(reg.counter_count(), 2u);
  EXPECT_TRUE(reg.report().has("pe.msgs.sent")) << "interned names report";

  // One cell per PE, each added to by its one writer: a name's total is
  // the sum of its cells.
  bgq::trace::Cell& sent0 = reg.cell("pe.msgs.sent");
  bgq::trace::Cell& sent1 = reg.cell("pe.msgs.sent");
  bgq::trace::Cell& exec1 = reg.cell("pe.msgs.executed");
  sent0.owner_add(3);
  sent1.owner_add(4);
  exec1.owner_add();
  EXPECT_EQ(reg.counter_count(), 2u) << "cells reuse the interned names";
  EXPECT_EQ(reg.total("pe.msgs.sent"), 7u);
  EXPECT_EQ(reg.total("pe.msgs.executed"), 1u);
  EXPECT_EQ(reg.total("no.such.counter"), 0u);

  // A cell set by its owner (a gauge) overwrites; added, it accumulates.
  bgq::trace::Cell& parks = reg.cell("comm.parks");
  parks.set(5);
  parks.set(9);
  EXPECT_EQ(reg.total("comm.parks"), 9u);
  parks.add(2);
  EXPECT_EQ(reg.total("comm.parks"), 11u);
  // Every cell of a name sums into its total, shared or single-writer.
  reg.cell("comm.parks").add(4);
  EXPECT_EQ(reg.total("comm.parks"), 15u);
  reg.cell("pe.msgs.sent").add(100);
  EXPECT_EQ(reg.total("pe.msgs.sent"), 107u);
  EXPECT_EQ(reg.report().value("pe.msgs.sent"), 107u);
}

TEST(TraceRegistry, CellsOwnALineAndReadWhileWritersRun) {
  Registry reg;
  bgq::trace::Cell& a = reg.cell("x.hits");
  bgq::trace::Cell& b = reg.cell("x.hits");
  EXPECT_NE(&a, &b) << "every cell() call makes a new cell";
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&b) % 64, 0u);
  EXPECT_TRUE(reg.report().has("x.hits")) << "a fresh cell reports as 0";

  // Two writers, one reader: the reader's totals never go backwards and
  // end exact once the writers are joined.
  constexpr int kAdds = 100000;
  std::atomic<bool> go{false};
  auto writer = [&](bgq::trace::Cell& c) {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < kAdds; ++i) c.add();
  };
  std::thread wa(writer, std::ref(a)), wb(writer, std::ref(b));
  go.store(true);
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = reg.total("x.hits");
    EXPECT_GE(now, last);
    last = now;
  }
  wa.join();
  wb.join();
  EXPECT_EQ(reg.total("x.hits"), 2u * kAdds);
}

TEST(TraceRegistry, ReportIsNameSorted) {
  Registry reg;
  reg.intern("z.last");
  reg.intern("a.first");
  reg.cell("z.last").owner_add(2);
  reg.cell("a.first").owner_add(1);
  reg.cell("m.middle").set(7);

  const bgq::trace::Report r = reg.report();
  ASSERT_EQ(r.entries.size(), 3u);
  EXPECT_EQ(r.entries[0].first, "a.first");
  EXPECT_EQ(r.entries[1].first, "m.middle");
  EXPECT_EQ(r.entries[2].first, "z.last");
  EXPECT_EQ(r.value("m.middle"), 7u);
  EXPECT_TRUE(r.has("z.last"));
  EXPECT_FALSE(r.has("nope"));
}

// ---- span reconstruction --------------------------------------------------

TEST(TraceSummary, ExtractSpansMatchesInnermostFirst) {
  Track tr;
  tr.events = {
      {100, 1, EventKind::kPhaseBegin},  // outer
      {110, 2, EventKind::kPhaseBegin},  // inner
      {120, 2, EventKind::kPhaseEnd},
      {130, 0, EventKind::kMsgDequeue},  // noise between spans
      {140, 1, EventKind::kPhaseEnd},
      {150, 3, EventKind::kPhaseBegin},  // unmatched begin: ignored
  };
  const auto spans = bgq::trace::extract_spans(tr, EventKind::kPhaseBegin);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].arg, 2u);  // inner closes first
  EXPECT_EQ(spans[0].t0, 110u);
  EXPECT_EQ(spans[0].t1, 120u);
  EXPECT_EQ(spans[1].arg, 1u);
  EXPECT_EQ(spans[1].duration_ns(), 40u);
}

// ---- Chrome export --------------------------------------------------------

// Walk a parsed trace_event document: checks the container shape, per-track
// B/E stack discipline, monotonic timestamps in emission order, and returns
// (track → dropped-counter value) for the caller to inspect.
std::map<std::pair<double, double>, double> validate_chrome(
    const bgq::testjson::Value& doc) {
  EXPECT_TRUE(doc.is_object());
  const auto& events = doc.at("traceEvents");
  EXPECT_TRUE(events.is_array());

  std::map<std::pair<double, double>, std::vector<std::string>> stacks;
  std::map<std::pair<double, double>, double> last_ts;
  std::map<std::pair<double, double>, double> dropped;

  for (const auto& ev : events.arr) {
    EXPECT_TRUE(ev->is_object());
    const std::string ph = ev->at("ph").str;
    const std::pair<double, double> track{ev->at("pid").num,
                                          ev->at("tid").num};
    if (ph == "M") continue;  // metadata carries no ts
    if (ph == "C") {
      EXPECT_EQ(ev->at("name").str, "dropped");
      dropped[track] = ev->at("args").at("events").num;
      continue;
    }
    const double ts = ev->at("ts").num;
    EXPECT_GE(ts, 0.0);
    auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "ts went backwards on a track";
    }
    last_ts[track] = ts;
    const std::string name = ev->at("name").str;
    if (ph == "B") {
      stacks[track].push_back(name);
    } else if (ph == "E") {
      auto& st = stacks[track];
      if (st.empty()) {
        ADD_FAILURE() << "E without open B for " << name;
        continue;
      }
      EXPECT_EQ(st.back(), name) << "E closes the wrong span";
      st.pop_back();
    } else {
      EXPECT_EQ(ph, "i") << "unexpected phase " << ph;
    }
  }
  for (const auto& [track, st] : stacks) {
    EXPECT_TRUE(st.empty()) << "unclosed span left on a track";
  }
  return dropped;
}

TEST(TraceChromeExport, SyntheticTraceIsValidAndBalanced) {
  Session session(true, 8);
  EventRing* pe0 = session.make_ring(0, 0, "pe0");
  EventRing* pe1 = session.make_ring(0, 1, "pe1");

  pe0->emit({100, 0, EventKind::kHandlerBegin});
  pe0->emit({150, 0, EventKind::kMsgEnqueue});
  pe0->emit({200, 0, EventKind::kHandlerEnd});
  pe0->emit({210, 0, EventKind::kIdleBegin});  // truncated span: writer
                                               // must auto-close it
  pe1->emit({120, 1, EventKind::kHandlerBegin});
  pe1->emit({130, 1, EventKind::kHandlerEnd});
  pe1->emit({140, 9, EventKind::kHandlerEnd});  // orphan E: writer drops it
  // Overflow pe1's 8-slot ring so its drop counter is non-zero.
  for (std::uint32_t i = 0; i < 12; ++i) {
    pe1->emit({150 + i, i, EventKind::kUser});
  }

  std::ostringstream os;
  bgq::trace::write_chrome_trace(os, session.collect());
  const auto doc = bgq::testjson::parse(os.str());
  const auto dropped = validate_chrome(*doc);

  ASSERT_EQ(dropped.size(), 2u) << "one counter series per track";
  EXPECT_EQ(dropped.at({0.0, 0.0}), 0.0);
  EXPECT_EQ(dropped.at({0.0, 1.0}), 7.0);  // 12 + 3 emits into 8 slots

  // Both tracks are named via thread_name metadata.
  std::vector<std::string> names;
  for (const auto& ev : doc->at("traceEvents").arr) {
    if (ev->at("ph").str == "M") {
      EXPECT_EQ(ev->at("name").str, "thread_name");
      names.push_back(ev->at("args").at("name").str);
    }
  }
  EXPECT_EQ(names, (std::vector<std::string>{"pe0", "pe1"}));
}

TEST(TraceChromeExport, MachinePingPongEndToEnd) {
  using bgq::cvs::Machine;
  using bgq::cvs::MachineConfig;
  using bgq::cvs::Message;
  using bgq::cvs::Mode;
  using bgq::cvs::Pe;

  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 2;
  cfg.processes_per_node = 1;
  cfg.trace_events = true;
  Machine machine(cfg);
  const auto last = static_cast<bgq::cvs::PeRank>(machine.pe_count() - 1);

  constexpr int kRounds = 50;
  std::atomic<int> bounces{0};
  const bgq::cvs::HandlerId bounce = machine.register_handler(
      [&, last](Pe& pe, Message* m) {
        if (bounces.fetch_add(1) + 1 >= kRounds) {
          pe.free_message(m);
          pe.exit_all();
          return;
        }
        pe.send_message(pe.rank() == 0 ? last : 0, m);
      });
  machine.run([&, last](Pe& pe) {
    if (pe.rank() != 0) return;
    pe.send_message(last, pe.alloc_message(32, bounce));
  });

  std::ostringstream os;
  machine.write_chrome_trace(os);
  const auto doc = bgq::testjson::parse(os.str());
  validate_chrome(*doc);

  // Per-PE tracks: every worker got a named track, and the two ping-pong
  // endpoints actually recorded handler slices.
  std::map<std::string, std::pair<double, double>> track_of;
  std::map<std::pair<double, double>, int> handler_begins;
  for (const auto& ev : doc->at("traceEvents").arr) {
    const std::pair<double, double> track{ev->at("pid").num,
                                          ev->at("tid").num};
    if (ev->at("ph").str == "M") {
      track_of[ev->at("args").at("name").str] = track;
    } else if (ev->at("ph").str == "B" && ev->at("name").str == "handler") {
      ++handler_begins[track];
    }
  }
  for (std::size_t pe = 0; pe < machine.pe_count(); ++pe) {
    EXPECT_TRUE(track_of.count("pe" + std::to_string(pe)))
        << "missing track for pe" << pe;
  }
  EXPECT_GE(handler_begins[track_of["pe0"]], kRounds / 2 - 1);
  EXPECT_GE(handler_begins[track_of["pe" + std::to_string(last)]],
            kRounds / 2 - 1);

  // The counter registry saw the same traffic the timeline recorded.
  EXPECT_GE(machine.metrics().total("pe.msgs.executed"),
            static_cast<std::uint64_t>(kRounds));
}

}  // namespace
