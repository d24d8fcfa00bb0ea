// Heap allocations per remote message, counted by a replaced global
// operator new.
//
// Message and packet buffers come from the pool allocator (paper §III-B)
// and cross threads through lockless queues, so once the pools are warm
// a message should not touch the heap at all, send to handler: every
// case bounds the rate at 0.1 allocations per message.  Four setups, one
// per workload shape: a remote eager round trip on the in-process fabric
// (kSmp, one worker per process, so PE 1 is remote) and on a 2-rank shm
// pair (two Machines on two threads of this process); a windowed stream
// handed to comm threads (kSmpCommThreads); and Task Bench, app
// included.  This binary replaces the global operator new/delete with
// counting versions, so the count covers every thread of every rank and
// every allocation path — the pool allocator's own heap refills
// included.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <thread>

#include "charm/chare.hpp"
#include "converse/machine.hpp"
#include "taskbench/runner.hpp"
#include "transport/shm.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (::posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                       n != 0 ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using bgq::cvs::HandlerId;
using bgq::cvs::Machine;
using bgq::cvs::MachineConfig;
using bgq::cvs::Message;
using bgq::cvs::Mode;
using bgq::cvs::Pe;

/// The bound of every case: at most one heap allocation per ten messages.
constexpr double kMaxAllocsPerMessage = 0.1;

constexpr std::uint32_t kWarmupRounds = 2000;
constexpr std::uint32_t kTimedRounds = 10000;

/// Closed-loop ping-pong between PE 0 and PE 1, which live in different
/// processes.  PE 0 reads the allocation counter when warm-up ends and
/// after the last round; PE 1 echoes the message it got.
class CountedPingPong {
 public:
  explicit CountedPingPong(std::size_t bytes) : bytes_(bytes) {}

  void bind(Machine& m) {
    handler_ = m.register_handler([this](Pe& pe, Message* msg) {
      if (pe.rank() != 0) {
        pe.send_message(0, msg);
        return;
      }
      ++rounds_;
      if (rounds_ == kWarmupRounds) at_start_ = g_allocs.load();
      if (rounds_ == kWarmupRounds + kTimedRounds) {
        at_end_ = g_allocs.load();
        pe.free_message(msg);
        pe.exit_all();
        return;
      }
      pe.send_message(1, msg);
    });
  }

  void start(Pe& pe) {
    Message* m = pe.alloc_message(bytes_, handler_);
    std::memset(m->payload(), 0x5A, bytes_);
    pe.send_message(1, m);
  }

  bool finished() const { return rounds_ == kWarmupRounds + kTimedRounds; }

  /// Heap allocations per timed message (two per round).
  double per_message() const {
    return static_cast<double>(at_end_ - at_start_) / (2.0 * kTimedRounds);
  }

 private:
  const std::size_t bytes_;
  HandlerId handler_ = 0;
  std::uint32_t rounds_ = 0;
  std::uint64_t at_start_ = 0;
  std::uint64_t at_end_ = 0;
};

MachineConfig remote_pair_config() {
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmp;
  cfg.workers_per_process = 1;
  return cfg;
}

double inproc_allocs_per_message(std::size_t bytes) {
  Machine machine(remote_pair_config());
  CountedPingPong pp(bytes);
  pp.bind(machine);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) pp.start(pe);
  });
  EXPECT_TRUE(pp.finished());
  return pp.per_message();
}

double shm_allocs_per_message(std::size_t bytes) {
  const std::string session = "t" + std::to_string(::getpid()) + "alloc" +
                              std::to_string(bytes);
  bgq::transport::ShmTransport::unlink_session(session);
  // Each rank binds its own instance (same handler id); rank 1 only echoes.
  CountedPingPong pp(bytes), echo(bytes);
  auto rank = [&](unsigned r, CountedPingPong& app) {
    MachineConfig cfg = remote_pair_config();
    cfg.transport.kind = bgq::transport::Kind::kShm;
    cfg.transport.nprocs = 2;
    cfg.transport.rank = r;
    cfg.transport.session = session;
    Machine machine(cfg);
    app.bind(machine);
    machine.run([&](Pe& pe) {
      if (pe.rank() == 0) app.start(pe);
    });
  };
  std::thread peer(rank, 1u, std::ref(echo));
  rank(0, pp);
  peer.join();
  EXPECT_TRUE(pp.finished());
  return pp.per_message();
}

/// A windowed 32 B stream from PE 0 to PE 1: at most kWindow messages
/// in flight, PE 1 returning credits in batches of kCreditEvery.  PE 1
/// reads the allocation counter when warm-up ends and after the last
/// message.
class CountedStream {
 public:
  static constexpr std::uint64_t kWarmup = 20000;
  static constexpr std::uint64_t kTimed = 100000;
  static constexpr std::uint32_t kWindow = 128;
  static constexpr std::uint32_t kCreditEvery = 32;
  static constexpr std::size_t kBytes = 32;

  void bind(Machine& m) {
    data_ = m.register_handler(
        [this](Pe& pe, Message* msg) { on_data(pe, msg); });
    credit_ = m.register_handler([this](Pe& pe, Message* msg) {
      pe.free_message(msg);
      credits_ += kCreditEvery;
      pump(pe);
    });
  }

  void start(Pe& pe) { pump(pe); }

  bool finished() const { return received_ == kWarmup + kTimed; }

  /// Heap allocations per timed stream message (credits ride free).
  double per_message() const {
    return static_cast<double>(at_end_ - at_start_) /
           static_cast<double>(kTimed);
  }

 private:
  void pump(Pe& pe) {
    while (credits_ > 0 && sent_ < kWarmup + kTimed) {
      --credits_;
      ++sent_;
      Message* m = pe.alloc_message(kBytes, data_);
      std::memset(m->payload(), 0x5A, kBytes);
      pe.send_message(1, m);
    }
  }

  void on_data(Pe& pe, Message* msg) {
    pe.free_message(msg);
    ++received_;
    if (received_ == kWarmup) at_start_ = g_allocs.load();
    if (received_ == kWarmup + kTimed) {
      at_end_ = g_allocs.load();
      pe.exit_all();
      return;
    }
    if (received_ % kCreditEvery == 0) {
      Message* c = pe.alloc_message(0, credit_);
      pe.send_message(0, c);
    }
  }

  HandlerId data_ = 0;
  HandlerId credit_ = 0;
  std::uint32_t credits_ = kWindow;  // PE 0 only
  std::uint64_t sent_ = 0;           // PE 0 only
  std::uint64_t received_ = 0;       // PE 1 only
  std::uint64_t at_start_ = 0;
  std::uint64_t at_end_ = 0;
};

/// Heap allocations and data messages of Task Bench runs of `steps`
/// steps, one fresh default machine (kSmp, 2 nodes x 2 workers) per
/// pattern, set-up and teardown included.
struct TaskBenchTally {
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;
};

TaskBenchTally taskbench_tally(std::uint32_t steps) {
  TaskBenchTally tally;
  for (const bgq::taskbench::Pattern p : bgq::taskbench::kAllPatterns) {
    const std::uint64_t before = g_allocs.load();
    {
      Machine machine(MachineConfig{});
      bgq::charm::Runtime rt(machine);
      bgq::taskbench::Params prm;
      prm.pattern = p;
      prm.width = 16;
      prm.steps = steps;
      prm.payload_bytes = 32;
      bgq::taskbench::TaskBenchApp app(rt, prm);
      machine.run([&](Pe& pe) {
        if (pe.rank() == 0) app.start(pe);
      });
      EXPECT_TRUE(app.finished()) << bgq::taskbench::pattern_name(p);
      tally.messages += app.data_messages();
    }
    tally.allocs += g_allocs.load() - before;
  }
  return tally;
}

TEST(AllocCount, InProcEagerRoundTripAllocatesAtMostOncePerMessage) {
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{4096}}) {
    const double per_msg = inproc_allocs_per_message(bytes);
    std::printf("[ ALLOCS   ] inproc %zu B: %.4f heap allocations/message\n",
                bytes, per_msg);
    EXPECT_LE(per_msg, kMaxAllocsPerMessage) << bytes << " B";
  }
}

TEST(AllocCount, ShmEagerRoundTripAllocatesAtMostOncePerMessage) {
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{4096}}) {
    const double per_msg = shm_allocs_per_message(bytes);
    std::printf("[ ALLOCS   ] shm %zu B: %.4f heap allocations/message\n",
                bytes, per_msg);
    EXPECT_LE(per_msg, kMaxAllocsPerMessage) << bytes << " B";
  }
}

TEST(AllocCount, CommThreadStreamAllocatesNothingPerMessage) {
  // 2 nodes x (1 worker + 1 comm thread): every remote send is handed to
  // a comm thread, so this counts the handoff too.
  MachineConfig cfg;
  cfg.nodes = 2;
  cfg.mode = Mode::kSmpCommThreads;
  cfg.workers_per_process = 1;
  cfg.comm_threads = 1;
  Machine machine(cfg);
  CountedStream stream;
  stream.bind(machine);
  machine.run([&](Pe& pe) {
    if (pe.rank() == 0) stream.start(pe);
  });
  ASSERT_TRUE(stream.finished());
  const double per_msg = stream.per_message();
  std::printf("[ ALLOCS   ] comm-thread stream 32 B: %.4f heap "
              "allocations/message\n",
              per_msg);
  EXPECT_LE(per_msg, kMaxAllocsPerMessage);
}

TEST(AllocCount, TaskBenchAllocatesNothingPerMessage) {
  // All five patterns at two run lengths: machine set-up and teardown
  // cost the same in both, so the difference is what the extra steps
  // cost, the app's own work included.
  const TaskBenchTally shorter = taskbench_tally(100);
  const TaskBenchTally longer = taskbench_tally(300);
  ASSERT_GT(longer.messages, shorter.messages);
  const double extra_allocs = static_cast<double>(longer.allocs) -
                              static_cast<double>(shorter.allocs);
  const double per_data_msg =
      extra_allocs /
      static_cast<double>(longer.messages - shorter.messages);
  std::printf("[ ALLOCS   ] taskbench: %.4f heap allocations/data message "
              "(%llu extra messages)\n",
              per_data_msg,
              static_cast<unsigned long long>(longer.messages -
                                              shorter.messages));
  EXPECT_LE(per_data_msg, kMaxAllocsPerMessage);
}

}  // namespace
