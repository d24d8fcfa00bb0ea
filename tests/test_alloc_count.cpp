// Heap allocations per remote message, counted by a replaced global
// operator new.
//
// Message and packet buffers come from the pool allocator (paper §III-B),
// so once the pools are warm a remote eager round trip should touch the
// heap at most once per message, send to handler.  Two setups: the
// in-process fabric (kSmp, one worker per process, so PE 1 is remote) and
// a 2-rank shm pair (two Machines on two threads of this process).  This
// binary replaces the global operator new/delete with counting versions,
// so the count covers every thread of both ranks and every allocation
// path — the pool allocator's own heap refills included.
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

#include "converse/machine.hpp"
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

TEST(AllocCount, InProcEagerRoundTripAllocatesAtMostOncePerMessage) {
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{4096}}) {
    const double per_msg = inproc_allocs_per_message(bytes);
    std::printf("[ ALLOCS   ] inproc %zu B: %.4f heap allocations/message\n",
                bytes, per_msg);
    EXPECT_LE(per_msg, 1.0) << bytes << " B";
  }
}

TEST(AllocCount, ShmEagerRoundTripAllocatesAtMostOncePerMessage) {
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{4096}}) {
    const double per_msg = shm_allocs_per_message(bytes);
    std::printf("[ ALLOCS   ] shm %zu B: %.4f heap allocations/message\n",
                bytes, per_msg);
    EXPECT_LE(per_msg, 1.0) << bytes << " B";
  }
}

}  // namespace
