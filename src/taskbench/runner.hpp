// The Task Bench conformance/overhead runner: one chare element per
// task-column, advancing through the dependence pattern in globally
// sequenced steps.
//
// A task at step t executes once (a) the coordinator has broadcast step
// t and (b) the outputs of all its step-(t-1) dependencies have arrived.
// Executing means: run `grain` units of a fixed deterministic kernel,
// fold the received payload digests into the task state *in dependency
// order* (so the state is independent of message arrival order), ship
// the new output to every step-(t+1) dependent, and contribute the
// state digest to the step reduction.  Every step of every task is a
// pure function of (state, step), which is what makes the end-of-run
// digest comparable across machine configurations: aggregated vs
// unaggregated runs — or crash-free vs rollback-replayed runs — must be
// bit-identical.
//
// Like the ft_apps, all mutable state lives in pup()-able elements and
// the coordinator offers the runtime a checkpoint at each step boundary,
// so the same program doubles as a crash-recovery conformance test.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "charm/chare.hpp"
#include "charm/ft_apps.hpp"  // fnv1a
#include "common/hash.hpp"
#include "common/timing.hpp"
#include "taskbench/patterns.hpp"

namespace bgq::taskbench {

struct Params {
  Pattern pattern = Pattern::kStencil;
  std::uint32_t width = 16;        ///< tasks per step (chare elements)
  std::uint32_t steps = 8;         ///< dependence-graph depth
  std::uint32_t payload_bytes = 32;///< task output size on the wire
  std::uint32_t grain = 0;         ///< kernel iterations per task
};

class TaskBenchApp {
 public:
  TaskBenchApp(charm::Runtime& rt, Params prm);

  /// Kick step 0.  Call from exactly one PE's init function.
  void start(cvs::Pe& pe) { arr_->send_from(pe, 0, kKick, nullptr, 0); }

  bool finished() const { return done_.load(); }

  /// Final-step reduction total: the sum of every task's 32-bit state
  /// digest — exact in a double, so bit-comparable across runs.
  double final_total() const { return final_total_.load(); }

  /// FNV-1a fold of every task's (state, step), in task order.
  std::uint64_t digest() const;

  // Communication/work accounting for the overhead report.
  std::uint64_t data_messages() const { return data_msgs_.load(); }
  std::uint64_t data_payload_bytes() const { return data_bytes_.load(); }
  std::uint64_t busy_ns() const { return busy_ns_.load(); }
  std::uint64_t stale_drops() const { return stale_drops_.load(); }

 private:
  class Task;

  static constexpr int kKick = 0;     ///< to task 0: begin step 0
  static constexpr int kStep = 1;     ///< broadcast: step barrier release
  static constexpr int kData = 2;     ///< a dependency's output payload
  static constexpr int kAdvance = 3;  ///< to task 0: reduction landed

  struct DataHdr {
    std::uint32_t consume_step;  ///< step whose execution eats this
    std::uint32_t src;           ///< producing task
  };

  charm::Runtime& rt_;
  charm::ChareArray* arr_ = nullptr;
  const Params prm_;
  std::vector<Task*> raw_;  ///< owned by the array; for digest()
  std::atomic<double> final_total_{0.0};
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> data_msgs_{0};
  std::atomic<std::uint64_t> data_bytes_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> stale_drops_{0};
};

class TaskBenchApp::Task : public charm::Chare {
 public:
  Task(TaskBenchApp& app, std::size_t index)
      : app_(app),
        index_(static_cast<std::uint32_t>(index)),
        state_(charm::fnv1a(kFnvOffsetBasis, &index_,
                            sizeof(index_))) {}

  void entry(int entry, const void* data, std::size_t bytes,
             charm::EntryContext& ctx) override {
    switch (entry) {
      case kKick:
        ctx.broadcast(kStep, &step_, sizeof(step_));
        return;
      case kStep: {
        std::uint32_t s;
        std::memcpy(&s, data, sizeof(s));
        if (s != step_) return;  // replayed kick; already past it
        started_ = true;
        Bank& b = bank_for(step_);
        if (b.arrived == b.deps.size()) execute(ctx);
        return;
      }
      case kData:
        on_data(data, bytes, ctx);
        return;
      case kAdvance: {
        double total;
        std::memcpy(&total, data, sizeof(total));
        advance(total, ctx);
        return;
      }
      default:
        return;
    }
  }

  void pup(ft::Pup& p) override {
    // Only step-boundary state checkpoints; a restore may land on a task
    // caught mid-step by the crash, so unpacking clears the transient
    // receive banks the blob doesn't carry.
    p(state_);
    p(step_);
    if (p.unpacking()) {
      banks_[0].reset();
      banks_[1].reset();
      started_ = false;
    }
  }

  void resume(charm::EntryContext& ctx) override {
    // The restore cleared the receive banks, but the inputs for step_
    // were shipped during step_-1 execution — before the checkpoint.
    // Every output is a pure function of the checkpointed state, so each
    // task regenerates and re-ships them; the banks refill exactly as
    // they stood when the checkpoint committed.
    ship_outputs(ctx);
    if (index_ == 0 && step_ < app_.prm_.steps) {
      ctx.broadcast(kStep, &step_, sizeof(step_));
    }
  }

  std::uint64_t digest_into(std::uint64_t h) const {
    h = charm::fnv1a(h, &state_, sizeof(state_));
    return charm::fnv1a(h, &step_, sizeof(step_));
  }

 private:
  /// Per-consume-step receive state.  At most two steps are in flight at
  /// once — the barrier reduction for step t completes before anyone
  /// executes t+1 and ships t+2 data — so two parity-indexed banks
  /// suffice.  A bank keeps its vectors' storage from step to step, so
  /// once both have seen the widest dependency list no step allocates.
  struct Bank {
    std::uint32_t step = UINT32_MAX;
    std::vector<std::uint32_t> deps;       ///< sorted dependency list
    std::vector<std::uint64_t> slot;       ///< payload digest per dep
    std::vector<std::uint8_t> got;
    std::uint32_t arrived = 0;

    /// Empty, for no step; the storage stays.
    void reset() {
      step = UINT32_MAX;
      deps.clear();
      slot.clear();
      got.clear();
      arrived = 0;
    }
  };

  Bank& bank_for(std::uint32_t s) {
    Bank& b = banks_[s % 2];
    if (b.step != s) {
      b.step = s;
      dependencies(app_.prm_.pattern, app_.prm_.width, s, index_, b.deps);
      b.slot.assign(b.deps.size(), 0);
      b.got.assign(b.deps.size(), 0);
      b.arrived = 0;
    }
    return b;
  }

  void on_data(const void* data, std::size_t bytes,
               charm::EntryContext& ctx) {
    DataHdr hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    // Only the current step (still collecting) and the next (senders run
    // ahead of the barrier) are live; anything else is pre-rollback
    // replay or a duplicate past its window.
    if (hdr.consume_step != step_ && hdr.consume_step != step_ + 1) {
      app_.stale_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Bank& b = bank_for(hdr.consume_step);
    const auto it =
        std::lower_bound(b.deps.begin(), b.deps.end(), hdr.src);
    if (it == b.deps.end() || *it != hdr.src) return;  // not a dep: drop
    const auto slot = static_cast<std::size_t>(it - b.deps.begin());
    if (b.got[slot] != 0) {  // replayed duplicate
      app_.stale_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    b.got[slot] = 1;
    b.slot[slot] = charm::fnv1a(
        kFnvOffsetBasis,
        static_cast<const std::byte*>(data) + sizeof(hdr),
        bytes - sizeof(hdr));
    ++b.arrived;
    if (hdr.consume_step == step_ && started_ &&
        b.arrived == b.deps.size()) {
      execute(ctx);
    }
  }

  void execute(charm::EntryContext& ctx) {
    Bank& b = bank_for(step_);
    // The fixed task kernel: `grain` LCG rounds over the state.  Timed so
    // the bench can subtract compute from elapsed; the timer never feeds
    // back into the state, so timing cannot perturb the digest.
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = state_;
    for (std::uint32_t i = 0; i < app_.prm_.grain; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    app_.busy_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    state_ ^= x;
    state_ = charm::fnv1a(state_, &step_, sizeof(step_));
    for (std::size_t i = 0; i < b.slot.size(); ++i) {
      state_ = charm::fnv1a(state_, &b.slot[i], sizeof(b.slot[i]));
    }
    b.reset();
    started_ = false;

    ++step_;
    ship_outputs(ctx);
    // Truncated 32-bit digest: W of them sum exactly in a double.
    ctx.contribute(
        static_cast<double>(static_cast<std::uint32_t>(state_)));
  }

  /// Ship this task's step_-1 output to every step_ consumer.  A pure
  /// function of (state_, step_), so a post-rollback resume() re-sends
  /// byte-identical payloads.  The payload and the consumer list are
  /// built once per step, into buffers the task keeps.
  void ship_outputs(charm::EntryContext& ctx) {
    if (step_ == 0 || step_ >= app_.prm_.steps) return;
    const std::uint32_t nbytes = app_.prm_.payload_bytes;
    payload_.resize(sizeof(DataHdr) + nbytes);
    DataHdr hdr{step_, index_};
    std::memcpy(payload_.data(), &hdr, sizeof(hdr));
    for (std::uint32_t i = 0; i < nbytes; ++i) {
      payload_[sizeof(hdr) + i] = static_cast<std::byte>(
          (state_ >> ((i % 8) * 8)) ^ (std::uint64_t{i} * 131));
    }
    dependents(app_.prm_.pattern, app_.prm_.width, step_ - 1, index_,
               outs_);
    for (std::uint32_t d : outs_) {
      ctx.send(d, kData, payload_.data(), payload_.size());
    }
    app_.data_msgs_.fetch_add(outs_.size(), std::memory_order_relaxed);
    app_.data_bytes_.fetch_add(
        static_cast<std::uint64_t>(outs_.size()) * payload_.size(),
        std::memory_order_relaxed);
  }

  void advance(double total, charm::EntryContext& ctx) {
    if (step_ >= app_.prm_.steps) {
      app_.final_total_.store(total);
      app_.done_.store(true);
      ctx.pe().exit_all();
      return;
    }
    if (app_.rt_.checkpoint_due() && app_.rt_.start_checkpoint()) {
      return;  // resume() re-kicks this step after the commit
    }
    ctx.broadcast(kStep, &step_, sizeof(step_));
  }

  TaskBenchApp& app_;
  const std::uint32_t index_;
  std::uint64_t state_;
  std::uint32_t step_ = 0;
  bool started_ = false;  ///< kStep for step_ has arrived
  Bank banks_[2];
  std::vector<std::uint32_t> outs_;  ///< ship_outputs: consumers
  std::vector<std::byte> payload_;   ///< ship_outputs: the wire payload

  friend class TaskBenchApp;
};

inline TaskBenchApp::TaskBenchApp(charm::Runtime& rt, Params prm)
    : rt_(rt), prm_(prm) {
  raw_.resize(prm_.width);
  arr_ = &rt_.create_array(prm_.width, [this](std::size_t i) {
    auto t = std::make_unique<Task>(*this, i);
    raw_[i] = t.get();
    return t;
  });
  arr_->set_reduction_client([this](double total, cvs::Pe& pe) {
    arr_->send_from(pe, 0, kAdvance, &total, sizeof(total));
  });
}

inline std::uint64_t TaskBenchApp::digest() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Task* t : raw_) h = t->digest_into(h);
  return h;
}

}  // namespace bgq::taskbench
