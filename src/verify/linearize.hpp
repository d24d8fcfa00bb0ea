// Linearizability checker (Wing & Gong style DFS with memoization).
//
// Given a concurrent history of invocation/response intervals (history.hpp)
// and the *sequential specification* of the structure, the checker searches
// for a total order of the operations that (a) respects real time — an
// operation that completed before another began must come first — and (b)
// is legal under the spec.  If no such order exists the history witnesses a
// linearizability violation: a lost message, a doubly-issued buffer, a
// wakeup that returned without a justifying wake.
//
// Histories here are small (one fuzzed schedule each, <= 64 ops) so the
// exponential worst case never bites; the memo on (linearized-set, spec
// state) keeps the common case near-linear.
//
// Sequential specs for the paper's structures:
//   * BagQueueSpec   — the Charm++ L2AtomicQueue: no inter-producer order
//                      (§III-A: "Charm++ does not have any ordering
//                      requirement"), so the spec is a multiset;
//   * FifoQueueSpec  — OrderedL2Queue / the shm transport's byte ring
//                      (ShmRingView, as a queue of fixed-size frames):
//                      strict global FIFO;
//   * AllocSpec      — pool allocator: a live buffer is owned by exactly
//                      one caller between alloc and free;
//   * GateSpec       — wakeup gate epochs: prepare snapshots the epoch,
//                      commit may only return once the epoch has advanced
//                      past the snapshot.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "verify/history.hpp"

namespace bgq::verify {

enum class LinVerdict {
  kOk,         ///< a legal linearization exists
  kViolation,  ///< no legal linearization — the structure misbehaved
  kLimit,      ///< search budget exhausted (inconclusive; treated as fail)
  kTooLarge,   ///< history exceeds the 64-op checker capacity
};

struct LinResult {
  LinVerdict verdict = LinVerdict::kOk;
  std::string message;

  bool ok() const { return verdict == LinVerdict::kOk; }
};

inline std::string describe_history(const std::vector<Op>& ops) {
  std::string s;
  for (const Op& op : ops) {
    s += "  ";
    s += format_op(op);
    s += '\n';
  }
  return s;
}

namespace detail {

inline void key_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (i * 8)));
}

}  // namespace detail

/// Unordered MPSC queue spec: a bag of in-flight message ids.
struct BagQueueSpec {
  using State = std::multiset<std::uint64_t>;

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case OpKind::kEnqueue:
        s.insert(op.value);
        return true;
      case OpKind::kDequeue: {
        auto it = s.find(op.result);
        if (it == s.end()) return false;
        s.erase(it);
        return true;
      }
      case OpKind::kDequeueEmpty:
        return s.empty();
      default:
        return false;
    }
  }

  static void key(const State& s, std::string& out) {
    for (std::uint64_t v : s) detail::key_u64(out, v);
  }
};

/// Strict-FIFO queue spec (single producer, or the MPI-ordered variant
/// driven from one producer).
struct FifoQueueSpec {
  using State = std::deque<std::uint64_t>;

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case OpKind::kEnqueue:
        s.push_back(op.value);
        return true;
      case OpKind::kDequeue:
        if (s.empty() || s.front() != op.result) return false;
        s.pop_front();
        return true;
      case OpKind::kDequeueEmpty:
        return s.empty();
      default:
        return false;
    }
  }

  static void key(const State& s, std::string& out) {
    for (std::uint64_t v : s) detail::key_u64(out, v);
  }
};

/// Allocator exclusivity spec: the set of live buffer ids.  A buffer may
/// not be issued while live (double-issue) nor freed while not live
/// (double-free / foreign free).
struct AllocSpec {
  using State = std::set<std::uint64_t>;

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case OpKind::kAlloc:
        return s.insert(op.result).second;
      case OpKind::kAllocFail:
        return true;
      case OpKind::kFree:
        return s.erase(op.value) == 1;
      default:
        return false;
    }
  }

  static void key(const State& s, std::string& out) {
    for (std::uint64_t v : s) detail::key_u64(out, v);
  }
};

/// Wakeup-gate epoch spec.  wake() advances the epoch; prepare_wait()
/// returns the current epoch; commit_wait(seen) may only return once the
/// epoch exceeds `seen` — a commit with no justifying wake is exactly the
/// "slept through the signal / spurious resume" failure of a racy gate.
struct GateSpec {
  using State = std::uint64_t;  // the epoch

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case OpKind::kWake:
        ++s;
        return true;
      case OpKind::kPrepare:
        return op.result == s;
      case OpKind::kCommit:
        return s > op.value;
      case OpKind::kCancel:
        return true;
      default:
        return false;
    }
  }

  static void key(const State& s, std::string& out) {
    detail::key_u64(out, s);
  }
};

template <typename Spec>
class LinearizabilityChecker {
 public:
  static LinResult check(const std::vector<Op>& ops,
                         std::uint64_t node_limit = 4'000'000) {
    LinResult r;
    const std::size_t n = ops.size();
    if (n == 0) return r;
    if (n > 64) {
      r.verdict = LinVerdict::kTooLarge;
      r.message = "history has " + std::to_string(n) + " ops (checker max 64)";
      return r;
    }

    Dfs dfs{ops, node_limit};
    typename Spec::State init{};
    const std::uint64_t full = (n == 64) ? ~std::uint64_t{0}
                                         : ((std::uint64_t{1} << n) - 1);
    if (dfs.run(0, init, full)) return r;

    if (dfs.nodes > node_limit) {
      r.verdict = LinVerdict::kLimit;
      r.message = "search budget exhausted after " +
                  std::to_string(dfs.nodes) + " nodes\n" +
                  describe_history(ops);
    } else {
      r.verdict = LinVerdict::kViolation;
      r.message = "no legal linearization of:\n" + describe_history(ops);
    }
    return r;
  }

 private:
  struct Dfs {
    const std::vector<Op>& ops;
    const std::uint64_t node_limit;
    std::uint64_t nodes = 0;
    std::unordered_set<std::string> memo{};

    bool run(std::uint64_t mask, const typename Spec::State& state,
             std::uint64_t full) {
      if (mask == full) return true;
      if (++nodes > node_limit) return false;

      std::string key;
      key.reserve(8 + 16);
      detail::key_u64(key, mask);
      Spec::key(state, key);
      if (!memo.insert(std::move(key)).second) return false;

      // An op may linearize first iff no other pending op *responded*
      // before it was invoked.
      std::uint64_t min_res = ~std::uint64_t{0};
      std::size_t min_idx = 0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (mask & (std::uint64_t{1} << i)) continue;
        if (ops[i].res < min_res) {
          min_res = ops[i].res;
          min_idx = i;
        }
      }
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (mask & (std::uint64_t{1} << i)) continue;
        if (i != min_idx && ops[i].inv > min_res) continue;
        typename Spec::State next = state;
        if (!Spec::apply(next, ops[i])) continue;
        if (run(mask | (std::uint64_t{1} << i), next, full)) return true;
      }
      return false;
    }
  };
};

template <typename Spec>
LinResult check_linearizable(const std::vector<Op>& ops,
                             std::uint64_t node_limit = 4'000'000) {
  return LinearizabilityChecker<Spec>::check(ops, node_limit);
}

}  // namespace bgq::verify
