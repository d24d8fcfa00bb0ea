// Process-wide counter registry: the one store every runtime counter
// lives in, and the source of Machine::metrics_report().
//
// One storage kind: a component takes a Cell per counter when it is
// built (`cell(name)`) and holds it by reference.  A cell is a relaxed
// atomic on a line of its own, so any thread may read it while the job
// runs and writers on different threads never share a line.  A cell many
// threads count into adds with a relaxed fetch_add; a cell only one
// thread writes (each PE's `pe.*` and `tram.*` counters) adds with a
// relaxed load and store (`Cell::owner_add`), exact for its one writer
// and never torn for a reader.  A value its owner sets (a gauge: resident
// checkpoint bytes, a ring's high-water mark) is a cell too.
//
// A name reports the sum of every cell under it, so a component with one
// cell per PE, per context, per FIFO or per thread slot needs no
// gathering code: the report is a snapshot, exact at any time.
//
// Naming scheme: lowercase dotted `<subsystem>.<object>.<metric>`, e.g.
// `pe.msgs.executed`, `pe.sends.network`, `alloc.pool.hits`,
// `comm.parks`.  Keep units in the trailing segment when ambiguous
// (`pe.busy_ns`).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"

namespace bgq::trace {

/// A flat, name-sorted snapshot of every counter.
struct Report {
  std::vector<std::pair<std::string, std::uint64_t>> entries;

  /// Value of `name`, or 0 when absent.
  std::uint64_t value(std::string_view name) const noexcept {
    for (const auto& [k, v] : entries) {
      if (k == name) return v;
    }
    return 0;
  }
  bool has(std::string_view name) const noexcept {
    for (const auto& [k, v] : entries) {
      if (k == name) return true;
    }
    return false;
  }
};

/// One counter: owned by a Registry, held by reference by the component
/// that counts into it.  Relaxed atomic operations from any thread; alone
/// on its L2 line, so writers on different threads never share one.
class alignas(kL2Line) Cell {
 public:
  void add(std::uint64_t v = 1) noexcept {
    v_.fetch_add(v, std::memory_order_relaxed);
  }
  /// add() for a cell only the calling thread ever writes: a plain load
  /// and store instead of a locked read-modify-write.
  void owner_add(std::uint64_t v = 1) noexcept { set(get() + v); }
  void set(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Registry {
 public:
  using Id = std::size_t;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern `name` into a dense id (idempotent; thread-safe): it then
  /// reports, as 0 until some cell counts under it.  Lets a component
  /// that may not exist in a configuration keep the report's key set.
  Id intern(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    return intern_locked(name);
  }

  /// A new zeroed cell reported under `name` (interned if new).  The
  /// registry owns it until it is destroyed: take cells when a component
  /// is built, never on a hot path.  Thread-safe.
  Cell& cell(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    cell_ids_.push_back(intern_locked(name));
    return cells_.emplace_back();  // a deque never moves its elements
  }

  /// Sum of `name` over its cells, current at any time.
  std::uint64_t total(std::string_view name) const {
    std::lock_guard<std::mutex> g(mu_);
    for (Id i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return epoch_adjust(i, sum_locked(i));
    }
    return 0;
  }

  /// Start a new reporting epoch: every value reported from now on is
  /// relative to this instant (clamped at zero), so post-restart
  /// `ft.*`/`net.*` traffic isn't conflated with pre-crash totals.
  /// Cells are not touched — writers keep counting; only the report-time
  /// view shifts.  Callable any time; best called at a quiescent point
  /// (recovery barrier) so the baseline is exact.
  void reset_epoch() {
    std::lock_guard<std::mutex> g(mu_);
    base_.resize(names_.size());
    for (Id i = 0; i < names_.size(); ++i) base_[i] = sum_locked(i);
  }

  /// Every name with the sum of its cells, sorted by name — relative to
  /// the last reset_epoch(), if any.
  Report report() const {
    std::lock_guard<std::mutex> g(mu_);
    Report r;
    r.entries.reserve(names_.size());
    for (Id i = 0; i < names_.size(); ++i) {
      r.entries.emplace_back(names_[i], epoch_adjust(i, sum_locked(i)));
    }
    std::sort(r.entries.begin(), r.entries.end());
    return r;
  }

  std::size_t counter_count() const {
    std::lock_guard<std::mutex> g(mu_);
    return names_.size();
  }

 private:
  Id intern_locked(std::string_view name) {
    // Newest first: a component's cells repeat the names its first
    // instance just interned.
    for (Id i = names_.size(); i-- > 0;) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return names_.size() - 1;
  }

  /// Raw sum of name `i` over every cell.
  std::uint64_t sum_locked(Id i) const noexcept {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cell_ids_[c] == i) sum += cells_[c].get();
    }
    return sum;
  }

  /// Name `i`'s raw sum shifted to the current epoch.
  std::uint64_t epoch_adjust(Id i, std::uint64_t sum) const noexcept {
    const std::uint64_t b = i < base_.size() ? base_[i] : 0;
    return sum > b ? sum - b : 0;
  }

  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::deque<Cell> cells_;
  std::vector<Id> cell_ids_;  // cells_[c] reports under names_[cell_ids_[c]]
  std::vector<std::uint64_t> base_;  // per-name epoch baselines
};

}  // namespace bgq::trace
