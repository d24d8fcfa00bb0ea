// Process-wide counter registry: the one store every runtime counter
// lives in, and the source of Machine::metrics_report().
//
// Two storage kinds, one namespace of names:
//
//   * shard counters — each traced thread of execution owns a *shard*, a
//     plain array of counts indexed by interned id.  Hot-path increments
//     are one non-atomic add on the owning shard (the per-PE `pe.*` and
//     `tram.*` counters); totals are exact at quiesce (after Machine::run
//     returns) and advisory while threads are live;
//   * shared cells — a component takes a Cell per counter when it is
//     built (`cell(name)`) and holds it by reference.  A cell is a relaxed
//     atomic on a line of its own, so any thread may add to or set it and
//     any thread may read it while the job runs.  A value its owner sets
//     (a gauge: resident checkpoint bytes, a ring's high-water mark) is a
//     cell too.
//
// A name reports the sum of every shard counter and cell under it, so a
// component with one cell per context, per FIFO or per thread slot needs
// no gathering code: the report is a snapshot.
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
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "trace/histogram.hpp"

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

/// One shared counter: owned by a Registry, held by reference by the
/// component that counts into it.  Relaxed atomic operations from any
/// thread; alone on its L2 line, so writers on different threads never
/// share one.
class alignas(kL2Line) Cell {
 public:
  void add(std::uint64_t v = 1) noexcept {
    v_.fetch_add(v, std::memory_order_relaxed);
  }
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

  /// One thread's block of counts and histogram instances.
  /// add()/get()/record() are owner-thread operations; the registry reads
  /// them only at report time.
  class Shard {
   public:
    void add(Id id, std::uint64_t v = 1) noexcept {
      if (id >= counts_.size()) counts_.resize(id + 1, 0);
      counts_[id] += v;
    }
    std::uint64_t get(Id id) const noexcept {
      return id < counts_.size() ? counts_[id] : 0;
    }
    /// Record one sample into this shard's instance of histogram `id`
    /// (an id from intern_hist, not intern).
    void record(Id id, std::uint64_t v) noexcept {
      if (id >= hists_.size()) hists_.resize(id + 1);
      hists_[id].record(v);
    }
    const Histogram* hist(Id id) const noexcept {
      return id < hists_.size() ? &hists_[id] : nullptr;
    }
    const std::string& label() const noexcept { return label_; }

   private:
    friend class Registry;
    explicit Shard(std::string label, std::size_t reserve,
                   std::size_t hist_reserve)
        : label_(std::move(label)),
          counts_(reserve, 0),
          hists_(hist_reserve) {}
    std::string label_;
    std::vector<std::uint64_t> counts_;
    std::vector<Histogram> hists_;
  };

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern `name` into a dense id (idempotent; thread-safe).  Intern all
  /// shard counters before creating shards so their arrays never grow on
  /// a hot path.
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

  /// Intern a histogram name into its own dense id space (idempotent;
  /// thread-safe).  Intern all histograms before creating shards so the
  /// per-shard Histogram vector never grows on a hot path.
  Id intern_hist(std::string_view name) {
    std::lock_guard<std::mutex> g(mu_);
    for (Id i = 0; i < hist_names_.size(); ++i) {
      if (hist_names_[i] == name) return i;
    }
    hist_names_.emplace_back(name);
    return hist_names_.size() - 1;
  }

  /// Create (and own) a shard sized to the counters interned so far.
  Shard* make_shard(std::string label) {
    std::lock_guard<std::mutex> g(mu_);
    shards_.push_back(std::unique_ptr<Shard>(
        new Shard(std::move(label), names_.size(), hist_names_.size())));
    return shards_.back().get();
  }

  // ---- thread binding -------------------------------------------------
  // Mirrors Session's ring binding: each traced thread binds its shard
  // once, and always-compiled runtime record sites go through the TLS
  // pointer so callers that run on foreign threads (fabric delivery, comm
  // threads) still charge the right shard.  Unbound threads pay one TLS
  // load and a branch.

  static Shard* thread_shard() noexcept { return tls_shard_; }
  static void bind_thread(Shard* s) noexcept { tls_shard_ = s; }

  /// Record into the calling thread's bound shard, if any.
  static void record_here(Id hist_id, std::uint64_t v) noexcept {
    if (Shard* s = tls_shard_) s->record(hist_id, v);
  }

  /// Histogram `name` merged across all shards (exact at quiesce).
  Histogram hist_total(std::string_view name) const {
    std::lock_guard<std::mutex> g(mu_);
    Histogram out;
    for (Id i = 0; i < hist_names_.size(); ++i) {
      if (hist_names_[i] != name) continue;
      for (const auto& s : shards_) {
        if (const Histogram* h = s->hist(i)) out.merge(*h);
      }
      break;
    }
    return out;
  }

  /// Every interned histogram name with its cross-shard merge, in intern
  /// order (report/export path).
  std::vector<std::pair<std::string, Histogram>> hist_report() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<std::pair<std::string, Histogram>> out;
    out.reserve(hist_names_.size());
    for (Id i = 0; i < hist_names_.size(); ++i) {
      Histogram merged;
      for (const auto& s : shards_) {
        if (const Histogram* h = s->hist(i)) merged.merge(*h);
      }
      out.emplace_back(hist_names_[i], merged);
    }
    return out;
  }

  /// Sum of `name` over its shard counters and cells.  Cells read
  /// exactly at any time; shard counters are advisory while their owner
  /// threads run.
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
  /// Neither shards nor cells are touched — writers keep counting; only
  /// the report-time view shifts.  Callable any time; best called at a
  /// quiescent point (recovery barrier) so the baseline is exact.
  void reset_epoch() {
    std::lock_guard<std::mutex> g(mu_);
    base_.resize(names_.size());
    for (Id i = 0; i < names_.size(); ++i) base_[i] = sum_locked(i);
  }

  /// Every name with the sum of its shard counters and cells, sorted by
  /// name — relative to the last reset_epoch(), if any.
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

  /// Raw sum of name `i` over every shard and cell.
  std::uint64_t sum_locked(Id i) const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s->get(i);
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
  std::vector<std::string> hist_names_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::deque<Cell> cells_;
  std::vector<Id> cell_ids_;  // cells_[c] reports under names_[cell_ids_[c]]
  std::vector<std::uint64_t> base_;  // per-name epoch baselines

  static thread_local Shard* tls_shard_;
};

inline thread_local Registry::Shard* Registry::tls_shard_ = nullptr;

}  // namespace bgq::trace
