// Spans the traced benchmark records around its own calls into the
// runtime's public functions.  A span has a name (`<layer>.<call>`), an id
// shared by every span of one message (the round in a ping-pong, the
// stream sequence in the flood), start and end on CLOCK_MONOTONIC (so two
// processes' spans compare directly), and the index of its parent span in
// the same log.  Spans stay in memory, one log per PE slot, and are
// written out when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::spans {

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t t0;
  std::uint64_t t1;
  std::int32_t parent;  ///< index in the same log, -1 for a root
};

/// One PE slot's spans, written only by the thread running that PE.
class Log {
 public:
  int open(const char* name, std::uint64_t id) noexcept;
  void close(int idx) noexcept;
  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  friend void enable();
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint64_t dropped_ = 0;
};

/// Reserve the logs and start recording (before any runtime thread).
void enable();
bool enabled() noexcept;

/// Message id: an episode/phase namespace, the message's index within it,
/// and its direction (0 = outbound, 1 = reply / credit).
inline std::uint64_t message_id(std::uint64_t base, std::uint64_t n,
                                unsigned dir) noexcept {
  return base | (n << 1) | dir;
}

/// The log of PE slot `slot` if message `id` is sampled (every 8th
/// message index, both directions), else nullptr.
Log* log_for(unsigned slot, std::uint64_t id) noexcept;

/// RAII span; a no-op for a null log.
class Scope {
 public:
  Scope(Log* log, const char* name, std::uint64_t id) noexcept
      : log_(log), idx_(log != nullptr ? log->open(name, id) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Log* log_;
  int idx_;
};

/// A span as read back for analysis (owning its name).
struct Record {
  std::string name;
  std::uint64_t id, t0, t1;
  std::int32_t parent;
};
using Records = std::vector<std::vector<Record>>;  ///< one list per log

/// This process's logs as records.
Records collect();
/// Write records one per line: log name id t0 t1 parent.
bool write(const std::string& path, const Records& logs);
/// Read a file written by write() and append its logs to `out`.
bool read(const std::string& path, Records& out);

/// Per-layer figures derived from the spans of every process of a run.
struct Summary {
  double alloc_ns_p50 = 0, send_ns_p50 = 0, free_ns_p50 = 0;
  double deliver_ns_p50 = 0, deliver_ns_p99 = 0;
  std::uint64_t deliver_samples = 0;
  double bench_self_ns_per_msg = 0, converse_self_ns_per_msg = 0;
};
Summary summarize(const Records& logs);

}  // namespace perfbench::spans
