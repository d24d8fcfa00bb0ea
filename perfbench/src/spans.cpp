#include "spans.hpp"

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "common/timing.hpp"

namespace perfbench::spans {
namespace {

constexpr std::size_t kSlots = 8;
// Sampled spans per slot and run; 8 MiB per slot.  Beyond it spans are
// dropped (and counted), never reallocated on a PE thread.
constexpr std::size_t kCapacity = 1u << 18;

std::array<Log, kSlots> g_logs;
bool g_enabled = false;

}  // namespace

int Log::open(const char* name, std::uint64_t id) noexcept {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, id, bgq::now_ns(), 0, current_});
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Log::close(int idx) noexcept {
  if (idx < 0) return;
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.t1 = bgq::now_ns();
  current_ = s.parent;
}

void enable() {
  for (Log& l : g_logs) l.spans_.reserve(kCapacity);
  g_enabled = true;
}

bool enabled() noexcept { return g_enabled; }

Log* log_for(unsigned slot, std::uint64_t id) noexcept {
  if (!g_enabled || slot >= kSlots || ((id >> 1) & 7) != 0) return nullptr;
  return &g_logs[slot];
}

Records collect() {
  Records out;
  for (const Log& l : g_logs) {
    if (l.spans().empty()) continue;
    std::vector<Record>& recs = out.emplace_back();
    recs.reserve(l.spans().size());
    for (const Span& s : l.spans()) {
      recs.push_back({s.name, s.id, s.t0, s.t1, s.parent});
    }
  }
  return out;
}

bool write(const std::string& path, const Records& logs) {
  std::ofstream os(path);
  if (!os) return false;
  for (std::size_t l = 0; l < logs.size(); ++l) {
    for (const Record& r : logs[l]) {
      os << l << '\t' << r.name << '\t' << r.id << '\t' << r.t0 << '\t'
         << r.t1 << '\t' << r.parent << '\n';
    }
  }
  return static_cast<bool>(os);
}

bool read(const std::string& path, Records& out) {
  std::ifstream is(path);
  if (!is) return false;
  const std::size_t first = out.size();
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::size_t log = 0;
    Record r;
    if (!(ls >> log >> r.name >> r.id >> r.t0 >> r.t1 >> r.parent)) {
      return false;
    }
    while (out.size() <= first + log) out.emplace_back();
    out[first + log].push_back(std::move(r));
  }
  return true;
}

Summary summarize(const Records& logs) {
  std::vector<double> alloc, send, fre, deliver;
  std::unordered_map<std::uint64_t, std::uint64_t> send_t0;
  double bench_self = 0, converse_self = 0;
  std::uint64_t handled = 0;
  for (const auto& recs : logs) {
    // Self time: a span's duration minus what its direct children cover.
    std::vector<double> child_ns(recs.size(), 0.0);
    for (const Record& r : recs) {
      if (r.parent >= 0 && r.t1 >= r.t0) {
        child_ns[static_cast<std::size_t>(r.parent)] +=
            static_cast<double>(r.t1 - r.t0);
      }
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Record& r = recs[i];
      if (r.t1 < r.t0) continue;  // never closed
      const double dur = static_cast<double>(r.t1 - r.t0);
      const double self = dur - child_ns[i];
      if (r.name == "converse.alloc_message") alloc.push_back(dur);
      if (r.name == "converse.free_message") fre.push_back(dur);
      if (r.name == "converse.send_message") {
        send.push_back(dur);
        send_t0[r.id] = r.t0;
      }
      if (r.name == "bench.handler") ++handled;
      if (r.name.rfind("bench.", 0) == 0) bench_self += self;
      if (r.name.rfind("converse.", 0) == 0) converse_self += self;
    }
  }
  // Delivery: send-call entry to the receiving handler's entry, joined on
  // the message id across logs (and processes).
  for (const auto& recs : logs) {
    for (const Record& r : recs) {
      if (r.name != "bench.handler") continue;
      const auto it = send_t0.find(r.id);
      if (it != send_t0.end() && r.t0 >= it->second) {
        deliver.push_back(static_cast<double>(r.t0 - it->second));
      }
    }
  }
  Summary s;
  s.alloc_ns_p50 = percentile(alloc, 0.50);
  s.send_ns_p50 = percentile(send, 0.50);
  s.free_ns_p50 = percentile(fre, 0.50);
  s.deliver_ns_p50 = percentile(deliver, 0.50);
  s.deliver_ns_p99 = percentile(deliver, 0.99);
  s.deliver_samples = deliver.size();
  if (handled != 0) {
    s.bench_self_ns_per_msg = bench_self / static_cast<double>(handled);
    s.converse_self_ns_per_msg = converse_self / static_cast<double>(handled);
  }
  return s;
}

}  // namespace perfbench::spans
