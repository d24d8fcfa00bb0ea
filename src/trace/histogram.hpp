// Log-linear (HDR-style) latency histogram.
//
// Values bucket into 32 linear sub-buckets per power of two (kSubBits=5),
// which bounds relative quantile error at 1/32 ≈ 3% while covering the
// full uint64 range in a fixed 1920-cell array — no allocation after
// construction, no dependence on knowing the value range up front.  The
// first two powers of two are exact (values < 2*kSubCount land in their
// own cell), so short queue waits measured in single nanoseconds don't
// smear.
//
// Thread model: a Histogram is a plain value with no locking.  record()
// and merge() belong to whichever one thread holds the instance — the
// analyzer folding a collected trace, a bench timing its own loop — and
// nothing records into a histogram while another thread reads it.
// merge() is cell-wise addition, so it is associative and
// order-independent — the property that lets the analyzer fold any
// number of per-track histograms into one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

namespace bgq::trace {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;                  // 32 sub-buckets
  static constexpr unsigned kSubCount = 1u << kSubBits;
  // Powers of two above the exact range: 64-kSubBits-1 halves, each split
  // into kSubCount cells, plus the 2*kSubCount exact low cells.
  static constexpr unsigned kBuckets =
      2 * kSubCount + (64 - kSubBits - 1) * kSubCount;

  /// Bucket index for a value.  Exact for v < 2*kSubCount; above that the
  /// top kSubBits bits below the leading bit pick the linear sub-bucket.
  static constexpr unsigned bucket_index(std::uint64_t v) noexcept {
    if (v < 2 * kSubCount) return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(countl_zero_(v));
    const unsigned sub =
        static_cast<unsigned>((v >> (msb - kSubBits)) & (kSubCount - 1));
    return (msb - kSubBits) * kSubCount + kSubCount + sub;
  }

  /// Largest value that maps into bucket `i` — the value percentile
  /// extraction reports, so quantiles are conservative (never under-read).
  static constexpr std::uint64_t bucket_high(unsigned i) noexcept {
    if (i < 2 * kSubCount) return i;
    const unsigned msb = (i - kSubCount) / kSubCount + kSubBits;
    const unsigned sub = i & (kSubCount - 1);
    const std::uint64_t base = std::uint64_t{1} << msb;
    const std::uint64_t step = base >> kSubBits;
    return base + std::uint64_t{sub + 1} * step - 1;
  }

  void record(std::uint64_t v, std::uint64_t weight = 1) noexcept {
    cells_[bucket_index(v)] += weight;
    count_ += weight;
    sum_ += v * weight;
    min_ = count_ == weight ? v : std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const Histogram& o) noexcept {
    for (unsigned i = 0; i < kBuckets; ++i) cells_[i] += o.cells_[i];
    if (o.count_ == 0) return;
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    count_ += o.count_;
    sum_ += o.sum_;
  }

  void reset() noexcept {
    cells_.fill(0);
    count_ = 0;
    sum_ = 0;
    min_ = 0;
    max_ = 0;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  std::uint64_t cell(unsigned i) const noexcept {
    return i < kBuckets ? cells_[i] : 0;
  }

  /// Value at quantile q in [0,1]: the bucket_high of the first bucket
  /// whose cumulative count reaches ceil(q*count), clamped to the exact
  /// observed max so p100 never over-reads.
  std::uint64_t percentile(double q) const noexcept {
    if (count_ == 0) return 0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_) + 0.9999999);
    std::uint64_t cum = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      cum += cells_[i];
      if (cum >= rank) return std::min(bucket_high(i), max_);
    }
    return max_;
  }

 private:
  // constexpr-friendly countl_zero for pre-C++20 <bit> portability.
  static constexpr int countl_zero_(std::uint64_t v) noexcept {
    int n = 0;
    for (std::uint64_t probe = std::uint64_t{1} << 63; probe; probe >>= 1) {
      if (v & probe) break;
      ++n;
    }
    return n;
  }

  std::array<std::uint64_t, kBuckets> cells_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace bgq::trace
