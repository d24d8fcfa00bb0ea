// Checkpoint-aware mini-apps for the fault-tolerance tests and benches.
//
// Two small chare-array programs written the way a Charm++ user writes a
// fault-tolerant app: all mutable state lives in pup()-able elements, the
// app advances in globally-sequenced steps driven by a coordinator
// element through reductions, and at every step boundary the coordinator
// asks the runtime whether a checkpoint is due.  Both apps are strictly
// deterministic — every iteration is a pure function of (state, iter) —
// so a run that crashes, rolls back and replays must end bit-identical
// to a crash-free run; the tests compare FNV-1a digests of the final
// element state to prove it.
//
//   FtFft2D  — an N x N complex grid row-decomposed over R elements; each
//              step perturbs one cell, runs a forward+inverse 2-D FFT
//              (two block-transpose exchanges), and reduces a checksum.
//   FtMdRing — R patches of particles on a 1-D ring; each step exchanges
//              position halos with both neighbours, applies a smooth
//              bounded pair force, integrates, and reduces the energy.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "charm/chare.hpp"
#include "common/hash.hpp"
#include "fft/fft1d.hpp"

namespace bgq::charm {

/// FNV-1a over raw bytes — the digest the determinism tests compare.
using ::bgq::fnv1a;

// ---------------------------------------------------------------------------
// FtFft2D
// ---------------------------------------------------------------------------

class FtFft2D {
 public:
  /// `n` grid edge (2,3,5-smooth), `elems` must divide n, `iters` steps.
  FtFft2D(Runtime& rt, std::size_t n, std::size_t elems,
          std::uint32_t iters);

  /// Kick iteration 0.  Call from exactly one PE's init function.
  void start(cvs::Pe& pe) { arr_->send_from(pe, 0, kKick, nullptr, 0); }

  /// Sum-reduction total of the final iteration (valid after run()).
  double final_total() const { return final_total_.load(); }
  bool finished() const { return done_.load(); }

  /// FNV-1a digest of every element's grid rows, in element order.
  std::uint64_t digest() const;

  /// Per-element view for multi-process runs, where a rank's digest() is
  /// only meaningful over locally-homed elements: the launcher merges the
  /// ranks' per-element digests and folds them in element order, which
  /// reproduces digest() bit-for-bit.
  std::size_t element_count() const { return elems_; }
  cvs::PeRank element_home(std::size_t e) const { return arr_->home(e); }
  std::uint64_t element_digest(std::size_t e) const;

 private:
  class Elem;

  // Entry ids.
  static constexpr int kKick = 0;     ///< to element 0: begin iteration 0
  static constexpr int kStep = 1;     ///< broadcast: begin an iteration
  static constexpr int kBlockA = 2;   ///< forward transpose block
  static constexpr int kBlockB = 3;   ///< inverse transpose block
  static constexpr int kAdvance = 4;  ///< to element 0: reduction landed

  struct BlockHdr {
    std::uint32_t iter;
    std::uint32_t src;
  };

  Runtime& rt_;
  ChareArray* arr_ = nullptr;
  const std::size_t n_;
  const std::size_t elems_;
  const std::size_t rpe_;  ///< rows per element
  const std::uint32_t iters_;
  std::vector<Elem*> raw_;  ///< owned by the array; for digest()
  std::atomic<double> final_total_{0.0};
  std::atomic<bool> done_{false};
};

class FtFft2D::Elem : public Chare {
 public:
  Elem(FtFft2D& app, std::size_t index)
      : app_(app),
        index_(index),
        plan_(app.n_),
        rows_(app.rpe_ * app.n_),
        recv_a_(app.rpe_ * app.n_),
        recv_b_(app.rpe_ * app.n_) {
    // Deterministic nontrivial initial grid.
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto g = static_cast<double>(index_ * rows_.size() + i);
      rows_[i] = {std::sin(0.37 * g), std::cos(0.73 * g)};
    }
  }

  void entry(int entry, const void* data, std::size_t bytes,
             EntryContext& ctx) override {
    switch (entry) {
      case kKick:
        ctx.broadcast(kStep, &iter_, sizeof(iter_));
        return;
      case kStep: {
        std::uint32_t it;
        std::memcpy(&it, data, sizeof(it));
        if (it != iter_) return;  // replayed kick; state already past it
        begin_step(ctx);
        return;
      }
      case kBlockA:
      case kBlockB:
        on_block(entry, data, bytes, ctx);
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
    // Only step-boundary state: checkpoints run quiesced, so the phase
    // buffers and counters are always empty/zero when packing.  A restore
    // may land on an element caught mid-phase by the crash, so unpacking
    // also clears the transient phase state the blob doesn't carry.
    p.vec(rows_);
    p(iter_);
    if (p.unpacking()) {
      got_a_ = got_b_ = 0;
      a_done_ = false;
    }
  }

  void resume(EntryContext& ctx) override {
    // Post-checkpoint / post-rollback re-kick: the coordinator restarts
    // the current iteration from (restored) boundary state.
    if (index_ == 0 && iter_ < app_.iters_) {
      ctx.broadcast(kStep, &iter_, sizeof(iter_));
    }
  }

  std::uint64_t digest_into(std::uint64_t h) const {
    h = fnv1a(h, rows_.data(), rows_.size() * sizeof(fft::cplx));
    return fnv1a(h, &iter_, sizeof(iter_));
  }

 private:
  void begin_step(EntryContext& ctx) {
    if (index_ == 0) {
      // The per-iteration perturbation that makes steps non-idempotent:
      // replaying an un-rolled-back iteration would change the digest.
      const double f = 1e-3 * (iter_ + 1) *
                       (static_cast<double>(iter_ % 7) - 3.0);
      rows_[0] += fft::cplx{f, -f};
    }
    a_done_ = false;
    plan_.forward_many(rows_.data(), app_.rpe_);
    send_blocks(ctx, kBlockA);
  }

  /// Ship the rpe x rpe block destined for each element: the transpose
  /// both directions use (the map is an involution).
  void send_blocks(EntryContext& ctx, int entry) {
    const std::size_t rpe = app_.rpe_;
    std::vector<std::byte> buf(sizeof(BlockHdr) +
                               rpe * rpe * sizeof(fft::cplx));
    for (std::size_t d = 0; d < app_.elems_; ++d) {
      BlockHdr hdr{iter_, static_cast<std::uint32_t>(index_)};
      std::memcpy(buf.data(), &hdr, sizeof(hdr));
      auto* blk = reinterpret_cast<fft::cplx*>(buf.data() + sizeof(hdr));
      for (std::size_t r = 0; r < rpe; ++r) {
        for (std::size_t c = 0; c < rpe; ++c) {
          blk[r * rpe + c] = rows_[r * app_.n_ + d * rpe + c];
        }
      }
      ctx.send(d, entry, buf.data(), buf.size());
    }
  }

  void on_block(int entry, const void* data, std::size_t bytes,
                EntryContext& ctx) {
    BlockHdr hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.iter != iter_) return;  // stale replay
    const std::size_t rpe = app_.rpe_;
    const auto* blk = reinterpret_cast<const fft::cplx*>(
        static_cast<const std::byte*>(data) + sizeof(hdr));
    (void)bytes;
    std::vector<fft::cplx>& dst = entry == kBlockA ? recv_a_ : recv_b_;
    for (std::size_t r = 0; r < rpe; ++r) {
      for (std::size_t c = 0; c < rpe; ++c) {
        // Transposed placement: sender row r lands in column slot r of
        // the sender's stripe, sender column c becomes our row c.
        dst[c * app_.n_ + hdr.src * rpe + r] = blk[r * rpe + c];
      }
    }
    if (entry == kBlockA) {
      if (++got_a_ == app_.elems_) {
        a_done_ = true;
        rows_ = recv_a_;
        // Second-dimension forward completes the 2-D transform; the
        // inverse of that dimension runs right here before transposing
        // back (no spectral-domain work in this mini-app).
        plan_.forward_many(rows_.data(), app_.rpe_);
        plan_.backward_many(rows_.data(), app_.rpe_);
        send_blocks(ctx, kBlockB);
        if (got_b_ == app_.elems_) finish_step(ctx);
      }
    } else {
      if (++got_b_ == app_.elems_ && a_done_) finish_step(ctx);
    }
  }

  void finish_step(EntryContext& ctx) {
    rows_ = recv_b_;
    plan_.backward_many(rows_.data(), app_.rpe_);
    const double s = 1.0 / static_cast<double>(app_.n_);
    double sum = 0;
    for (auto& v : rows_) {
      v *= s * s;  // undo the two unscaled backward passes
      sum += v.real() + v.imag();
    }
    got_a_ = got_b_ = 0;
    a_done_ = false;
    ++iter_;
    ctx.contribute(sum);
  }

  void advance(double total, EntryContext& ctx) {
    if (iter_ >= app_.iters_) {
      app_.final_total_.store(total);
      app_.done_.store(true);
      ctx.pe().exit_all();
      return;
    }
    if (app_.rt_.checkpoint_due() && app_.rt_.start_checkpoint()) {
      return;  // resume() re-kicks this iteration after the commit
    }
    ctx.broadcast(kStep, &iter_, sizeof(iter_));
  }

  FtFft2D& app_;
  const std::size_t index_;
  fft::Fft1D plan_;
  std::vector<fft::cplx> rows_;
  std::vector<fft::cplx> recv_a_;
  std::vector<fft::cplx> recv_b_;
  std::uint32_t iter_ = 0;
  std::uint32_t got_a_ = 0;
  std::uint32_t got_b_ = 0;
  bool a_done_ = false;

  friend class FtFft2D;
};

inline FtFft2D::FtFft2D(Runtime& rt, std::size_t n, std::size_t elems,
                        std::uint32_t iters)
    : rt_(rt), n_(n), elems_(elems), rpe_(n / elems), iters_(iters) {
  raw_.resize(elems_);
  arr_ = &rt_.create_array(elems_, [this](std::size_t i) {
    auto e = std::make_unique<Elem>(*this, i);
    raw_[i] = e.get();
    return e;
  });
  arr_->set_reduction_client([this](double total, cvs::Pe& pe) {
    arr_->send_from(pe, 0, kAdvance, &total, sizeof(total));
  });
}

inline std::uint64_t FtFft2D::digest() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Elem* e : raw_) h = e->digest_into(h);
  return h;
}

inline std::uint64_t FtFft2D::element_digest(std::size_t e) const {
  return raw_[e]->digest_into(kFnvOffsetBasis);
}

// ---------------------------------------------------------------------------
// FtMdRing
// ---------------------------------------------------------------------------

class FtMdRing {
 public:
  FtMdRing(Runtime& rt, std::size_t patches, std::size_t particles,
           std::uint32_t steps);

  void start(cvs::Pe& pe) { arr_->send_from(pe, 0, kKick, nullptr, 0); }

  double final_energy() const { return final_energy_.load(); }
  bool finished() const { return done_.load(); }
  std::uint64_t digest() const;

  /// Per-element view (see FtFft2D::element_digest).
  std::size_t element_count() const { return patches_; }
  cvs::PeRank element_home(std::size_t e) const { return arr_->home(e); }
  std::uint64_t element_digest(std::size_t e) const;

 private:
  class Patch;

  static constexpr int kKick = 0;
  static constexpr int kStep = 1;
  static constexpr int kHalo = 2;     ///< neighbour positions
  static constexpr int kAdvance = 3;  ///< to patch 0: reduction landed

  struct HaloHdr {
    std::uint32_t step;
    std::uint32_t src;
  };

  Runtime& rt_;
  ChareArray* arr_ = nullptr;
  const std::size_t patches_;
  const std::size_t m_;  ///< particles per patch
  const std::uint32_t steps_;
  std::vector<Patch*> raw_;
  std::atomic<double> final_energy_{0.0};
  std::atomic<bool> done_{false};
};

class FtMdRing::Patch : public Chare {
 public:
  Patch(FtMdRing& app, std::size_t index)
      : app_(app), index_(index), pos_(app.m_), vel_(app.m_) {
    for (std::size_t i = 0; i < app_.m_; ++i) {
      const auto g = static_cast<double>(index_ * app_.m_ + i);
      pos_[i] = static_cast<double>(index_) + 0.9 * (i + 0.5) /
                    static_cast<double>(app_.m_);
      vel_[i] = 0.01 * std::sin(1.7 * g);
    }
  }

  void entry(int entry, const void* data, std::size_t bytes,
             EntryContext& ctx) override {
    switch (entry) {
      case kKick:
        ctx.broadcast(kStep, &step_, sizeof(step_));
        return;
      case kStep: {
        std::uint32_t s;
        std::memcpy(&s, data, sizeof(s));
        if (s != step_) return;
        send_halos(ctx);
        return;
      }
      case kHalo:
        on_halo(data, bytes, ctx);
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
    p.vec(pos_);
    p.vec(vel_);
    p(step_);
    if (p.unpacking()) {
      // Mid-step halves of a crashed exchange must not leak into the
      // replayed step.
      halo_l_.clear();
      halo_r_.clear();
    }
  }

  void resume(EntryContext& ctx) override {
    if (index_ == 0 && step_ < app_.steps_) {
      ctx.broadcast(kStep, &step_, sizeof(step_));
    }
  }

  std::uint64_t digest_into(std::uint64_t h) const {
    h = fnv1a(h, pos_.data(), pos_.size() * sizeof(double));
    h = fnv1a(h, vel_.data(), vel_.size() * sizeof(double));
    return fnv1a(h, &step_, sizeof(step_));
  }

 private:
  void send_halos(EntryContext& ctx) {
    const std::size_t r = app_.patches_;
    std::vector<std::byte> buf(sizeof(HaloHdr) + app_.m_ * sizeof(double));
    HaloHdr hdr{step_, static_cast<std::uint32_t>(index_)};
    std::memcpy(buf.data(), &hdr, sizeof(hdr));
    std::memcpy(buf.data() + sizeof(hdr), pos_.data(),
                app_.m_ * sizeof(double));
    ctx.send((index_ + 1) % r, kHalo, buf.data(), buf.size());
    ctx.send((index_ + r - 1) % r, kHalo, buf.data(), buf.size());
  }

  void on_halo(const void* data, std::size_t bytes, EntryContext& ctx) {
    HaloHdr hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.step != step_) return;
    (void)bytes;
    const auto* p = reinterpret_cast<const double*>(
        static_cast<const std::byte*>(data) + sizeof(hdr));
    const bool right = hdr.src == (index_ + 1) % app_.patches_;
    std::vector<double>& dst = right ? halo_r_ : halo_l_;
    dst.assign(p, p + app_.m_);
    if (halo_l_.size() == app_.m_ && halo_r_.size() == app_.m_) {
      integrate(ctx);
    }
  }

  /// Smooth bounded pair force f(dx) = dx / (1 + dx^2)^2: deterministic,
  /// no cutoff branches, LJ-like shape near the origin.
  static double pair_force(double dx) noexcept {
    const double d = 1.0 + dx * dx;
    return dx / (d * d);
  }

  void integrate(EntryContext& ctx) {
    constexpr double kDt = 1e-3;
    double energy = 0;
    for (std::size_t i = 0; i < app_.m_; ++i) {
      double f = 0;
      for (std::size_t j = 0; j < app_.m_; ++j) {
        if (j != i) f += pair_force(pos_[i] - pos_[j]);
        f += pair_force(pos_[i] - halo_l_[j]);
        f += pair_force(pos_[i] - halo_r_[j]);
      }
      vel_[i] += kDt * f;
      pos_[i] += kDt * vel_[i];
      energy += 0.5 * vel_[i] * vel_[i];
    }
    halo_l_.clear();
    halo_r_.clear();
    ++step_;
    ctx.contribute(energy);
  }

  void advance(double total, EntryContext& ctx) {
    if (step_ >= app_.steps_) {
      app_.final_energy_.store(total);
      app_.done_.store(true);
      ctx.pe().exit_all();
      return;
    }
    if (app_.rt_.checkpoint_due() && app_.rt_.start_checkpoint()) {
      return;
    }
    ctx.broadcast(kStep, &step_, sizeof(step_));
  }

  FtMdRing& app_;
  const std::size_t index_;
  std::vector<double> pos_;
  std::vector<double> vel_;
  std::vector<double> halo_l_;  ///< empty = not yet arrived this step
  std::vector<double> halo_r_;
  std::uint32_t step_ = 0;

  friend class FtMdRing;
};

inline FtMdRing::FtMdRing(Runtime& rt, std::size_t patches,
                          std::size_t particles, std::uint32_t steps)
    : rt_(rt), patches_(patches), m_(particles), steps_(steps) {
  if (patches < 3) {
    // With 2 patches both halos come from the same neighbour and the
    // left/right distinction collapses.
    throw std::invalid_argument("FtMdRing needs at least 3 patches");
  }
  raw_.resize(patches_);
  arr_ = &rt_.create_array(patches_, [this](std::size_t i) {
    auto p = std::make_unique<Patch>(*this, i);
    raw_[i] = p.get();
    return p;
  });
  arr_->set_reduction_client([this](double total, cvs::Pe& pe) {
    arr_->send_from(pe, 0, kAdvance, &total, sizeof(total));
  });
}

inline std::uint64_t FtMdRing::digest() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const Patch* p : raw_) h = p->digest_into(h);
  return h;
}

inline std::uint64_t FtMdRing::element_digest(std::size_t e) const {
  return raw_[e]->digest_into(kFnvOffsetBasis);
}

}  // namespace bgq::charm
