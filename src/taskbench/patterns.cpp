#include "taskbench/patterns.hpp"

#include <algorithm>

namespace bgq::taskbench {

namespace {

/// splitmix64 — the stateless mixer used wherever the pattern needs
/// "random" but reproducible choices.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint32_t log2_ceil(std::uint32_t w) noexcept {
  std::uint32_t b = 0;
  while ((1u << b) < w) ++b;
  return b == 0 ? 1 : b;
}

/// fft's butterfly partner of `task` at `step` (may be >= width).
std::uint32_t fft_partner(std::uint32_t width, std::uint32_t step,
                          std::uint32_t task) noexcept {
  return task ^ (1u << ((step - 1) % log2_ceil(width)));
}

/// random's pick number `s` (0 or 1) for (`step`, `task`).
std::uint32_t random_pick(std::uint32_t width, std::uint32_t step,
                          std::uint32_t task, std::uint32_t s) noexcept {
  const std::uint64_t h =
      mix64((std::uint64_t{step} << 40) ^ (std::uint64_t{task} << 8) ^ s);
  return static_cast<std::uint32_t>(h % width);
}

std::uint32_t spread_stride(std::uint32_t width) noexcept {
  return width / 3 == 0 ? 1 : width / 3;
}

/// The tree's children of `task` that exist in a `width`-wide step.
void tree_children(std::uint32_t width, std::uint32_t task,
                   std::vector<std::uint32_t>& out) {
  if (2 * task < width) out.push_back(2 * task);
  if (2 * task + 1 < width) out.push_back(2 * task + 1);
}

void finish(std::vector<std::uint32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

const char* pattern_name(Pattern p) noexcept {
  switch (p) {
    case Pattern::kStencil: return "stencil";
    case Pattern::kFft: return "fft";
    case Pattern::kTree: return "tree";
    case Pattern::kRandom: return "random";
    case Pattern::kSpread: return "spread";
  }
  return "?";
}

std::optional<Pattern> parse_pattern(std::string_view name) noexcept {
  for (Pattern p : kAllPatterns) {
    if (name == pattern_name(p)) return p;
  }
  return std::nullopt;
}

void dependencies(Pattern p, std::uint32_t width, std::uint32_t step,
                  std::uint32_t task, std::vector<std::uint32_t>& out) {
  out.clear();
  if (step == 0 || width == 0 || task >= width) return;
  switch (p) {
    case Pattern::kStencil:
      if (task > 0) out.push_back(task - 1);
      out.push_back(task);
      if (task + 1 < width) out.push_back(task + 1);
      break;
    case Pattern::kFft:
      out.push_back(task);
      if (const std::uint32_t partner = fft_partner(width, step, task);
          partner < width) {
        out.push_back(partner);
      }
      break;
    case Pattern::kTree:
      if (step % 2 == 1) {
        // Fan-in: children fold upward; tasks past the fold have no
        // dependencies and fire on the step broadcast alone.
        tree_children(width, task, out);
      } else {
        out.push_back(task / 2);  // fan-out: parent re-seeds children
      }
      break;
    case Pattern::kRandom:
      out.push_back(task);  // self-dep keeps every chain alive
      for (std::uint32_t s = 0; s < 2; ++s) {
        out.push_back(random_pick(width, step, task, s));
      }
      break;
    case Pattern::kSpread: {
      out.push_back(task);
      const std::uint32_t stride = spread_stride(width);
      for (std::uint32_t s = 1; s <= 2; ++s) {
        out.push_back((task + step + s * stride) % width);
      }
      break;
    }
  }
  finish(out);
}

void dependents(Pattern p, std::uint32_t width, std::uint32_t step,
                std::uint32_t task, std::vector<std::uint32_t>& out) {
  out.clear();
  const std::uint32_t next = step + 1;  // the consuming step
  if (next == 0 || width == 0 || task >= width) return;
  switch (p) {
    case Pattern::kStencil:
    case Pattern::kFft:
      // Symmetric relations: j consumes i exactly when i consumes j.
      dependencies(p, width, next, task, out);
      return;
    case Pattern::kTree:
      // Swap the sweeps: a fan-in step's consumer is the parent, a
      // fan-out step's consumers are the children.
      if (next % 2 == 1) {
        out.push_back(task / 2);
      } else {
        tree_children(width, task, out);
      }
      return;
    case Pattern::kRandom:
      // No closed form: test each consumer's two forward picks.  The scan
      // runs in task order, so the list comes out sorted and unique.
      for (std::uint32_t j = 0; j < width; ++j) {
        if (j == task || random_pick(width, next, j, 0) == task ||
            random_pick(width, next, j, 1) == task) {
          out.push_back(j);
        }
      }
      return;
    case Pattern::kSpread: {
      // Consumer j picks (j + next + s * stride) % width: subtract the
      // offsets mod width.
      out.push_back(task);
      const std::uint64_t stride = spread_stride(width);
      for (std::uint32_t s = 1; s <= 2; ++s) {
        const std::uint64_t offset = (next + s * stride) % width;
        out.push_back(static_cast<std::uint32_t>(
            (std::uint64_t{task} + width - offset) % width));
      }
      break;
    }
  }
  finish(out);
}

std::vector<std::uint32_t> dependencies(Pattern p, std::uint32_t width,
                                        std::uint32_t step,
                                        std::uint32_t task) {
  std::vector<std::uint32_t> out;
  dependencies(p, width, step, task, out);
  return out;
}

std::vector<std::uint32_t> dependents(Pattern p, std::uint32_t width,
                                      std::uint32_t step,
                                      std::uint32_t task) {
  std::vector<std::uint32_t> out;
  dependents(p, width, step, task, out);
  return out;
}

std::uint64_t message_count(Pattern p, std::uint32_t width,
                            std::uint32_t steps) {
  std::uint64_t n = 0;
  std::vector<std::uint32_t> deps;
  for (std::uint32_t t = 1; t < steps; ++t) {
    for (std::uint32_t j = 0; j < width; ++j) {
      dependencies(p, width, t, j, deps);
      n += deps.size();
    }
  }
  return n;
}

}  // namespace bgq::taskbench
