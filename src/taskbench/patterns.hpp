// Task Bench-style dependence patterns (Slaughter et al., SC'20).
//
// Task Bench parameterizes a task graph as a grid: `width` tasks per
// step, `steps` steps, and a *dependence pattern* that says which tasks
// of step t-1 each task of step t consumes.  Running the same patterns
// over different runtime configurations isolates the runtime's
// per-message overhead from the application: the task work is a fixed
// deterministic kernel, so any wall-clock difference is communication.
//
// Every pattern here is a pure function of (pattern, width, step, task):
// sender and receiver sides compute identical lists with no
// coordination, and a replay after a rollback recomputes the same graph.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bgq::taskbench {

enum class Pattern : std::uint8_t {
  kStencil,  ///< 1-D 3-point stencil (clamped at the edges)
  kFft,      ///< butterfly: partner distance doubles each step (mod log2)
  kTree,     ///< alternating binary fan-in / fan-out sweeps
  kRandom,   ///< self + seeded pseudo-random picks (varies per step)
  kSpread,   ///< self + strided far-away picks (shifts per step)
};

inline constexpr Pattern kAllPatterns[] = {
    Pattern::kStencil, Pattern::kFft, Pattern::kTree, Pattern::kRandom,
    Pattern::kSpread};

const char* pattern_name(Pattern p) noexcept;
std::optional<Pattern> parse_pattern(std::string_view name) noexcept;

/// Tasks of step `step-1` whose output task (`step`, `task`) consumes,
/// written into `out` (its old contents are dropped; it allocates only
/// when `out` must grow).  Step 0 has no dependencies.  Sorted,
/// duplicate-free, all < width.
void dependencies(Pattern p, std::uint32_t width, std::uint32_t step,
                  std::uint32_t task, std::vector<std::uint32_t>& out);

/// Tasks of step `step+1` that consume the output of (`step`, `task`) —
/// the inverse of dependencies(), which is what a sender needs — written
/// into `out` like dependencies().  Closed form per pattern, as in Task
/// Bench's core library: stencil and fft are their own inverses, tree
/// swaps fan-in and fan-out, spread subtracts the step's offsets, and
/// random tests each task's two forward picks.
void dependents(Pattern p, std::uint32_t width, std::uint32_t step,
                std::uint32_t task, std::vector<std::uint32_t>& out);

/// Value forms of the two above (one allocation per call).
std::vector<std::uint32_t> dependencies(Pattern p, std::uint32_t width,
                                        std::uint32_t step,
                                        std::uint32_t task);
std::vector<std::uint32_t> dependents(Pattern p, std::uint32_t width,
                                      std::uint32_t step,
                                      std::uint32_t task);

/// Total point-to-point messages a (width x steps) run of `p` sends:
/// the sum of every task's dependency count over steps 1..steps-1.
std::uint64_t message_count(Pattern p, std::uint32_t width,
                            std::uint32_t steps);

}  // namespace bgq::taskbench
