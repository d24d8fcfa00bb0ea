// Task Bench conformance: the dependence patterns as pure functions
// (sorted, deduped, in range, closed-form inverses that match a
// brute-force scan, caller-storage forms that match the value forms),
// and the runner's digest invariance — aggregated vs plain runs of every
// pattern must be bit-identical, with a clean fabric, under a chaos plan,
// and across a crash + rollback replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/fault.hpp"
#include "taskbench/patterns.hpp"
#include "taskbench/runner.hpp"

namespace {

using bgq::net::FaultPlan;
using bgq::taskbench::dependencies;
using bgq::taskbench::dependents;
using bgq::taskbench::kAllPatterns;
using bgq::taskbench::message_count;
using bgq::taskbench::parse_pattern;
using bgq::taskbench::Params;
using bgq::taskbench::Pattern;
using bgq::taskbench::pattern_name;
using bgq::taskbench::TaskBenchApp;

// ---------------------------------------------------------------------------
// Patterns as pure functions
// ---------------------------------------------------------------------------

TEST(TaskbenchPatterns, NamesRoundTrip) {
  for (Pattern p : kAllPatterns) {
    const auto parsed = parse_pattern(pattern_name(p));
    ASSERT_TRUE(parsed.has_value()) << pattern_name(p);
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parse_pattern("no-such-pattern").has_value());
}

TEST(TaskbenchPatterns, StepZeroHasNoDependencies) {
  for (Pattern p : kAllPatterns) {
    for (std::uint32_t t = 0; t < 8; ++t) {
      EXPECT_TRUE(dependencies(p, 8, 0, t).empty()) << pattern_name(p);
    }
  }
}

TEST(TaskbenchPatterns, DependenciesAreSortedUniqueAndInRange) {
  constexpr std::uint32_t kWidth = 11;  // odd width stresses tree/fft edges
  for (Pattern p : kAllPatterns) {
    for (std::uint32_t s = 1; s < 10; ++s) {
      for (std::uint32_t t = 0; t < kWidth; ++t) {
        const auto deps = dependencies(p, kWidth, s, t);
        EXPECT_TRUE(std::is_sorted(deps.begin(), deps.end()));
        EXPECT_EQ(std::adjacent_find(deps.begin(), deps.end()), deps.end())
            << pattern_name(p) << " step " << s << " task " << t;
        for (std::uint32_t d : deps) EXPECT_LT(d, kWidth);
      }
    }
  }
}

/// The inverse by definition: every task of step `step+1` whose
/// dependency list holds `producer`.
std::vector<std::uint32_t> brute_force_dependents(Pattern p,
                                                  std::uint32_t width,
                                                  std::uint32_t step,
                                                  std::uint32_t producer) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t consumer = 0; consumer < width; ++consumer) {
    const auto deps = dependencies(p, width, step + 1, consumer);
    if (std::binary_search(deps.begin(), deps.end(), producer)) {
      out.push_back(consumer);
    }
  }
  return out;
}

// Widths 1-3 hit the clamps (spread's stride, log2_ceil(1), the tree
// folding past the width), and the widths that are not powers of two
// hit fft's missing partners.  64 steps cycle fft's bit, move spread's
// offsets all the way round and redraw random's picks.
constexpr std::uint32_t kMaxWidth = 33;
constexpr std::uint32_t kSteps = 64;

TEST(TaskbenchPatterns, DependentsAreTheExactInverseOfDependencies) {
  for (Pattern p : kAllPatterns) {
    for (std::uint32_t w = 1; w <= kMaxWidth; ++w) {
      for (std::uint32_t s = 0; s < kSteps; ++s) {
        // One past the width too: an out-of-range producer feeds no one.
        for (std::uint32_t producer = 0; producer <= w; ++producer) {
          ASSERT_EQ(dependents(p, w, s, producer),
                    brute_force_dependents(p, w, s, producer))
              << pattern_name(p) << " width " << w << " step " << s
              << " producer " << producer;
        }
      }
    }
  }
}

TEST(TaskbenchPatterns, CallerStorageFormsMatchValueForms) {
  // One output vector reused throughout, refilled with junk before every
  // call: the caller-storage forms must return exactly the value forms'
  // lists, with no stale entry left behind.
  std::vector<std::uint32_t> out;
  for (Pattern p : kAllPatterns) {
    for (std::uint32_t w = 1; w <= kMaxWidth; ++w) {
      for (std::uint32_t s = 0; s < kSteps; ++s) {
        for (std::uint32_t t = 0; t <= w; ++t) {
          out.assign(kMaxWidth + 1, 0xDEADBEEF);
          dependencies(p, w, s, t, out);
          ASSERT_EQ(out, dependencies(p, w, s, t))
              << pattern_name(p) << " width " << w << " step " << s
              << " task " << t;
          out.assign(kMaxWidth + 1, 0xDEADBEEF);
          dependents(p, w, s, t, out);
          ASSERT_EQ(out, dependents(p, w, s, t))
              << pattern_name(p) << " width " << w << " step " << s
              << " task " << t;
        }
      }
    }
  }
}

TEST(TaskbenchPatterns, MessageCountMatchesDependencySum) {
  constexpr std::uint32_t kWidth = 8, kSteps = 6;
  for (Pattern p : kAllPatterns) {
    std::uint64_t expect = 0;
    for (std::uint32_t s = 1; s < kSteps; ++s) {
      for (std::uint32_t t = 0; t < kWidth; ++t) {
        expect += dependencies(p, kWidth, s, t).size();
      }
    }
    EXPECT_EQ(message_count(p, kWidth, kSteps), expect) << pattern_name(p);
  }
}

// ---------------------------------------------------------------------------
// Runner conformance: digests must be machine-configuration invariant
// ---------------------------------------------------------------------------

struct RunOut {
  std::uint64_t digest = 0;
  double total = 0;
  bool finished = false;
  std::uint64_t tram_appends = 0;
  std::uint64_t recoveries = 0;
};

RunOut run(Pattern p, bool aggregated, const FaultPlan& faults = {},
           bool ft_crash = false, std::uint32_t steps = 10) {
  bgq::cvs::MachineConfig cfg;
  if (ft_crash) {
    // The test_recovery idiom: frequent checkpoints, fast failure
    // detection, one injected crash mid-run.
    cfg.nodes = 4;
    cfg.mode = bgq::cvs::Mode::kSmp;
    cfg.workers_per_process = 1;
    cfg.ft.enabled = true;
    cfg.ft.checkpoint_period_ms = 5;
    cfg.ft.heartbeat_period_ms = 2;
    cfg.ft.failure_timeout_ms = 15;
    cfg.ft.watchdog_abort = false;
  } else {
    cfg.nodes = 2;
    cfg.mode = bgq::cvs::Mode::kSmp;
    cfg.workers_per_process = 2;
  }
  cfg.faults = faults;
  cfg.tram.enabled = aggregated;
  bgq::cvs::Machine machine(cfg);
  bgq::charm::Runtime rt(machine);
  Params prm;
  prm.pattern = p;
  prm.width = 8;
  prm.steps = steps;
  prm.payload_bytes = 24;
  prm.grain = 50;
  TaskBenchApp app(rt, prm);
  machine.run([&](bgq::cvs::Pe& pe) {
    if (pe.rank() == 0) app.start(pe);
  });
  const bgq::trace::Report rep = machine.metrics_report();
  RunOut out;
  out.digest = app.digest();
  out.total = app.final_total();
  out.finished = app.finished();
  out.tram_appends = rep.value("tram.appends");
  out.recoveries = rep.value("ft.recoveries");
  return out;
}

TEST(TaskbenchConformance, AggregationPreservesDigestsForEveryPattern) {
  for (Pattern p : kAllPatterns) {
    const RunOut plain = run(p, /*aggregated=*/false);
    const RunOut tram = run(p, /*aggregated=*/true);
    ASSERT_TRUE(plain.finished) << pattern_name(p);
    ASSERT_TRUE(tram.finished) << pattern_name(p);
    EXPECT_EQ(plain.digest, tram.digest) << pattern_name(p);
    EXPECT_EQ(plain.total, tram.total) << pattern_name(p);
    EXPECT_GT(tram.tram_appends, 0u)
        << pattern_name(p) << ": the aggregated run never batched anything";
  }
}

TEST(TaskbenchConformance, AggregationPreservesDigestsUnderChaos) {
  const FaultPlan chaos =
      FaultPlan::parse("drop=0.02,dup=0.02,delay=0.05,seed=77");
  for (Pattern p : kAllPatterns) {
    const RunOut ref = run(p, /*aggregated=*/false);
    const RunOut tram = run(p, /*aggregated=*/true, chaos);
    ASSERT_TRUE(ref.finished) << pattern_name(p);
    ASSERT_TRUE(tram.finished) << pattern_name(p);
    EXPECT_EQ(ref.digest, tram.digest) << pattern_name(p);
    EXPECT_EQ(ref.total, tram.total) << pattern_name(p);
  }
}

TEST(TaskbenchConformance, AggregatedRunSurvivesCrashBitIdentical) {
  // Crash one process mid-run with aggregation on; the rollback replay
  // must land on the same digest as a crash-free unaggregated run —
  // stale staged batches and in-flight pre-crash batches must all be
  // discarded by the epoch checks, never replayed into fresh state.
  constexpr std::uint32_t kSteps = 40;  // crash at ~200 msgs lands early
  const Pattern p = Pattern::kStencil;
  const RunOut ref = run(p, /*aggregated=*/false, {}, false, kSteps);
  ASSERT_TRUE(ref.finished);
  const FaultPlan crash = FaultPlan::parse("crash@1:200msg");
  const RunOut tram =
      run(p, /*aggregated=*/true, crash, /*ft_crash=*/true, kSteps);
  ASSERT_TRUE(tram.finished);
  EXPECT_GE(tram.recoveries, 1u) << "the crash never fired or never healed";
  EXPECT_EQ(ref.digest, tram.digest);
  EXPECT_EQ(ref.total, tram.total);
}

}  // namespace
