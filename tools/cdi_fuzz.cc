// cdi_fuzz — randomized-scenario fuzzing of the CDI pipeline against its
// own ground-truth generator.
//
// Usage:
//   cdi_fuzz --trials 200 --seed 1 [--num-threads N] [--no-metamorphic]
//            [--no-summarize]
//            [--inject-bug none|flip-outcome-edges|flip-true-edge]
//            [--min-entities N] [--max-entities N] [--max-clusters K]
//            [--direct-effect-tol X] [--quiet]
//
// Each trial derives a random scenario from its seed (random cluster DAG
// -> SCM -> input table + knowledge sources), runs the full CATER
// pipeline, and verifies oracle checks (adjustment-set d-separation,
// near-zero direct effect, edge P/R/F1 floors) plus metamorphic and
// differential relations (permutation/affine invariance, 1-vs-N-thread
// bitwise identity, seed stability).
//
// On failure it prints a minimized single-seed reproducer command line and
// exits 1. --inject-bug plants an intentional discovery bug to prove the
// checks can catch one.
//
// Every numeric flag is strict: a count is digits only and within its
// floor and ceiling, --direct-effect-tol a finite number in [0, 100];
// anything else is a usage error (exit 2).

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "common/string_util.h"
#include "testing/harness.h"

namespace {

/// Ceilings of the numeric flags. A random scenario needs at least 20
/// entities and as many clusters as RandomScenarioOptions::min_clusters.
constexpr std::uint64_t kMaxTrialsFlag = 1000000;
constexpr std::uint64_t kMinEntitiesFlag = 20;
constexpr std::uint64_t kMaxEntitiesFlag = 100000;
constexpr std::uint64_t kMaxClustersFlag = 64;
constexpr double kMaxDirectEffectTolFlag = 100.0;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trials N] [--seed S] [--num-threads N] "
               "[--no-metamorphic] [--no-summarize] [--inject-bug KIND] "
               "[--min-entities N] "
               "[--max-entities N] [--max-clusters K] "
               "[--direct-effect-tol X] [--max-failed-trials N] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t trials = 50;
  std::uint64_t seed = 1;
  bool quiet = false;
  cdi::testing::FuzzOptions options;

  using cdi::ParseCountFlag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool parsed = true;
    if (flag == "--trials" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxTrialsFlag, &trials);
    } else if (flag == "--seed" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0,
                              std::numeric_limits<std::uint64_t>::max(),
                              &seed);
    } else if (flag == "--num-threads" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, cdi::kMaxThreadsFlag,
                              &options.num_threads);
    } else if (flag == "--no-metamorphic") {
      options.run_metamorphic = false;
    } else if (flag == "--no-summarize") {
      options.run_summarization = false;
    } else if (flag == "--inject-bug" && (v = next())) {
      auto kind = cdi::testing::ParseFaultKind(v);
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return 2;
      }
      options.fault = *kind;
    } else if (flag == "--min-entities" && (v = next())) {
      parsed = ParseCountFlag(flag, v, kMinEntitiesFlag, kMaxEntitiesFlag,
                              &options.scenario.min_entities);
    } else if (flag == "--max-entities" && (v = next())) {
      parsed = ParseCountFlag(flag, v, kMinEntitiesFlag, kMaxEntitiesFlag,
                              &options.scenario.max_entities);
    } else if (flag == "--max-clusters" && (v = next())) {
      parsed = ParseCountFlag(flag, v, options.scenario.min_clusters,
                              kMaxClustersFlag,
                              &options.scenario.max_clusters);
    } else if (flag == "--direct-effect-tol" && (v = next())) {
      parsed = cdi::ParseDoubleFlag(flag, v, 0.0, kMaxDirectEffectTolFlag,
                                    &options.checks.direct_effect_tolerance);
    } else if (flag == "--max-failed-trials" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxTrialsFlag,
                              &options.max_failed_trials);
    } else if (flag == "--quiet") {
      quiet = true;
    } else {
      return Usage(argv[0]);
    }
    if (!parsed) return Usage(argv[0]);
  }
  if (options.scenario.max_entities < options.scenario.min_entities) {
    options.scenario.max_entities = options.scenario.min_entities;
  }

  const auto summary = cdi::testing::RunFuzz(
      seed, trials, options, quiet ? nullptr : &std::cout);
  if (!summary.within_budget(options.max_failed_trials)) {
    std::fprintf(stderr, "cdi_fuzz: %zu/%zu trials FAILED (budget %zu)\n",
                 summary.failed_trials, summary.trials,
                 options.max_failed_trials);
    return 1;
  }
  return 0;
}
