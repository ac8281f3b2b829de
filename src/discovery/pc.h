#ifndef CDI_DISCOVERY_PC_H_
#define CDI_DISCOVERY_PC_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "discovery/ci_test.h"
#include "graph/pdag.h"

namespace cdi {
class ThreadPool;
}

namespace cdi::discovery {

struct PcOptions {
  /// Significance level of the CI tests.
  double alpha = 0.05;
  /// Largest conditioning-set size tried; -1 = unbounded.
  int max_cond_size = -1;
  /// Order-independent ("PC-stable") skeleton phase.
  bool stable = true;
  /// Worker threads for the per-level edge tests. The stable skeleton is
  /// order-independent by construction, so the result is bitwise-identical
  /// at any thread count. Ignored (serial) when `stable` is false, whose
  /// semantics are inherently order-dependent.
  int num_threads = 1;
  /// Optional externally owned worker pool, reused across runs (spawning
  /// threads per call would dominate small problems). When null and
  /// `num_threads` > 1, a private pool is created for the call.
  ThreadPool* pool = nullptr;
};

/// Separating sets found during skeleton construction, keyed by the
/// unordered pair (min, max).
using SepsetMap =
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>;

struct PcResult {
  graph::Pdag graph;
  SepsetMap sepsets;
  /// Total CI tests performed.
  std::size_t ci_tests = 0;
};

/// The PC algorithm (Spirtes et al. 2000): skeleton by iterative-deepening
/// CI tests, v-structure orientation from separating sets, Meek closure.
/// Returns a CPDAG estimate.
Result<PcResult> RunPc(const CiTest& test,
                       const std::vector<std::string>& names,
                       const PcOptions& options = PcOptions());

/// Skeleton phase only (shared with FCI): starts from the complete
/// undirected graph, removes edges whose endpoints test independent given
/// some neighbour subset, and records that subset in `sepsets`.
/// `adjacency->at(i)` receives the final neighbour set of variable i.
Status PcSkeleton(const CiTest& test, const PcOptions& options,
                  std::vector<std::set<std::size_t>>* adjacency,
                  SepsetMap* sepsets);

}  // namespace cdi::discovery

#endif  // CDI_DISCOVERY_PC_H_
