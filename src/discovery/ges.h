#ifndef CDI_DISCOVERY_GES_H_
#define CDI_DISCOVERY_GES_H_

#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "graph/digraph.h"
#include "graph/pdag.h"

namespace cdi::discovery {

struct GesOptions {
  /// Multiplies the BIC complexity penalty (1.0 = standard BIC).
  double penalty_discount = 1.0;
  /// Hard cap on parents per node (guards the O(2^p) regime); -1 = none.
  int max_parents = -1;
  /// Worker threads for candidate local-score evaluation. Each greedy step
  /// scores all candidates (a pure function of data + current DAG) in
  /// parallel, then picks the winner in the serial iteration order, so the
  /// search trajectory is bitwise-identical at any thread count.
  int num_threads = 1;
};

struct GesResult {
  /// The DAG found by the greedy search.
  graph::Digraph dag;
  /// Its Markov equivalence class (CPDAG).
  graph::Pdag cpdag;
  /// Final total BIC score (lower is better).
  double bic = 0.0;
  std::size_t forward_steps = 0;
  std::size_t backward_steps = 0;
};

/// Greedy equivalence search in the two-phase Chickering (2002) style with
/// a Gaussian BIC score: a forward phase greedily adds the single-edge
/// insertion with the best score improvement, a backward phase greedily
/// deletes. The search state is a DAG (the standard simplification of
/// full equivalence-class search); the result is reported as a CPDAG.
/// `data` is column-major (one span per variable); rows with NaN anywhere
/// are dropped up front.
Result<GesResult> RunGes(const std::vector<DoubleSpan>& data,
                         const std::vector<std::string>& names,
                         const GesOptions& options = GesOptions());

}  // namespace cdi::discovery

#endif  // CDI_DISCOVERY_GES_H_
