#ifndef CDI_DISCOVERY_DISCOVERY_H_
#define CDI_DISCOVERY_DISCOVERY_H_

#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "discovery/ges.h"
#include "discovery/lingam.h"
#include "graph/digraph.h"

namespace cdi::discovery {

/// The data-centric causal discovery baselines evaluated in the paper.
enum class Algorithm { kPc, kFci, kGes, kLingam };

struct DiscoveryOptions {
  /// CI significance level (PC / FCI).
  double alpha = 0.05;
  /// Largest conditioning set (PC / FCI); -1 = unbounded.
  int max_cond_size = -1;
  /// Worker threads for the parallel phases (PC/FCI skeleton edge tests,
  /// GES candidate scoring). Results are bitwise-identical at any count.
  int num_threads = 1;
  GesOptions ges;
  LingamOptions lingam;
};

/// Uniform output: a set of directed-edge claims in the variable index
/// space, suitable for the Table 3 metrics. PDAG/PAG outputs count
/// undirected/circle endpoints in both directions (see
/// Pdag::ToDirectedClaims / Pag::ToDirectedClaims).
struct DiscoverySummary {
  Algorithm algorithm;
  std::vector<graph::Edge> claims;
  /// Definitely directed edges only (no undirected/circle expansion);
  /// downstream mediator identification uses these.
  std::vector<graph::Edge> definite;
  std::size_t ci_tests = 0;
};

/// Runs one baseline on column-major numeric spans (NaN = missing; each
/// algorithm applies listwise deletion internally).
Result<DiscoverySummary> RunDiscovery(
    const std::vector<DoubleSpan>& data,
    const std::vector<std::string>& names, Algorithm algorithm,
    const DiscoveryOptions& options = DiscoveryOptions());

}  // namespace cdi::discovery

#endif  // CDI_DISCOVERY_DISCOVERY_H_
