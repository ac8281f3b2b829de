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

/// Stable display name ("PC", "FCI", "GES", "LiNGAM").
const char* AlgorithmName(Algorithm a);

struct DiscoveryOptions {
  /// CI significance level (PC / FCI).
  double alpha = 0.05;
  /// Largest conditioning set (PC / FCI); -1 = unbounded.
  int max_cond_size = -1;
  /// Worker threads for the parallel phases (PC/FCI skeleton edge tests,
  /// GES candidate scoring). Results are bitwise-identical at any count.
  int num_threads = 1;
  /// Warm start from a previous run's graph over the same variables:
  /// PC seeds its skeleton with these edges (treated as undirected — the
  /// CI sweep only prunes from there), GES installs them as its initial
  /// DAG (the greedy search can still add or delete from the seed). FCI
  /// and LiNGAM ignore the seed. Only consulted when `warm_start` is
  /// true; an empty edge list with warm_start set means "start from the
  /// empty graph" for PC, which is almost never what you want.
  bool warm_start = false;
  std::vector<graph::Edge> warm_edges;
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
  /// The edge set best suited to warm-start the next run of the same
  /// algorithm on slightly-changed data (DiscoveryOptions::warm_edges).
  /// PC: the full skeleton adjacencies (undirected edges both ways —
  /// seeding with definite edges only would drop adjacencies the next
  /// skeleton should keep). GES: the learned DAG itself (seeding with
  /// CPDAG claims would force arbitrary orientations of undirected
  /// edges and steer the search into a different local optimum).
  std::vector<graph::Edge> warm_seed;
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
