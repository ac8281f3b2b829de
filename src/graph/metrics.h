#ifndef CDI_GRAPH_METRICS_H_
#define CDI_GRAPH_METRICS_H_

#include <vector>

#include "graph/digraph.h"

namespace cdi::graph {

/// Precision/recall/F1 triple. When a denominator is 0 the corresponding
/// score is 0.
struct Prf {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

/// The paper's Table 3 graph-quality metrics: directed-edge *presence*
/// scores (over claimed edges) and directed-edge *absence* scores (over
/// ordered node pairs claimed absent).
struct EdgeSetMetrics {
  /// Number of predicted directed-edge claims.
  std::size_t num_predicted = 0;
  /// Number of ground-truth edges.
  std::size_t num_truth = 0;
  Prf presence;
  Prf absence;
  /// Structural Hamming-style counts.
  std::size_t true_positive_edges = 0;
  std::size_t false_positive_edges = 0;
  std::size_t false_negative_edges = 0;
};

/// Compares a predicted directed-claim set against ground-truth edges over
/// `num_nodes` shared nodes (ids must refer to the same node universe).
/// Duplicate claims are deduplicated.
EdgeSetMetrics CompareEdgeSets(std::size_t num_nodes,
                               const std::vector<Edge>& predicted,
                               const std::vector<Edge>& truth);

}  // namespace cdi::graph

#endif  // CDI_GRAPH_METRICS_H_
