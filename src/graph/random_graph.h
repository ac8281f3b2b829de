#ifndef CDI_GRAPH_RANDOM_GRAPH_H_
#define CDI_GRAPH_RANDOM_GRAPH_H_

#include "common/rng.h"
#include "graph/digraph.h"

namespace cdi::graph {

/// Samples a random DAG over `n` nodes named "v0".."v{n-1}": each pair
/// (i, j) with i < j in a random permutation gets edge with probability
/// `edge_prob`, oriented along the permutation (hence always acyclic).
/// Used by property tests and scaling benchmarks.
Digraph RandomDag(std::size_t n, double edge_prob, Rng* rng);

}  // namespace cdi::graph

#endif  // CDI_GRAPH_RANDOM_GRAPH_H_
