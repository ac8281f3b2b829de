#include "graph/random_graph.h"

#include <numeric>
#include <vector>

namespace cdi::graph {

namespace {

std::vector<std::string> MakeNames(std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) names.push_back("v" + std::to_string(i));
  return names;
}

std::vector<NodeId> RandomOrder(std::size_t n, Rng* rng) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  return order;
}

}  // namespace

Digraph RandomDag(std::size_t n, double edge_prob, Rng* rng) {
  Digraph g(MakeNames(n));
  const auto order = RandomOrder(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(edge_prob)) {
        CDI_CHECK(g.AddEdge(order[i], order[j]).ok());
      }
    }
  }
  return g;
}

}  // namespace cdi::graph
