#ifndef CDI_GRAPH_ADJUSTMENT_H_
#define CDI_GRAPH_ADJUSTMENT_H_

#include <set>

#include "common/status.h"
#include "graph/digraph.h"

namespace cdi::graph {

/// Graphical identification helpers for causal queries about exposure `t`
/// and outcome `o` in a causal DAG (Pearl's criteria).

/// Mediators: nodes on at least one directed path t -> ... -> o.
Result<std::set<NodeId>> Mediators(const Digraph& g, NodeId t, NodeId o);

/// True iff `z` satisfies Pearl's backdoor criterion relative to (t, o):
/// no node of z is a descendant of t, and z blocks every path t <- ... o
/// that starts with an edge into t. Checked via d-separation in the graph
/// with t's outgoing edges removed.
Result<bool> IsValidBackdoorSet(const Digraph& g, NodeId t, NodeId o,
                                const std::set<NodeId>& z);

/// True iff `z` satisfies Pearl's front-door criterion relative to (t, o):
/// (i) z intercepts every directed path from t to o, (ii) there is no
/// unblocked backdoor path from t to z, and (iii) every backdoor path from
/// z to o is blocked by t. Useful when backdoor confounders are
/// unobserved.
Result<bool> IsValidFrontDoorSet(const Digraph& g, NodeId t, NodeId o,
                                 const std::set<NodeId>& z);

/// The canonical front-door candidate: all mediators of t -> o. Returns
/// the set when it satisfies the criterion, NotFound otherwise.
Result<std::set<NodeId>> FrontDoorSet(const Digraph& g, NodeId t, NodeId o);

}  // namespace cdi::graph

#endif  // CDI_GRAPH_ADJUSTMENT_H_
