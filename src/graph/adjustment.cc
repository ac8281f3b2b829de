#include "graph/adjustment.h"

#include <vector>

#include "graph/dsep.h"

namespace cdi::graph {

Result<std::set<NodeId>> Mediators(const Digraph& g, NodeId t, NodeId o) {
  if (t >= g.num_nodes() || o >= g.num_nodes() || t == o) {
    return Status::InvalidArgument("bad exposure/outcome nodes");
  }
  return g.NodesOnDirectedPaths(t, o);
}

namespace {

/// Copy of g with t's outgoing edges removed (the "backdoor graph").
Digraph BackdoorGraph(const Digraph& g, NodeId t) {
  Digraph h(g.NodeNames());
  for (const auto& [u, v] : g.Edges()) {
    if (u == t) continue;
    Status s = h.AddEdge(u, v);
    CDI_CHECK(s.ok());
  }
  return h;
}

}  // namespace

Result<bool> IsValidBackdoorSet(const Digraph& g, NodeId t, NodeId o,
                                const std::set<NodeId>& z) {
  if (!g.IsAcyclic()) {
    return Status::FailedPrecondition("backdoor check requires a DAG");
  }
  if (z.count(t) > 0 || z.count(o) > 0) return false;
  const auto desc_t = g.Descendants(t);
  for (NodeId v : z) {
    if (desc_t.count(v) > 0) return false;
  }
  const Digraph h = BackdoorGraph(g, t);
  return DSeparated(h, t, o, z);
}

namespace {

/// True when a directed path t -> ... -> o exists that avoids `blocked`.
bool HasDirectedPathAvoiding(const Digraph& g, NodeId t, NodeId o,
                             const std::set<NodeId>& blocked) {
  std::set<NodeId> seen{t};
  std::vector<NodeId> stack{t};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : g.Children(u)) {
      if (v == o) return true;
      if (blocked.count(v) > 0 || !seen.insert(v).second) continue;
      stack.push_back(v);
    }
  }
  return false;
}

}  // namespace

Result<bool> IsValidFrontDoorSet(const Digraph& g, NodeId t, NodeId o,
                                 const std::set<NodeId>& z) {
  if (!g.IsAcyclic()) {
    return Status::FailedPrecondition("front-door check requires a DAG");
  }
  if (z.empty() || z.count(t) > 0 || z.count(o) > 0) return false;
  // (i) z intercepts every directed path t -> o.
  if (HasDirectedPathAvoiding(g, t, o, z)) return false;
  // (ii) no unconditionally open backdoor path from t to any member of z.
  const Digraph t_backdoor = BackdoorGraph(g, t);
  for (NodeId m : z) {
    CDI_ASSIGN_OR_RETURN(bool sep, DSeparated(t_backdoor, t, m, {}));
    if (!sep) return false;
  }
  // (iii) every backdoor path from each member of z to o is blocked by t
  // (and the other members).
  for (NodeId m : z) {
    const Digraph m_backdoor = BackdoorGraph(g, m);
    std::set<NodeId> given = z;
    given.erase(m);
    given.insert(t);
    given.erase(o);
    CDI_ASSIGN_OR_RETURN(bool sep, DSeparated(m_backdoor, m, o, given));
    if (!sep) return false;
  }
  return true;
}

Result<std::set<NodeId>> FrontDoorSet(const Digraph& g, NodeId t, NodeId o) {
  CDI_ASSIGN_OR_RETURN(std::set<NodeId> med, Mediators(g, t, o));
  if (med.empty()) {
    return Status::NotFound("no mediators between exposure and outcome");
  }
  CDI_ASSIGN_OR_RETURN(bool valid, IsValidFrontDoorSet(g, t, o, med));
  if (!valid) {
    return Status::NotFound("mediator set violates the front-door criterion");
  }
  return med;
}

}  // namespace cdi::graph
