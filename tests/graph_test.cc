#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "graph/adjustment.h"
#include "graph/digraph.h"
#include "graph/dot.h"
#include "graph/dsep.h"
#include "graph/metrics.h"
#include "graph/pag.h"
#include "graph/pdag.h"
#include "graph/random_graph.h"

namespace cdi::graph {
namespace {

// --------------------------------------------------------------- Digraph

Digraph Chain3() {
  Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  return g;
}

TEST(DigraphTest, NodesAndEdges) {
  Digraph g({"x", "y"});
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.Adjacent(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  // Duplicate add is a no-op.
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DigraphTest, RejectsSelfLoopAndDupNames) {
  Digraph g({"x"});
  EXPECT_FALSE(g.AddEdge(0, 0).ok());
  EXPECT_FALSE(g.AddNode("x").ok());
  EXPECT_FALSE(g.NodeIdOf("zz").ok());
}

TEST(DigraphTest, RemoveEdge) {
  Digraph g = Chain3();
  g.RemoveEdge(0, 1);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  g.RemoveEdge(0, 1);  // idempotent
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DigraphTest, TopologicalOrder) {
  Digraph g = Chain3();
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  EXPECT_EQ((*order)[0], 0u);
  EXPECT_EQ((*order)[2], 2u);
  EXPECT_TRUE(g.IsAcyclic());
}

TEST(DigraphTest, CycleDetection) {
  Digraph g = Chain3();
  CDI_CHECK(g.AddEdge("c", "a").ok());
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_FALSE(g.TopologicalOrder().ok());
}

TEST(DigraphTest, AncestorsDescendants) {
  Digraph g({"a", "b", "c", "d"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  CDI_CHECK(g.AddEdge("a", "d").ok());
  const auto desc = g.Descendants(0);
  EXPECT_EQ(desc.size(), 3u);
  const auto anc = g.Ancestors(2);
  EXPECT_EQ(anc.size(), 2u);
  EXPECT_TRUE(g.HasDirectedPath(0, 2));
  EXPECT_FALSE(g.HasDirectedPath(2, 0));
}

TEST(DigraphTest, NodesOnDirectedPaths) {
  Digraph g({"t", "m1", "m2", "o", "z"});
  CDI_CHECK(g.AddEdge("t", "m1").ok());
  CDI_CHECK(g.AddEdge("m1", "o").ok());
  CDI_CHECK(g.AddEdge("t", "m2").ok());
  CDI_CHECK(g.AddEdge("m2", "o").ok());
  CDI_CHECK(g.AddEdge("z", "o").ok());
  const auto on = g.NodesOnDirectedPaths(0, 3);
  EXPECT_EQ(on.size(), 2u);
  EXPECT_TRUE(on.count(1));
  EXPECT_TRUE(on.count(2));
  EXPECT_FALSE(on.count(4));
}

TEST(DigraphTest, TwoCycles) {
  Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge(0, 1).ok());
  CDI_CHECK(g.AddEdge(1, 0).ok());
  CDI_CHECK(g.AddEdge(1, 2).ok());
  const auto tc = g.TwoCycles();
  ASSERT_EQ(tc.size(), 1u);
  EXPECT_EQ(tc[0], (Edge{0, 1}));
}

// ---------------------------------------------------------- d-separation

TEST(DSepTest, ChainBlockedByMiddle) {
  Digraph g = Chain3();
  EXPECT_FALSE(*DSeparated(g, 0, 2, {}));
  EXPECT_TRUE(*DSeparated(g, 0, 2, {1}));
}

TEST(DSepTest, ForkBlockedByRoot) {
  Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("b", "a").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  EXPECT_FALSE(*DSeparated(g, 0, 2, {}));
  EXPECT_TRUE(*DSeparated(g, 0, 2, {1}));
}

TEST(DSepTest, ColliderOpensWhenConditioned) {
  Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("c", "b").ok());
  EXPECT_TRUE(*DSeparated(g, 0, 2, {}));
  EXPECT_FALSE(*DSeparated(g, 0, 2, {1}));
}

TEST(DSepTest, ColliderDescendantOpensToo) {
  Digraph g({"a", "b", "c", "d"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("c", "b").ok());
  CDI_CHECK(g.AddEdge("b", "d").ok());
  EXPECT_TRUE(*DSeparated(g, 0, 2, {}));
  EXPECT_FALSE(*DSeparated(g, 0, 2, {3}));
}

TEST(DSepTest, MCharacterStructure) {
  // Classic M-graph: a <- u -> m <- v -> b; conditioning on m opens the
  // path.
  Digraph g({"a", "b", "m", "u", "v"});
  CDI_CHECK(g.AddEdge("u", "a").ok());
  CDI_CHECK(g.AddEdge("u", "m").ok());
  CDI_CHECK(g.AddEdge("v", "m").ok());
  CDI_CHECK(g.AddEdge("v", "b").ok());
  EXPECT_TRUE(*DSeparated(g, 0, 1, {}));
  EXPECT_FALSE(*DSeparated(g, 0, 1, {2}));
  EXPECT_TRUE(*DSeparated(g, 0, 1, {2, 3}));  // u closes it again
}

TEST(DSepTest, ErrorsOnBadArguments) {
  Digraph g = Chain3();
  EXPECT_FALSE(DSeparated(g, 0, 0, {}).ok());
  EXPECT_FALSE(DSeparated(g, 0, 2, {0}).ok());
  Digraph cyc({"a", "b"});
  CDI_CHECK(cyc.AddEdge(0, 1).ok());
  CDI_CHECK(cyc.AddEdge(1, 0).ok());
  EXPECT_FALSE(DSeparated(cyc, 0, 1, {}).ok());
}

TEST(DSepTest, AgreesWithMoralizationOnRandomDags) {
  // Property: d-separation results must be symmetric in x and y.
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    Digraph g = RandomDag(8, 0.3, &rng);
    for (NodeId x = 0; x < 8; ++x) {
      for (NodeId y = x + 1; y < 8; ++y) {
        std::set<NodeId> given;
        for (NodeId z = 0; z < 8; ++z) {
          if (z != x && z != y && rng.Bernoulli(0.25)) given.insert(z);
        }
        auto a = DSeparated(g, x, y, given);
        auto b = DSeparated(g, y, x, given);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(*a, *b);
      }
    }
  }
}

// ------------------------------------------------------------ adjustment

Digraph ConfounderGraph() {
  // z -> t, z -> o, t -> m -> o.
  Digraph g({"t", "o", "m", "z"});
  CDI_CHECK(g.AddEdge("z", "t").ok());
  CDI_CHECK(g.AddEdge("z", "o").ok());
  CDI_CHECK(g.AddEdge("t", "m").ok());
  CDI_CHECK(g.AddEdge("m", "o").ok());
  return g;
}

TEST(AdjustmentTest, Mediators) {
  Digraph g = ConfounderGraph();
  auto med = Mediators(g, 0, 1);
  ASSERT_TRUE(med.ok());
  EXPECT_EQ(med->size(), 1u);
  EXPECT_TRUE(med->count(2));
}

TEST(AdjustmentTest, BackdoorValidity) {
  Digraph g = ConfounderGraph();
  EXPECT_TRUE(*IsValidBackdoorSet(g, 0, 1, {3}));
  EXPECT_FALSE(*IsValidBackdoorSet(g, 0, 1, {}));    // z confounds
  EXPECT_FALSE(*IsValidBackdoorSet(g, 0, 1, {2}));   // m is a descendant
  EXPECT_FALSE(*IsValidBackdoorSet(g, 0, 1, {0}));   // contains t
}

TEST(AdjustmentTest, PropertyParentSetIsAlwaysValidBackdoor) {
  Rng rng(73);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Digraph g = RandomDag(7, 0.3, &rng);
    const NodeId t = rng.UniformInt(uint64_t{7});
    const NodeId o = rng.UniformInt(uint64_t{7});
    if (t == o || g.HasEdge(o, t)) continue;
    // Pa(t) is a valid backdoor set whenever o is not a parent of t.
    auto valid = IsValidBackdoorSet(g, t, o, g.Parents(t));
    ASSERT_TRUE(valid.ok());
    EXPECT_TRUE(*valid) << "trial " << trial;
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

// ------------------------------------------------------------------ Pdag

TEST(PdagTest, EdgeKinds) {
  Pdag p({"a", "b", "c"});
  EXPECT_TRUE(p.AddUndirected(0, 1).ok());
  EXPECT_TRUE(p.AddDirected(1, 2).ok());
  EXPECT_TRUE(p.HasUndirected(0, 1));
  EXPECT_TRUE(p.HasUndirected(1, 0));
  EXPECT_TRUE(p.HasDirected(1, 2));
  EXPECT_FALSE(p.HasDirected(2, 1));
  EXPECT_TRUE(p.Adjacent(2, 1));
  EXPECT_EQ(p.num_directed(), 1u);
  EXPECT_EQ(p.num_undirected(), 1u);
}

TEST(PdagTest, OrientReplacesUndirected) {
  Pdag p({"a", "b"});
  CDI_CHECK(p.AddUndirected(0, 1).ok());
  EXPECT_TRUE(p.Orient(0, 1).ok());
  EXPECT_FALSE(p.HasUndirected(0, 1));
  EXPECT_TRUE(p.HasDirected(0, 1));
  EXPECT_FALSE(p.Orient(0, 1).ok());  // nothing left to orient
}

TEST(PdagTest, MeekRule1) {
  // a -> b, b - c, a and c nonadjacent  =>  b -> c.
  Pdag p({"a", "b", "c"});
  CDI_CHECK(p.AddDirected(0, 1).ok());
  CDI_CHECK(p.AddUndirected(1, 2).ok());
  p.ApplyMeekRules();
  EXPECT_TRUE(p.HasDirected(1, 2));
}

TEST(PdagTest, MeekRule2) {
  // a -> b -> c and a - c  =>  a -> c.
  Pdag p({"a", "b", "c"});
  CDI_CHECK(p.AddDirected(0, 1).ok());
  CDI_CHECK(p.AddDirected(1, 2).ok());
  CDI_CHECK(p.AddUndirected(0, 2).ok());
  p.ApplyMeekRules();
  EXPECT_TRUE(p.HasDirected(0, 2));
}

TEST(PdagTest, MeekRule3) {
  // b - a1 -> c, b - a2 -> c, b - c, a1/a2 nonadjacent  =>  b -> c.
  Pdag p({"b", "a1", "a2", "c"});
  CDI_CHECK(p.AddUndirected(0, 1).ok());
  CDI_CHECK(p.AddUndirected(0, 2).ok());
  CDI_CHECK(p.AddUndirected(0, 3).ok());
  CDI_CHECK(p.AddDirected(1, 3).ok());
  CDI_CHECK(p.AddDirected(2, 3).ok());
  p.ApplyMeekRules();
  EXPECT_TRUE(p.HasDirected(0, 3));
}

TEST(PdagTest, ToDirectedClaimsCountsBothWays) {
  Pdag p({"a", "b", "c"});
  CDI_CHECK(p.AddDirected(0, 1).ok());
  CDI_CHECK(p.AddUndirected(1, 2).ok());
  const auto claims = p.ToDirectedClaims();
  EXPECT_EQ(claims.size(), 3u);  // a->b, b->c, c->b
}

TEST(PdagTest, CpdagOfVStructure) {
  // a -> c <- b is fully compelled (its own equivalence class).
  Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "c").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  auto p = Pdag::CpdagOf(g);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->HasDirected(0, 2));
  EXPECT_TRUE(p->HasDirected(1, 2));
  EXPECT_EQ(p->num_undirected(), 0u);
}

TEST(PdagTest, CpdagOfChainIsUndirected) {
  // a -> b -> c has Markov-equivalent reversals: fully undirected CPDAG.
  Digraph g = Chain3();
  auto p = Pdag::CpdagOf(g);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_directed(), 0u);
  EXPECT_EQ(p->num_undirected(), 2u);
}

TEST(PdagTest, CpdagPreservesSkeletonOnRandomDags) {
  Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    Digraph g = RandomDag(7, 0.35, &rng);
    auto p = Pdag::CpdagOf(g);
    ASSERT_TRUE(p.ok());
    // Same adjacencies.
    for (NodeId u = 0; u < 7; ++u) {
      for (NodeId v = u + 1; v < 7; ++v) {
        EXPECT_EQ(g.Adjacent(u, v), p->Adjacent(u, v));
      }
    }
    // Every directed edge in the CPDAG appears in the DAG with the same
    // orientation (compelled edges are never wrong).
    for (const auto& [u, v] : p->DirectedEdges()) {
      EXPECT_TRUE(g.HasEdge(u, v));
    }
  }
}

// ------------------------------------------------------------------- Pag

TEST(PagTest, MarksAndClaims) {
  Pag p({"a", "b", "c"});
  CDI_CHECK(p.AddEdge(0, 1).ok());
  CDI_CHECK(p.AddEdge(1, 2).ok());
  // a o-o b: claims both ways.
  // b -> c (tail at b, arrow at c): claims (b, c) only.
  CDI_CHECK(p.SetMark(1, 2, 1, EndMark::kTail).ok());
  CDI_CHECK(p.SetMark(1, 2, 2, EndMark::kArrow).ok());
  const auto claims = p.ToDirectedClaims();
  EXPECT_EQ(claims.size(), 3u);
  EXPECT_TRUE(std::count(claims.begin(), claims.end(), Edge{0, 1}));
  EXPECT_TRUE(std::count(claims.begin(), claims.end(), Edge{1, 0}));
  EXPECT_TRUE(std::count(claims.begin(), claims.end(), Edge{1, 2}));
}

TEST(PagTest, MarkAccessErrors) {
  Pag p({"a", "b", "c"});
  CDI_CHECK(p.AddEdge(0, 1).ok());
  EXPECT_FALSE(p.MarkAt(0, 2, 0).ok());
  EXPECT_FALSE(p.SetMark(0, 1, 2, EndMark::kArrow).ok());
  auto m = p.MarkAt(0, 1, 0);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(*m, EndMark::kCircle);
}

TEST(PagTest, RemoveEdgeAndAdjacency) {
  Pag p({"a", "b"});
  CDI_CHECK(p.AddEdge(0, 1).ok());
  EXPECT_TRUE(p.Adjacent(0, 1));
  p.RemoveEdge(1, 0);  // order-insensitive
  EXPECT_FALSE(p.Adjacent(0, 1));
  EXPECT_EQ(p.num_edges(), 0u);
}

// --------------------------------------------------------------- metrics

TEST(MetricsTest, PerfectPrediction) {
  Digraph g = Chain3();
  auto m = CompareEdgeSets(g.num_nodes(), g.Edges(), g.Edges());
  EXPECT_DOUBLE_EQ(m.presence.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.presence.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.presence.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.absence.f1, 1.0);
}

TEST(MetricsTest, HandComputedCase) {
  // Truth: a->b, b->c. Predicted: a->b, c->b (one TP, one FP, one FN).
  const std::vector<Edge> truth = {{0, 1}, {1, 2}};
  const std::vector<Edge> pred = {{0, 1}, {2, 1}};
  auto m = CompareEdgeSets(3, pred, truth);
  EXPECT_DOUBLE_EQ(m.presence.precision, 0.5);
  EXPECT_DOUBLE_EQ(m.presence.recall, 0.5);
  EXPECT_DOUBLE_EQ(m.presence.f1, 0.5);
  // Absence: 6 ordered pairs, truth-absent = 4, predicted-absent = 4,
  // overlap = 3.
  EXPECT_DOUBLE_EQ(m.absence.precision, 0.75);
  EXPECT_DOUBLE_EQ(m.absence.recall, 0.75);
  EXPECT_EQ(m.true_positive_edges, 1u);
  EXPECT_EQ(m.false_positive_edges, 1u);
  EXPECT_EQ(m.false_negative_edges, 1u);
}

TEST(MetricsTest, EmptyPrediction) {
  const std::vector<Edge> truth = {{0, 1}};
  auto m = CompareEdgeSets(2, {}, truth);
  EXPECT_DOUBLE_EQ(m.presence.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.presence.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.absence.recall, 1.0);
}

TEST(MetricsTest, EmptyTruthGivesFiniteZeroScores) {
  // 0/0 := 0 convention — never NaN, so aggregation over benchmark rows
  // with an empty ground truth stays finite and sortable.
  const std::vector<Edge> pred = {{0, 1}};
  auto m = CompareEdgeSets(2, pred, {});
  EXPECT_DOUBLE_EQ(m.presence.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.presence.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.presence.f1, 0.0);
  EXPECT_FALSE(std::isnan(m.absence.precision));
  EXPECT_FALSE(std::isnan(m.absence.f1));
}

TEST(MetricsTest, BothSetsEmptyGivesFiniteScores) {
  auto m = CompareEdgeSets(3, {}, {});
  EXPECT_DOUBLE_EQ(m.presence.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.presence.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.presence.f1, 0.0);
  // Everything is correctly absent.
  EXPECT_DOUBLE_EQ(m.absence.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.absence.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.absence.f1, 1.0);
  EXPECT_EQ(m.num_predicted, 0u);
  EXPECT_EQ(m.num_truth, 0u);
}

TEST(MetricsTest, DuplicateClaimsDeduplicated) {
  const std::vector<Edge> truth = {{0, 1}};
  const std::vector<Edge> pred = {{0, 1}, {0, 1}, {0, 1}};
  auto m = CompareEdgeSets(2, pred, truth);
  EXPECT_EQ(m.num_predicted, 1u);
  EXPECT_DOUBLE_EQ(m.presence.precision, 1.0);
}

// ------------------------------------------------------------------- dot

TEST(DotTest, DigraphExport) {
  Digraph g = Chain3();
  DotOptions options;
  options.highlighted = {"a"};
  options.fill_colors["c"] = "pink";
  const std::string dot = ToDot(g, options);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(dot.find("lightblue"), std::string::npos);
  EXPECT_NE(dot.find("pink"), std::string::npos);
}

TEST(DotTest, PdagExportMarksUndirected) {
  Pdag p({"a", "b"});
  CDI_CHECK(p.AddUndirected(0, 1).ok());
  const std::string dot = ToDot(p);
  EXPECT_NE(dot.find("dir=none"), std::string::npos);
}

// ---------------------------------------------------------- random graph

TEST(RandomGraphTest, AlwaysAcyclic) {
  Rng rng(83);
  for (int i = 0; i < 30; ++i) {
    Digraph g = RandomDag(10, 0.4, &rng);
    EXPECT_TRUE(g.IsAcyclic());
  }
}

// ----------------------------------------------------- PAG edge-mark marks

TEST(PagTest, EdgeMarkRoundTrips) {
  Pag pag({"x", "y", "z"});
  ASSERT_TRUE(pag.AddEdge(0, 1).ok());
  // Fresh edges carry circles at both ends.
  ASSERT_TRUE(pag.MarkAt(0, 1, 0).ok());
  EXPECT_EQ(*pag.MarkAt(0, 1, 0), EndMark::kCircle);
  EXPECT_EQ(*pag.MarkAt(0, 1, 1), EndMark::kCircle);
  // Set and read back every mark kind, through both endpoint orders.
  for (EndMark mark :
       {EndMark::kArrow, EndMark::kTail, EndMark::kCircle}) {
    ASSERT_TRUE(pag.SetMark(0, 1, 1, mark).ok());
    EXPECT_EQ(*pag.MarkAt(0, 1, 1), mark);
    EXPECT_EQ(*pag.MarkAt(1, 0, 1), mark);  // order-insensitive key
    EXPECT_EQ(*pag.MarkAt(0, 1, 0), EndMark::kCircle);  // other end intact
  }
  // Mark queries/sets on absent edges or foreign endpoints fail.
  EXPECT_FALSE(pag.MarkAt(0, 2, 0).ok());
  EXPECT_FALSE(pag.SetMark(0, 1, 2, EndMark::kArrow).ok());
  // Removal forgets the marks; re-adding starts back at circles.
  ASSERT_TRUE(pag.SetMark(0, 1, 1, EndMark::kArrow).ok());
  pag.RemoveEdge(1, 0);
  EXPECT_FALSE(pag.Adjacent(0, 1));
  EXPECT_FALSE(pag.MarkAt(0, 1, 0).ok());
  ASSERT_TRUE(pag.AddEdge(0, 1).ok());
  EXPECT_EQ(*pag.MarkAt(0, 1, 1), EndMark::kCircle);
}

TEST(PagTest, DirectedClaimsRespectTails) {
  Pag pag({"a", "b", "c", "d"});
  // a -> b (tail at a, arrow at b): one claim a -> b.
  ASSERT_TRUE(pag.AddEdge(0, 1).ok());
  ASSERT_TRUE(pag.SetMark(0, 1, 0, EndMark::kTail).ok());
  ASSERT_TRUE(pag.SetMark(0, 1, 1, EndMark::kArrow).ok());
  // b <-> c: two claims (either could cause the other via a latent).
  ASSERT_TRUE(pag.AddEdge(1, 2).ok());
  ASSERT_TRUE(pag.SetMark(1, 2, 1, EndMark::kArrow).ok());
  ASSERT_TRUE(pag.SetMark(1, 2, 2, EndMark::kArrow).ok());
  // c o-o d: two claims.
  ASSERT_TRUE(pag.AddEdge(2, 3).ok());
  const auto claims = pag.ToDirectedClaims();
  auto has = [&](NodeId u, NodeId v) {
    return std::find(claims.begin(), claims.end(), Edge{u, v}) !=
           claims.end();
  };
  EXPECT_TRUE(has(0, 1));
  EXPECT_FALSE(has(1, 0));  // tail at a rules out b -> a
  EXPECT_TRUE(has(1, 2));
  EXPECT_TRUE(has(2, 1));
  EXPECT_TRUE(has(2, 3));
  EXPECT_TRUE(has(3, 2));
  EXPECT_EQ(claims.size(), 5u);
}

// ----------------------------------------- adjustment with disconnected T/O

TEST(AdjustmentTest, DisconnectedExposureOutcome) {
  Digraph g({"t", "o", "z"});
  CDI_CHECK(g.AddEdge("z", "o").ok());  // z touches only the outcome
  const NodeId t = 0, o = 1;
  auto med = Mediators(g, t, o);
  ASSERT_TRUE(med.ok());
  EXPECT_TRUE(med->empty());
  // With no connecting path at all, T and O are d-separated by the empty
  // set, and the empty set is a valid backdoor set.
  auto sep = DSeparated(g, t, o, {});
  ASSERT_TRUE(sep.ok());
  EXPECT_TRUE(*sep);
  auto valid = IsValidBackdoorSet(g, t, o, {});
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
}

TEST(AdjustmentTest, EmptySetsOnDirectEdgeOnlyGraph) {
  Digraph g({"t", "o"});
  CDI_CHECK(g.AddEdge("t", "o").ok());
  auto med = Mediators(g, 0, 1);
  ASSERT_TRUE(med.ok());
  EXPECT_TRUE(med->empty());  // nothing strictly between t and o
  // The direct edge d-connects t and o under any conditioning set.
  auto sep = DSeparated(g, 0, 1, {});
  ASSERT_TRUE(sep.ok());
  EXPECT_FALSE(*sep);
}

}  // namespace
}  // namespace cdi::graph
