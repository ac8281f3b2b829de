#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/scenario.h"
#include "discovery/ci_test.h"
#include "discovery/discovery.h"
#include "discovery/fci.h"
#include "discovery/ges.h"
#include "discovery/lingam.h"
#include "discovery/pc.h"
#include "discovery/subsets.h"
#include "graph/metrics.h"
#include "graph/random_graph.h"
#include "testing/reference.h"

namespace cdi::discovery {
namespace {

// --------------------------------------------------------------- subsets

TEST(SubsetsTest, EnumeratesAllKSubsets) {
  std::vector<int> items = {1, 2, 3, 4};
  int count = 0;
  ForEachSubset<int>(items, 2, [&](const std::vector<int>& s) {
    EXPECT_EQ(s.size(), 2u);
    ++count;
    return false;
  });
  EXPECT_EQ(count, 6);
}

TEST(SubsetsTest, EmptySubset) {
  std::vector<int> items = {1, 2};
  int count = 0;
  ForEachSubset<int>(items, 0, [&](const std::vector<int>& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return false;
  });
  EXPECT_EQ(count, 1);
}

TEST(SubsetsTest, EarlyStop) {
  std::vector<int> items = {1, 2, 3, 4, 5};
  int count = 0;
  const bool stopped = ForEachSubset<int>(items, 2, [&](const auto&) {
    ++count;
    return count == 3;
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(count, 3);
}

TEST(SubsetsTest, KLargerThanNIsEmpty) {
  std::vector<int> items = {1};
  int count = 0;
  ForEachSubset<int>(items, 2, [&](const auto&) {
    ++count;
    return false;
  });
  EXPECT_EQ(count, 0);
}

// ---------------------------------------------------------------- CiTest

/// Linear-Gaussian data for a -> b -> c, a -> c.
stats::NumericDataset TriangleData(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.7 * a[i] + rng.Normal();
    c[i] = 0.6 * b[i] + 0.5 * a[i] + rng.Normal();
  }
  stats::NumericDataset ds;
  // Owning spans: the dataset escapes this scope, so it must keep the
  // buffers alive itself.
  ds.columns = {std::move(a), std::move(b), std::move(c)};
  return ds;
}

TEST(FisherZTest, DetectsDependenceAndIndependence) {
  auto test = FisherZTest::Create(TriangleData(2000, 5));
  ASSERT_TRUE(test.ok());
  EXPECT_LT((*test)->PValue(0, 1, {}), 1e-8);
  EXPECT_LT((*test)->PValue(0, 2, {1}), 1e-6);  // direct edge remains
  EXPECT_GT((*test)->Strength(0, 1, {}), 0.3);
}

TEST(FisherZTest, ChainConditionalIndependence) {
  // Pure chain: a -> b -> c.
  Rng rng(7);
  const std::size_t n = 3000;
  std::vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.8 * a[i] + rng.Normal();
    c[i] = 0.8 * b[i] + rng.Normal();
  }
  stats::NumericDataset ds;
  ds.columns = {a, b, c};
  auto test = FisherZTest::Create(ds);
  ASSERT_TRUE(test.ok());
  EXPECT_LT((*test)->PValue(0, 2, {}), 1e-8);
  EXPECT_GT((*test)->PValue(0, 2, {1}), 0.01);
}

TEST(FisherZTest, TooFewRowsFails) {
  stats::NumericDataset ds;
  ds.columns = {{1, 2}, {2, 3}};
  EXPECT_FALSE(FisherZTest::Create(ds).ok());
}

TEST(FisherZTest, ExactlyCollinearPairIsDependent) {
  // Regression test: y = -3x exactly. Before the Fisher-z clamp fix,
  // atanh(±1) returned NaN/inf and the pair could test independent.
  Rng rng(31);
  const std::size_t n = 600;
  std::vector<double> x(n), y(n), w(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    y[i] = -3.0 * x[i];
    w[i] = rng.Normal();
  }
  stats::NumericDataset ds;
  ds.columns = {x, y, w};
  auto test = FisherZTest::Create(ds);
  ASSERT_TRUE(test.ok());
  EXPECT_LT((*test)->PValue(0, 1, {}), 1e-12);
  EXPECT_LT((*test)->PValue(0, 1, {2}), 1e-12);
  EXPECT_FALSE((*test)->Independent(0, 1, {}, 0.05));
}

TEST(DSeparationOracleTest, MatchesGraph) {
  graph::Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  auto oracle = DSeparationOracle::Create(g);
  ASSERT_TRUE(oracle.ok());
  EXPECT_DOUBLE_EQ((*oracle)->PValue(0, 2, {}), 0.0);
  EXPECT_DOUBLE_EQ((*oracle)->PValue(0, 2, {1}), 1.0);
  EXPECT_TRUE((*oracle)->Independent(0, 2, {1}, 0.05));
}

// -------------------------------------------------------------------- PC

TEST(PcTest, RecoversVStructureFromOracle) {
  graph::Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "c").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  auto oracle = DSeparationOracle::Create(g);
  auto result = RunPc(**oracle, {"a", "b", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->graph.HasDirected(0, 2));
  EXPECT_TRUE(result->graph.HasDirected(1, 2));
  EXPECT_FALSE(result->graph.Adjacent(0, 1));
}

TEST(PcTest, ChainYieldsUndirectedCpdag) {
  graph::Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  auto oracle = DSeparationOracle::Create(g);
  auto result = RunPc(**oracle, {"a", "b", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->graph.HasUndirected(0, 1));
  EXPECT_TRUE(result->graph.HasUndirected(1, 2));
  EXPECT_FALSE(result->graph.Adjacent(0, 2));
  // Sepset of (a, c) should be {b}.
  auto it = result->sepsets.find({0, 2});
  ASSERT_NE(it, result->sepsets.end());
  ASSERT_EQ(it->second.size(), 1u);
  EXPECT_EQ(it->second[0], 1u);
}

TEST(PcTest, OracleRecoversCpdagOnRandomDags) {
  // Property: with a perfect CI oracle, PC must recover exactly the CPDAG
  // of the generating DAG.
  Rng rng(11);
  for (int trial = 0; trial < 15; ++trial) {
    graph::Digraph g = graph::RandomDag(7, 0.3, &rng);
    auto truth = graph::Pdag::CpdagOf(g);
    ASSERT_TRUE(truth.ok());
    auto oracle = DSeparationOracle::Create(g);
    auto result = RunPc(**oracle, g.NodeNames());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->graph.DirectedEdges(), truth->DirectedEdges())
        << "trial " << trial;
    EXPECT_EQ(result->graph.UndirectedEdges(), truth->UndirectedEdges())
        << "trial " << trial;
  }
}

TEST(PcTest, GaussianDataRecoversSkeleton) {
  auto test = FisherZTest::Create(TriangleData(4000, 13));
  ASSERT_TRUE(test.ok());
  auto result = RunPc(**test, {"a", "b", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->graph.Adjacent(0, 1));
  EXPECT_TRUE(result->graph.Adjacent(1, 2));
  EXPECT_TRUE(result->graph.Adjacent(0, 2));
  EXPECT_GT(result->ci_tests, 0u);
}

TEST(PcTest, MaxCondSizeLimitsTests) {
  auto test = FisherZTest::Create(TriangleData(500, 17));
  PcOptions options;
  options.max_cond_size = 0;
  auto result = RunPc(**test, {"a", "b", "c"}, options);
  ASSERT_TRUE(result.ok());
  // With only marginal tests, the dense triangle stays complete.
  EXPECT_EQ(result->graph.num_directed() + result->graph.num_undirected(),
            3u);
}

// ------------------------------------------------------------------- FCI

TEST(FciTest, VStructureGetsArrowheads) {
  graph::Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "c").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  auto oracle = DSeparationOracle::Create(g);
  auto result = RunFci(**oracle, {"a", "b", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->graph.MarkAt(0, 2, 2), graph::EndMark::kArrow);
  EXPECT_EQ(*result->graph.MarkAt(1, 2, 2), graph::EndMark::kArrow);
  EXPECT_FALSE(result->graph.Adjacent(0, 1));
}

TEST(FciTest, R1OrientsAwayFromCollider) {
  // a -> c <- b, c - d chain: R1 gives c -> d (tail at c, arrow at d).
  graph::Digraph g({"a", "b", "c", "d"});
  CDI_CHECK(g.AddEdge("a", "c").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  CDI_CHECK(g.AddEdge("c", "d").ok());
  auto oracle = DSeparationOracle::Create(g);
  auto result = RunFci(**oracle, g.NodeNames());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->graph.MarkAt(2, 3, 2), graph::EndMark::kTail);
  EXPECT_EQ(*result->graph.MarkAt(2, 3, 3), graph::EndMark::kArrow);
}

TEST(FciTest, SkeletonMatchesPcOnOracle) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    graph::Digraph g = graph::RandomDag(6, 0.35, &rng);
    auto oracle = DSeparationOracle::Create(g);
    auto pc = RunPc(**oracle, g.NodeNames());
    auto fci = RunFci(**oracle, g.NodeNames());
    ASSERT_TRUE(pc.ok() && fci.ok());
    for (graph::NodeId u = 0; u < 6; ++u) {
      for (graph::NodeId v = u + 1; v < 6; ++v) {
        EXPECT_EQ(pc->graph.Adjacent(u, v), fci->graph.Adjacent(u, v));
      }
    }
  }
}

TEST(FciTest, ClaimsSupersetOfDefiniteArrows) {
  graph::Digraph g({"a", "b", "c"});
  CDI_CHECK(g.AddEdge("a", "b").ok());
  CDI_CHECK(g.AddEdge("b", "c").ok());
  auto oracle = DSeparationOracle::Create(g);
  auto result = RunFci(**oracle, g.NodeNames());
  ASSERT_TRUE(result.ok());
  // Chain has no collider: everything stays o-o, claims both directions.
  EXPECT_EQ(result->graph.ToDirectedClaims().size(), 4u);
}

// ------------------------------------------------------------------- GES

TEST(GesTest, RecoversSkeletonOfLinearSem) {
  Rng rng(23);
  const std::size_t n = 3000;
  std::vector<double> a(n), b(n), c(n), d(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.8 * a[i] + rng.Normal();
    c[i] = 0.8 * b[i] + rng.Normal();
    d[i] = rng.Normal();
  }
  auto result = RunGes({a, b, c, d}, {"a", "b", "c", "d"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->dag.Adjacent(0, 1));
  EXPECT_TRUE(result->dag.Adjacent(1, 2));
  EXPECT_FALSE(result->dag.Adjacent(0, 2));
  EXPECT_FALSE(result->dag.Adjacent(0, 3));
  EXPECT_GT(result->forward_steps, 0u);
}

TEST(GesTest, VStructureOrientedInCpdag) {
  Rng rng(29);
  const std::size_t n = 4000;
  std::vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
    c[i] = 0.7 * a[i] + 0.7 * b[i] + rng.Normal();
  }
  auto result = RunGes({a, b, c}, {"a", "b", "c"});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->cpdag.HasDirected(0, 2));
  EXPECT_TRUE(result->cpdag.HasDirected(1, 2));
  EXPECT_FALSE(result->cpdag.Adjacent(0, 1));
}

TEST(GesTest, PenaltyDiscountControlsDensity) {
  Rng rng(31);
  const std::size_t n = 800;
  std::vector<std::vector<double>> cols(5, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    cols[0][i] = rng.Normal();
    for (int j = 1; j < 5; ++j) {
      cols[j][i] = 0.3 * cols[j - 1][i] + rng.Normal();
    }
  }
  GesOptions lenient;
  lenient.penalty_discount = 0.2;
  GesOptions strict;
  strict.penalty_discount = 8.0;
  auto loose = RunGes(cdi::SpansOf(cols), {"a", "b", "c", "d", "e"}, lenient);
  auto tight = RunGes(cdi::SpansOf(cols), {"a", "b", "c", "d", "e"}, strict);
  ASSERT_TRUE(loose.ok() && tight.ok());
  EXPECT_GE(loose->dag.num_edges(), tight->dag.num_edges());
}

TEST(GesTest, MaxParentsRespected) {
  Rng rng(37);
  const std::size_t n = 1000;
  std::vector<std::vector<double>> cols(4, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) cols[j][i] = rng.Normal();
    cols[3][i] = cols[0][i] + cols[1][i] + cols[2][i] + 0.3 * rng.Normal();
  }
  GesOptions options;
  options.max_parents = 1;
  auto result = RunGes(cdi::SpansOf(cols), {"a", "b", "c", "y"}, options);
  ASSERT_TRUE(result.ok());
  for (graph::NodeId v = 0; v < 4; ++v) {
    EXPECT_LE(result->dag.Parents(v).size(), 1u);
  }
}

// ---------------------------------------------------------------- LiNGAM

TEST(LingamTest, RecoversOrderWithLaplaceNoise) {
  Rng rng(41);
  const std::size_t n = 4000;
  std::vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Laplace(1.0);
    b[i] = 0.8 * a[i] + rng.Laplace(0.7);
    c[i] = 0.8 * b[i] + rng.Laplace(0.7);
  }
  auto result = RunDirectLingam({a, b, c}, {"a", "b", "c"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->causal_order.size(), 3u);
  EXPECT_EQ(result->causal_order[0], 0u);
  EXPECT_EQ(result->causal_order[1], 1u);
  EXPECT_EQ(result->causal_order[2], 2u);
  EXPECT_TRUE(result->dag.HasEdge(0, 1));
  EXPECT_TRUE(result->dag.HasEdge(1, 2));
  EXPECT_FALSE(result->dag.HasEdge(0, 2));
  EXPECT_NEAR(result->weights[1][0], 0.8 / std::sqrt(0.8 * 0.8 + 0.49), 0.2);
}

TEST(LingamTest, PrunesSpuriousEdges) {
  Rng rng(43);
  const std::size_t n = 3000;
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Laplace(1.0);
    b[i] = rng.Laplace(1.0);  // independent
  }
  auto result = RunDirectLingam({a, b}, {"a", "b"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dag.num_edges(), 0u);
}

TEST(LingamTest, GaussianDataGivesUnreliableOrder) {
  // With Gaussian noise the model is unidentifiable; we only check the
  // call succeeds and prunes to a sparse-ish graph rather than crashing.
  Rng rng(47);
  const std::size_t n = 1500;
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Normal();
    b[i] = 0.8 * a[i] + rng.Normal();
  }
  auto result = RunDirectLingam({a, b}, {"a", "b"});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->dag.num_edges(), 1u);
}

TEST(LingamTest, TooFewRowsFails) {
  EXPECT_FALSE(RunDirectLingam({{1, 2, 3}, {1, 2, 3}}, {"a", "b"}).ok());
}

// ----------------------------------------------------------- RunDiscovery

TEST(RunDiscoveryTest, AllAlgorithmsProduceClaims) {
  Rng rng(53);
  const std::size_t n = 1500;
  std::vector<double> a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.Laplace(1.0);
    b[i] = 0.7 * a[i] + rng.Laplace(0.7);
    c[i] = 0.7 * b[i] + rng.Laplace(0.7);
  }
  const std::vector<std::string> names = {"a", "b", "c"};
  for (Algorithm alg : {Algorithm::kPc, Algorithm::kFci, Algorithm::kGes,
                        Algorithm::kLingam}) {
    SCOPED_TRACE(static_cast<int>(alg));
    auto summary = RunDiscovery({a, b, c}, names, alg);
    ASSERT_TRUE(summary.ok());
    EXPECT_FALSE(summary->claims.empty());
    // Definite edges are always a subset of claims.
    for (const auto& e : summary->definite) {
      EXPECT_TRUE(std::count(summary->claims.begin(), summary->claims.end(),
                             e) > 0);
    }
  }
}

// ------------------------------------------------- thread determinism

/// Linear-Gaussian chain data wide enough that the skeleton does real
/// per-level work.
std::vector<std::vector<double>> WideChainData(std::size_t vars,
                                               std::size_t n,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(vars, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    cols[0][i] = rng.Normal();
    for (std::size_t v = 1; v < vars; ++v) {
      cols[v][i] = 0.6 * cols[v - 1][i] + rng.Normal();
    }
  }
  return cols;
}

TEST(ThreadDeterminismTest, PcIdenticalAtAnyThreadCount) {
  const auto cols = WideChainData(10, 800, 43);
  stats::NumericDataset ds;
  ds.columns = cdi::SpansOf(cols);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < cols.size(); ++v) {
    names.push_back("v" + std::to_string(v));
  }
  PcOptions serial;
  serial.num_threads = 1;
  PcOptions parallel = serial;
  parallel.num_threads = 8;
  auto t1 = FisherZTest::Create(ds);
  auto t8 = FisherZTest::Create(ds);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t8.ok());
  auto r1 = RunPc(**t1, names, serial);
  auto r8 = RunPc(**t8, names, parallel);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(r1->graph.DirectedEdges(), r8->graph.DirectedEdges());
  EXPECT_EQ(r1->graph.UndirectedEdges(), r8->graph.UndirectedEdges());
  EXPECT_EQ(r1->sepsets, r8->sepsets);
  EXPECT_EQ(r1->ci_tests, r8->ci_tests);
}

TEST(ThreadDeterminismTest, FciIdenticalAtAnyThreadCount) {
  const auto cols = WideChainData(8, 800, 47);
  stats::NumericDataset ds;
  ds.columns = cdi::SpansOf(cols);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < cols.size(); ++v) {
    names.push_back("v" + std::to_string(v));
  }
  FciOptions serial;
  serial.num_threads = 1;
  FciOptions parallel = serial;
  parallel.num_threads = 8;
  auto t1 = FisherZTest::Create(ds);
  auto t8 = FisherZTest::Create(ds);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t8.ok());
  auto r1 = RunFci(**t1, names, serial);
  auto r8 = RunFci(**t8, names, parallel);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(r1->graph.ToDirectedClaims(), r8->graph.ToDirectedClaims());
  EXPECT_EQ(r1->ci_tests, r8->ci_tests);
}

TEST(ThreadDeterminismTest, GesIdenticalAtAnyThreadCount) {
  const auto cols = WideChainData(8, 800, 53);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < cols.size(); ++v) {
    names.push_back("v" + std::to_string(v));
  }
  GesOptions serial;
  serial.num_threads = 1;
  GesOptions parallel = serial;
  parallel.num_threads = 8;
  auto r1 = RunGes(cdi::SpansOf(cols), names, serial);
  auto r8 = RunGes(cdi::SpansOf(cols), names, parallel);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(r1->dag.Edges(), r8->dag.Edges());
  EXPECT_EQ(r1->bic, r8->bic);  // exact: same scores, same trajectory
  EXPECT_EQ(r1->forward_steps, r8->forward_steps);
  EXPECT_EQ(r1->backward_steps, r8->backward_steps);
}

TEST(ThreadDeterminismTest, RunDiscoveryIdenticalAtAnyThreadCount) {
  const auto cols = WideChainData(7, 700, 59);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < cols.size(); ++v) {
    names.push_back("v" + std::to_string(v));
  }
  for (auto alg : {Algorithm::kPc, Algorithm::kFci}) {
    DiscoveryOptions serial;
    serial.num_threads = 1;
    DiscoveryOptions parallel = serial;
    parallel.num_threads = 4;
    auto a = RunDiscovery(cdi::SpansOf(cols), names, alg, serial);
    auto b = RunDiscovery(cdi::SpansOf(cols), names, alg, parallel);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->claims, b->claims);
    EXPECT_EQ(a->definite, b->definite);
    EXPECT_EQ(a->ci_tests, b->ci_tests);
  }
}

// ------------------------------------- FisherZTest vs the reference

/// Fisher-z test answered by testing::ReferencePartialCorrelation — the
/// allocate-per-query Submatrix + Cholesky formulation whose bits
/// FisherZTest's packed factor must reproduce.
class ReferenceFisherZTest : public CiTest {
 public:
  ReferenceFisherZTest(stats::Matrix corr, std::size_t n)
      : corr_(std::move(corr)), n_(n) {}

  std::size_t num_vars() const override { return corr_.rows(); }
  double PValue(std::size_t x, std::size_t y,
                const std::vector<std::size_t>& s) const override {
    ++calls;
    auto r = cdi::testing::ReferencePartialCorrelation(corr_, x, y, s);
    if (!r.ok()) return 1.0;
    return stats::FisherZPValue(*r, n_, s.size());
  }
  double Strength(std::size_t x, std::size_t y,
                  const std::vector<std::size_t>& s) const override {
    auto r = cdi::testing::ReferencePartialCorrelation(corr_, x, y, s);
    return r.ok() ? std::fabs(*r) : 0.0;
  }

 private:
  stats::Matrix corr_;
  std::size_t n_;
};

/// Runs PC over FisherZTest and over the reference test on the same
/// statistics and requires identical output (graph, sepsets, query
/// count). The contract is bitwise replay, so any divergence is a bug.
void ExpectPcMatchesReference(const stats::NumericDataset& ds,
                              const std::string& context) {
  auto fisher = FisherZTest::Create(ds);
  ASSERT_TRUE(fisher.ok()) << context;
  const ReferenceFisherZTest reference((*fisher)->correlation(),
                                       (*fisher)->sample_size());
  std::vector<std::string> names;
  for (std::size_t v = 0; v < (*fisher)->num_vars(); ++v) {
    names.push_back("v" + std::to_string(v));
  }
  PcOptions options;
  auto rf = RunPc(**fisher, names, options);
  auto rr = RunPc(reference, names, options);
  ASSERT_TRUE(rf.ok()) << context;
  ASSERT_TRUE(rr.ok()) << context;
  EXPECT_EQ(rf->graph.DirectedEdges(), rr->graph.DirectedEdges()) << context;
  EXPECT_EQ(rf->graph.UndirectedEdges(), rr->graph.UndirectedEdges())
      << context;
  EXPECT_EQ(rf->sepsets, rr->sepsets) << context;
  EXPECT_EQ(rf->ci_tests, rr->ci_tests) << context;
}

TEST(FisherZReferenceTest, PcMatchesReferenceOnScenarioData) {
  for (const auto& spec : {datagen::CovidSpec(), datagen::FlightsSpec()}) {
    auto scenario = datagen::BuildScenario(spec);
    ASSERT_TRUE(scenario.ok());
    stats::NumericDataset ds;
    for (const auto& [name, col] : (*scenario)->clean_data) {
      ds.columns.emplace_back(cdi::DoubleSpan::Borrow(col.data(),
                                                      col.size()));
    }
    ExpectPcMatchesReference(ds, spec.name);
  }
}

TEST(FisherZReferenceTest, PcMatchesReferenceAcrossFuzzSeeds) {
  // 200 random linear-Gaussian problems, with NaN-masked rows on half of
  // them so the statistics path with listwise deletion is covered too.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(1000 + seed);
    const std::size_t vars = 4 + seed % 4;
    const std::size_t n = 200 + 10 * (seed % 7);
    std::vector<std::vector<double>> cols(vars, std::vector<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t v = 0; v < vars; ++v) {
        double x = rng.Normal();
        // Each variable leans on up to two random earlier ones.
        for (int e = 0; e < 2 && v > 0; ++e) {
          const std::size_t parent = rng.UniformInt(v);
          x += (0.3 + rng.Uniform() * 0.6) * cols[parent][i];
        }
        cols[v][i] = x;
      }
    }
    if (seed % 2 == 1) {
      for (std::size_t v = 0; v < vars; ++v) {
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.Uniform() < 0.01) {
            cols[v][i] = std::numeric_limits<double>::quiet_NaN();
          }
        }
      }
    }
    stats::NumericDataset ds;
    ds.columns = cdi::SpansOf(cols);
    ExpectPcMatchesReference(ds, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace cdi::discovery
