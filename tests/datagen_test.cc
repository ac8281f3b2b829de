#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "datagen/scenario.h"
#include "datagen/scm.h"
#include "discovery/discovery.h"
#include "stats/descriptive.h"
#include "table/csv.h"

namespace cdi::datagen {
namespace {

/// Excess kurtosis m4 / m2^2 - 3 (population moments) of a sample: 0 for
/// a Gaussian, -1.2 for a uniform, 3 for a Laplace.
double ExcessKurtosis(const std::vector<double>& x) {
  const double m = stats::Mean(x);
  double m2 = 0, m4 = 0;
  for (double xi : x) {
    const double d2 = (xi - m) * (xi - m);
    m2 += d2;
    m4 += d2 * d2;
  }
  m2 /= static_cast<double>(x.size());
  m4 /= static_cast<double>(x.size());
  return m4 / (m2 * m2) - 3.0;
}

TEST(ExcessKurtosisTest, KnownDistributions) {
  Rng rng(99);
  std::vector<double> x(50000);
  for (auto& v : x) v = rng.Normal();
  EXPECT_NEAR(ExcessKurtosis(x), 0.0, 0.1);
  for (auto& v : x) v = rng.Laplace(1.0);
  EXPECT_NEAR(ExcessKurtosis(x), 3.0, 0.4);
}

// ------------------------------------------------------------------- Scm

TEST(ScmTest, TopologicalDeclarationEnforced) {
  Scm scm;
  ScmNodeSpec bad;
  bad.name = "child";
  bad.parents = {{"missing", 0.5}};
  EXPECT_FALSE(scm.AddNode(bad).ok());
  ScmNodeSpec a;
  a.name = "a";
  EXPECT_TRUE(scm.AddNode(a).ok());
  EXPECT_FALSE(scm.AddNode(a).ok());  // duplicate
}

TEST(ScmTest, LinearMechanismRecoverable) {
  Scm scm;
  ScmNodeSpec a;
  a.name = "a";
  a.noise_scale = 1.0;
  CDI_CHECK(scm.AddNode(a).ok());
  ScmNodeSpec b;
  b.name = "b";
  b.parents = {{"a", 0.7}};
  b.noise_scale = 0.5;
  CDI_CHECK(scm.AddNode(b).ok());
  Rng rng(1);
  auto data = scm.Generate(20000, &rng);
  ASSERT_TRUE(data.ok());
  // Regression slope of b on a recovers the structural coefficient.
  const auto& av = data->at("a");
  const auto& bv = data->at("b");
  const double slope = stats::PearsonCorrelation(av, bv) *
                       stats::StdDev(bv) / stats::StdDev(av);
  EXPECT_NEAR(slope, 0.7, 0.03);
}

TEST(ScmTest, ExposureCodeUnitVariance) {
  Scm scm;
  ScmNodeSpec t;
  t.name = "t";
  t.is_exposure_code = true;
  CDI_CHECK(scm.AddNode(t).ok());
  Rng rng(2);
  auto data = scm.Generate(1000, &rng);
  ASSERT_TRUE(data.ok());
  EXPECT_NEAR(stats::Mean(data->at("t")), 0.0, 1e-9);
  EXPECT_NEAR(stats::Variance(data->at("t")), 1.0, 0.01);
}

TEST(ScmTest, GaussianCodeHasGaussianShape) {
  Scm scm;
  ScmNodeSpec t;
  t.name = "t";
  t.is_exposure_code = true;
  t.gaussian_code = true;
  CDI_CHECK(scm.AddNode(t).ok());
  Rng rng(3);
  auto data = scm.Generate(5000, &rng);
  ASSERT_TRUE(data.ok());
  EXPECT_NEAR(ExcessKurtosis(data->at("t")), 0.0, 0.1);
  // Uniform code has negative excess kurtosis (-1.2).
  Scm scm2;
  t.gaussian_code = false;
  CDI_CHECK(scm2.AddNode(t).ok());
  auto data2 = scm2.Generate(5000, &rng);
  EXPECT_NEAR(ExcessKurtosis(data2->at("t")), -1.2, 0.1);
}

TEST(ScmTest, QuadraticParentInvisibleToPearson) {
  Scm scm;
  ScmNodeSpec a;
  a.name = "a";
  CDI_CHECK(scm.AddNode(a).ok());
  ScmNodeSpec b;
  b.name = "b";
  b.quad_parents = {{"a", 0.6}};
  b.noise_scale = 0.5;
  CDI_CHECK(scm.AddNode(b).ok());
  Rng rng(4);
  auto data = scm.Generate(8000, &rng);
  ASSERT_TRUE(data.ok());
  EXPECT_LT(std::fabs(stats::PearsonCorrelation(data->at("a"),
                                                data->at("b"))),
            0.05);
  // But a^2 correlates strongly.
  std::vector<double> a2(8000);
  for (int i = 0; i < 8000; ++i) a2[i] = data->at("a")[i] * data->at("a")[i];
  EXPECT_GT(stats::PearsonCorrelation(a2, data->at("b")), 0.5);
  // The edge appears in the DAG.
  EXPECT_TRUE(scm.dag().HasEdge("a", "b"));
}

TEST(ScmTest, DeterministicGivenSeed) {
  auto make = [] {
    Scm scm;
    ScmNodeSpec a;
    a.name = "a";
    CDI_CHECK(scm.AddNode(a).ok());
    return scm;
  };
  Rng r1(9), r2(9);
  auto d1 = make().Generate(100, &r1);
  auto d2 = make().Generate(100, &r2);
  EXPECT_EQ(d1->at("a"), d2->at("a"));
}

TEST(ScmTest, NoiseKindsHaveRightTails) {
  for (NoiseKind kind :
       {NoiseKind::kGaussian, NoiseKind::kLaplace, NoiseKind::kUniform}) {
    Scm scm;
    ScmNodeSpec a;
    a.name = "a";
    a.noise = kind;
    CDI_CHECK(scm.AddNode(a).ok());
    Rng rng(11);
    auto data = scm.Generate(30000, &rng);
    const double kurt = ExcessKurtosis(data->at("a"));
    if (kind == NoiseKind::kGaussian) {
      EXPECT_NEAR(kurt, 0.0, 0.15);
    } else if (kind == NoiseKind::kLaplace) {
      EXPECT_GT(kurt, 1.5);
    } else {
      EXPECT_LT(kurt, -0.8);
    }
    // All normalized to (roughly) unit variance.
    EXPECT_NEAR(stats::Variance(data->at("a")), 1.0, 0.05);
  }
}

// -------------------------------------------------------------- Scenario

TEST(ScenarioTest, ValidationRejectsBadSpecs) {
  ScenarioSpec spec;
  EXPECT_FALSE(BuildScenario(spec).ok());  // no clusters

  spec = CovidSpec();
  spec.num_entities = 5;
  EXPECT_FALSE(BuildScenario(spec).ok());  // too few entities

  spec = CovidSpec();
  std::swap(spec.clusters[0], spec.clusters[1]);  // breaks topo order
  EXPECT_FALSE(BuildScenario(spec).ok());
}

TEST(ScenarioTest, CovidMatchesPaperGraphSize) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->cluster_dag.num_nodes(), 11u);  // paper: |V| = 11
  EXPECT_EQ((*s)->cluster_dag.num_edges(), 23u);  // paper: |E| = 23
  EXPECT_TRUE((*s)->cluster_dag.IsAcyclic());
}

TEST(ScenarioTest, FlightsMatchesPaperGraphSize) {
  auto s = BuildScenario(FlightsSpec());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->cluster_dag.num_nodes(), 9u);   // paper: |V| = 9
  EXPECT_EQ((*s)->cluster_dag.num_edges(), 17u);  // paper: |E| = 17
  EXPECT_TRUE((*s)->cluster_dag.IsAcyclic());
}

TEST(ScenarioTest, DirectEffectIsZeroByConstruction) {
  // The defining property of both scenarios: no direct exposure -> outcome
  // edge; the effect is fully mediated.
  for (auto spec : {CovidSpec(), FlightsSpec()}) {
    auto s = BuildScenario(spec);
    ASSERT_TRUE(s.ok());
    EXPECT_FALSE((*s)->cluster_dag.HasEdge(spec.exposure_cluster,
                                           spec.outcome_cluster));
    // But there is at least one mediated path.
    auto t = (*s)->cluster_dag.NodeIdOf(spec.exposure_cluster);
    auto o = (*s)->cluster_dag.NodeIdOf(spec.outcome_cluster);
    EXPECT_TRUE((*s)->cluster_dag.HasDirectedPath(*t, *o));
  }
}

TEST(ScenarioTest, InputTableShape) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  const auto& t = (*s)->input_table;
  EXPECT_EQ(t.num_rows(), CovidSpec().num_entities);
  EXPECT_TRUE(t.HasColumn("country"));
  EXPECT_TRUE(t.HasColumn("country_code"));
  EXPECT_TRUE(t.HasColumn("covid_death_rate"));
  EXPECT_TRUE(t.HasColumn("confirmed_cases"));
  // Most attributes are NOT in the input table (they must be mined).
  EXPECT_FALSE(t.HasColumn("avg_temp"));
  EXPECT_FALSE(t.HasColumn("pop_size"));
}

TEST(ScenarioTest, EntityAliasesUsedInInputTable) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  const auto* col = *(*s)->input_table.GetColumn("country");
  std::size_t canonical = 0, alias = 0;
  for (std::size_t r = 0; r < col->size(); ++r) {
    const std::string& v = col->StringAt(r);
    if (v == (*s)->entity_names[r]) {
      ++canonical;
    } else {
      ++alias;
    }
  }
  EXPECT_GT(canonical, 0u);
  EXPECT_GT(alias, 0u);  // value-mismatch challenge is actually present
}

TEST(ScenarioTest, KnowledgeGraphHoldsKgAttributes) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  const auto& kg = (*s)->kg;
  EXPECT_TRUE(kg.HasEntity((*s)->entity_names[0]));
  auto temp = kg.GetLiteral((*s)->entity_names[0], "avg_temp");
  EXPECT_TRUE(temp.ok());
  // FD attribute present in the KG (the organizer must drop it later).
  EXPECT_TRUE(
      kg.GetLiteral((*s)->entity_names[0], "head_of_government").ok());
  // Link following target exists.
  auto capital = kg.GetLink((*s)->entity_names[0], "capital");
  ASSERT_TRUE(capital.ok());
  EXPECT_TRUE(kg.GetLiteral(*capital, "capital_elevation").ok());
}

TEST(ScenarioTest, LakeTablesWithDecoy) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  const auto& lake = (*s)->lake;
  EXPECT_GE(lake.num_tables(), 5u);
  bool has_decoy = false;
  for (const auto& t : lake.tables()) {
    if (t.name() == "unrelated_products") has_decoy = true;
  }
  EXPECT_TRUE(has_decoy);
}

TEST(ScenarioTest, OneToManyTableHasMultipleRowsPerEntity) {
  auto spec = CovidSpec();
  auto s = BuildScenario(spec);
  ASSERT_TRUE(s.ok());
  for (const auto& t : (*s)->lake.tables()) {
    if (t.name() != "mobility_report") continue;
    EXPECT_GE(t.num_rows(), spec.num_entities * 3);
    return;
  }
  FAIL() << "mobility_report table missing";
}

TEST(ScenarioTest, MnarMissingnessInjected) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  // precipitation has MNAR missingness: some entities lack the property.
  std::size_t missing = 0;
  for (const auto& e : (*s)->entity_names) {
    if (!(*s)->kg.GetLiteral(e, "precipitation").ok()) ++missing;
  }
  EXPECT_GT(missing, 10u);
  EXPECT_LT(missing, (*s)->entity_names.size() / 2);
}

TEST(ScenarioTest, MissingnessIsNotAtRandom) {
  // Rows whose precipitation got dropped have *higher* clean values.
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  const auto& clean = (*s)->clean_data.at("precipitation");
  std::vector<double> observed_vals, missing_vals;
  for (std::size_t i = 0; i < (*s)->entity_names.size(); ++i) {
    if ((*s)->kg.GetLiteral((*s)->entity_names[i], "precipitation").ok()) {
      observed_vals.push_back(clean[i]);
    } else {
      missing_vals.push_back(clean[i]);
    }
  }
  EXPECT_GT(stats::Mean(missing_vals), stats::Mean(observed_vals));
}

TEST(ScenarioTest, DeterministicAcrossBuilds) {
  auto a = BuildScenario(CovidSpec());
  auto b = BuildScenario(CovidSpec());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->clean_data.at("covid_death_rate"),
            (*b)->clean_data.at("covid_death_rate"));
  EXPECT_TRUE((*a)->cluster_dag == (*b)->cluster_dag);
}

TEST(ScenarioTest, SeedChangesData) {
  auto spec = CovidSpec();
  auto a = BuildScenario(spec);
  spec.seed += 1;
  auto b = BuildScenario(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->clean_data.at("covid_death_rate"),
            (*b)->clean_data.at("covid_death_rate"));
}

TEST(ScenarioTest, AttributeDagConsistentWithClusterDag) {
  auto s = BuildScenario(FlightsSpec());
  ASSERT_TRUE(s.ok());
  // Every cluster edge is realized as (parent driver -> child driver).
  for (const auto& [u, v] : (*s)->cluster_dag.Edges()) {
    const auto& pu = (*s)->cluster_members.at(
        (*s)->cluster_dag.NodeName(u))[0];
    const auto& pv = (*s)->cluster_members.at(
        (*s)->cluster_dag.NodeName(v))[0];
    EXPECT_TRUE((*s)->attribute_dag.HasEdge(pu, pv))
        << pu << " -> " << pv;
  }
  // Members hang off their driver.
  for (const auto& [cluster, members] : (*s)->cluster_members) {
    for (std::size_t m = 1; m < members.size(); ++m) {
      EXPECT_TRUE((*s)->attribute_dag.HasEdge(members[0], members[m]));
    }
  }
  EXPECT_TRUE((*s)->attribute_dag.IsAcyclic());
}

TEST(ScenarioTest, OracleKnowsClusterRelations) {
  auto s = BuildScenario(CovidSpec());
  ASSERT_TRUE(s.ok());
  // The oracle should affirm the vast majority of true direct edges.
  std::size_t affirmed = 0;
  for (const auto& [u, v] : (*s)->cluster_dag.Edges()) {
    if ((*s)->oracle->DoesCause((*s)->cluster_dag.NodeName(u),
                                (*s)->cluster_dag.NodeName(v))) {
      ++affirmed;
    }
  }
  EXPECT_GE(affirmed, 21u);  // 23 edges, direct_recall = 0.99
  // And it resolves attribute aliases to concepts.
  EXPECT_TRUE((*s)->oracle->DoesCause("confirmed_cases",
                                      "covid_death_rate") ||
              (*s)->oracle->DoesCause("spread", "death_rate"));
}

// --------------------------------------------------------- seed stability

/// Flat deterministic rendering of everything a scenario materializes:
/// input table, every lake table, and both ground-truth DAGs.
std::string Fingerprint(const Scenario& s) {
  std::string out = table::WriteCsvString(s.input_table);
  for (const auto& t : s.lake.tables()) {
    out += "\n--" + t.name() + "\n" + table::WriteCsvString(t);
  }
  out += "\n--cluster-dag\n";
  for (const auto& [u, v] : s.cluster_dag.Edges()) {
    out += s.cluster_dag.NodeName(u) + ">" + s.cluster_dag.NodeName(v) +
           ";";
  }
  out += "\n--attribute-dag\n";
  for (const auto& [u, v] : s.attribute_dag.Edges()) {
    out += s.attribute_dag.NodeName(u) + ">" + s.attribute_dag.NodeName(v) +
           ";";
  }
  return out;
}

/// Same seed must give bitwise-identical tables and ground truth, and the
/// rebuild must be immune to unrelated parallel work in between: the
/// discovery engine's thread pool must not leak nondeterminism (thread-
/// local RNG state, allocation order) into scenario materialization.
void ExpectRebuildStable(const ScenarioSpec& spec) {
  auto first = BuildScenario(spec);
  ASSERT_TRUE(first.ok());
  const std::string before = Fingerprint(**first);

  // Exercise the parallel CI engine between the two builds.
  std::vector<std::vector<double>> columns;
  std::vector<std::string> names;
  for (const auto& [name, col] : (*first)->clean_data) {
    names.push_back(name);
    columns.push_back(col);
    if (columns.size() == 6) break;
  }
  discovery::DiscoveryOptions d;
  d.num_threads = 8;
  d.max_cond_size = 1;
  ASSERT_TRUE(discovery::RunDiscovery(SpansOf(columns), names,
                                      discovery::Algorithm::kPc, d)
                  .ok());

  auto second = BuildScenario(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(before, Fingerprint(**second));
  EXPECT_TRUE((*first)->cluster_dag == (*second)->cluster_dag);
  EXPECT_TRUE((*first)->attribute_dag == (*second)->attribute_dag);
}

TEST(SeedStabilityTest, CovidRebuildsBitwiseIdentical) {
  ExpectRebuildStable(CovidSpec());
}

TEST(SeedStabilityTest, FlightsRebuildsBitwiseIdentical) {
  ExpectRebuildStable(FlightsSpec());
}

TEST(SeedStabilityTest, SeedChangesTheData) {
  ScenarioSpec spec = CovidSpec();
  auto a = BuildScenario(spec);
  spec.seed += 1;
  auto b = BuildScenario(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(table::WriteCsvString((*a)->input_table),
            table::WriteCsvString((*b)->input_table));
}

// --------------------------------------------------------- scenario grid

TEST(ScenarioGridTest, EnumerationIsDeterministicRowMajorAndUnique) {
  const auto cells = EnumerateGrid(ScenarioGridSpec{});
  EXPECT_EQ(cells.size(), 216u);  // 2*2*2*3*3*3
  // Row-major axis order: clusters outermost, oracle noise innermost.
  EXPECT_EQ(GridCellName(cells[0]), "grid_c4_lin_cont_m0_p1_o0");
  EXPECT_EQ(GridCellName(cells[1]), "grid_c4_lin_cont_m0_p1_o1");
  EXPECT_EQ(GridCellName(cells[3]), "grid_c4_lin_cont_m0_p2_o0");
  EXPECT_EQ(GridCellName(cells.back()), "grid_c6_quad_bin_m2_p3_o2");
  std::set<std::string> names;
  for (const auto& cell : cells) names.insert(GridCellName(cell));
  EXPECT_EQ(names.size(), cells.size());
  // Invalid axis values are skipped, not enumerated.
  ScenarioGridSpec sparse;
  sparse.cluster_counts = {2, 5};  // 2 < exposure + mediator + outcome
  EXPECT_EQ(EnumerateGrid(sparse).size(), 108u);
}

TEST(ScenarioGridTest, NameSpecNameRoundTripsAcross100Cells) {
  const auto cells = EnumerateGrid(ScenarioGridSpec{});
  ASSERT_GE(cells.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    const std::string name = GridCellName(cells[i]);
    auto parsed = ParseGridCellName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(parsed->clusters, cells[i].clusters) << name;
    EXPECT_EQ(parsed->nonlinear, cells[i].nonlinear) << name;
    EXPECT_EQ(parsed->binary_outcome, cells[i].binary_outcome) << name;
    EXPECT_EQ(parsed->mnar_level, cells[i].mnar_level) << name;
    EXPECT_EQ(parsed->attrs_per_cluster, cells[i].attrs_per_cluster) << name;
    EXPECT_EQ(parsed->oracle_noise, cells[i].oracle_noise) << name;
    EXPECT_EQ(GridCellName(*parsed), name);
  }
}

TEST(ScenarioGridTest, RejectsNonCanonicalNames) {
  const char* bad[] = {
      "",
      "grid",
      "grid_c4_lin_cont_m0_p1",       // missing axis
      "grid_c4_lin_cont_m0_p1_o0_x",  // trailing token
      "grid_c04_lin_cont_m0_p1_o0",   // non-canonical zero padding
      "grid_c2_lin_cont_m0_p1_o0",    // clusters below the floor
      "grid_c4_cubic_cont_m0_p1_o0",  // unknown mechanism
      "grid_c4_lin_cont_m3_p1_o0",    // MNAR level out of range
      "grid_c4_lin_cont_m0_p0_o0",    // split below 1
      "grid_c4_lin_cont_m0_p1_o9",    // oracle noise out of range
  };
  for (const char* name : bad) {
    EXPECT_FALSE(ParseGridCellName(name).ok()) << name;
  }
}

TEST(ScenarioGridTest, CellsRebuildBitwiseAcrossRunsAndThreads) {
  const std::string cell = "grid_c4_quad_bin_m1_p2_o1";
  auto first = BuildGridScenario(cell, 80);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string want = Fingerprint(**first);

  // Concurrent rebuilds (the serving layer re-registers evicted grid
  // scenarios from racing client threads) must all be bit-identical.
  std::vector<std::string> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      auto rebuilt = BuildGridScenario(cell, 80);
      if (rebuilt.ok()) got[t] = Fingerprint(**rebuilt);
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& fp : got) EXPECT_EQ(fp, want);
}

TEST(ScenarioGridTest, NeighboringCellsProduceDistinctData) {
  // Vary one axis at a time off a base cell: every variant must differ
  // from the base and from each other.
  const char* cells[] = {
      "grid_c4_lin_cont_m0_p1_o0", "grid_c6_lin_cont_m0_p1_o0",
      "grid_c4_quad_cont_m0_p1_o0", "grid_c4_lin_bin_m0_p1_o0",
      "grid_c4_lin_cont_m1_p1_o0", "grid_c4_lin_cont_m0_p2_o0",
  };
  std::set<std::string> fingerprints;
  for (const char* cell : cells) {
    auto built = BuildGridScenario(cell, 80);
    ASSERT_TRUE(built.ok()) << cell << ": " << built.status().ToString();
    fingerprints.insert(Fingerprint(**built));
  }
  EXPECT_EQ(fingerprints.size(), std::size(cells));
  // Distinct base seeds also change the data of the same cell.
  auto reseeded = BuildGridScenario(cells[0], 80, /*seed=*/9002);
  ASSERT_TRUE(reseeded.ok());
  EXPECT_EQ(fingerprints.count(Fingerprint(**reseeded)), 0u);
}

TEST(ScenarioGridTest, BinaryOutcomeCellsBinarizeTheOutcomeDriver) {
  auto built = BuildGridScenario("grid_c4_lin_bin_m0_p1_o0", 80);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto col = (*built)->input_table.GetColumn("outcome_score");
  ASSERT_TRUE(col.ok());
  bool saw_zero = false, saw_one = false;
  for (std::size_t r = 0; r < (*col)->size(); ++r) {
    const double v = (*col)->NumericAt(r);
    if (std::isnan(v)) continue;
    EXPECT_TRUE(v == 0.0 || v == 1.0) << "row " << r << " = " << v;
    saw_zero |= v == 0.0;
    saw_one |= v == 1.0;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_one);
  // Ground truth stays continuous: the logistic draw rides on top of the
  // clean structural value, it does not replace it.
  const auto clean = (*built)->clean_data.find("outcome_score");
  ASSERT_NE(clean, (*built)->clean_data.end());
  bool clean_nonbinary = false;
  for (const double v : clean->second) {
    if (!std::isnan(v) && v != 0.0 && v != 1.0) clean_nonbinary = true;
  }
  EXPECT_TRUE(clean_nonbinary);
}

}  // namespace
}  // namespace cdi::datagen
