#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/rng.h"
#include "core/cdag.h"
#include "core/data_organizer.h"
#include "core/effect.h"
#include "core/evaluation.h"
#include "core/identifiability.h"
#include "core/knowledge_extractor.h"
#include "core/varclus.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "datagen/scenario.h"
#include "stats/descriptive.h"
#include "testing/reference.h"

namespace cdi::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ----------------------------------------------------------------VarClus

/// Three blocks of correlated variables plus block-level cross noise.
std::vector<std::vector<double>> BlockData(std::size_t n, uint64_t seed,
                                           std::vector<std::string>* names) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols;
  *names = {"a1", "a2", "a3", "b1", "b2", "c1", "c2"};
  std::vector<double> fa(n), fb(n), fc(n);
  for (std::size_t i = 0; i < n; ++i) {
    fa[i] = rng.Normal();
    fb[i] = 0.3 * fa[i] + rng.Normal();
    fc[i] = rng.Normal();
  }
  auto member = [&](const std::vector<double>& f, double loading) {
    std::vector<double> m(n);
    for (std::size_t i = 0; i < n; ++i) {
      m[i] = loading * f[i] + 0.4 * rng.Normal();
    }
    return m;
  };
  cols.push_back(member(fa, 1.0));
  cols.push_back(member(fa, 0.9));
  cols.push_back(member(fa, -0.8));  // negative loading
  cols.push_back(member(fb, 1.0));
  cols.push_back(member(fb, 0.9));
  cols.push_back(member(fc, 1.0));
  cols.push_back(member(fc, 0.9));
  return cols;
}

TEST(VarClusTest, RecoversBlockStructure) {
  std::vector<std::string> names;
  auto cols = BlockData(1500, 5, &names);
  VarClusOptions options;
  options.min_clusters = 3;
  options.max_clusters = 3;
  auto result = RunVarClus(cdi::SpansOf(cols), names, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->clusters.size(), 3u);
  // Find the cluster containing a1; it must contain exactly {a1,a2,a3}.
  for (const auto& cluster : result->clusters) {
    if (std::find(cluster.begin(), cluster.end(), "a1") == cluster.end()) {
      continue;
    }
    EXPECT_EQ(cluster.size(), 3u);
    EXPECT_NE(std::find(cluster.begin(), cluster.end(), "a3"),
              cluster.end());
  }
}

TEST(VarClusTest, ThresholdStopsSplitting) {
  std::vector<std::string> names;
  auto cols = BlockData(1500, 7, &names);
  VarClusOptions options;
  options.second_eigenvalue_threshold = 100.0;  // never split
  auto result = RunVarClus(cdi::SpansOf(cols), names, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clusters.size(), 1u);
}

TEST(VarClusTest, MaxClustersCap) {
  std::vector<std::string> names;
  auto cols = BlockData(800, 9, &names);
  VarClusOptions options;
  options.second_eigenvalue_threshold = 0.0;  // split forever...
  options.max_clusters = 2;                   // ...but capped
  auto result = RunVarClus(cdi::SpansOf(cols), names, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clusters.size(), 2u);
}

TEST(VarClusTest, SingletonInput) {
  auto result = RunVarClus({{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}}, {"only"});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->clusters.size(), 1u);
  EXPECT_EQ(result->clusters[0][0], "only");
}

TEST(VarClusTest, AllVariablesAssignedExactlyOnce) {
  std::vector<std::string> names;
  auto cols = BlockData(1000, 11, &names);
  for (int k = 1; k <= 5; ++k) {
    VarClusOptions options;
    options.min_clusters = k;
    options.max_clusters = k;
    auto result = RunVarClus(cdi::SpansOf(cols), names, options);
    ASSERT_TRUE(result.ok());
    std::size_t total = 0;
    std::set<std::string> seen;
    for (const auto& c : result->clusters) {
      total += c.size();
      seen.insert(c.begin(), c.end());
    }
    EXPECT_EQ(total, names.size()) << "k=" << k;
    EXPECT_EQ(seen.size(), names.size()) << "k=" << k;
  }
}

// ------------------------------------------------------------- ClusterDag

Result<ClusterDag> MakeCdag() {
  std::map<std::string, std::vector<std::string>> members = {
      {"t", {"exposure"}},
      {"o", {"outcome"}},
      {"med", {"m1", "m2"}},
      {"conf", {"z1"}},
      {"other", {"x1"}},
  };
  auto cdag = ClusterDag::Create(members, "t", "o");
  if (!cdag.ok()) return cdag;
  CDI_CHECK(cdag->mutable_graph().AddEdge("conf", "t").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("conf", "o").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("t", "med").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("med", "o").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("other", "conf").ok());
  return cdag;
}

TEST(ClusterDagTest, CreateValidations) {
  std::map<std::string, std::vector<std::string>> members = {
      {"t", {"e1", "e2"}}, {"o", {"out"}}};
  EXPECT_FALSE(ClusterDag::Create(members, "t", "o").ok());  // not singleton
  members["t"] = {"e1"};
  EXPECT_TRUE(ClusterDag::Create(members, "t", "o").ok());
  EXPECT_FALSE(ClusterDag::Create(members, "zz", "o").ok());
  members["dup"] = {"e1"};  // attribute in two clusters
  EXPECT_FALSE(ClusterDag::Create(members, "t", "o").ok());
}

TEST(ClusterDagTest, LookupsAndIdentification) {
  auto cdag = MakeCdag();
  ASSERT_TRUE(cdag.ok());
  EXPECT_EQ(cdag->exposure_attribute(), "exposure");
  EXPECT_EQ(cdag->outcome_attribute(), "outcome");
  EXPECT_EQ(*cdag->ClusterOf("m2"), "med");
  EXPECT_FALSE(cdag->ClusterOf("nope").ok());
  EXPECT_EQ(cdag->MembersOf("med")->size(), 2u);

  const auto meds = cdag->MediatorClusters();
  EXPECT_EQ(meds.size(), 1u);
  EXPECT_TRUE(meds.count("med"));
  const auto confs = cdag->ConfounderClusters();
  EXPECT_EQ(confs.size(), 2u);  // conf and its ancestor "other"
  EXPECT_TRUE(confs.count("conf"));
}

TEST(ClusterDagTest, AdjustmentAttributeSets) {
  auto cdag = MakeCdag();
  ASSERT_TRUE(cdag.ok());
  const auto direct = cdag->DirectEffectAdjustmentAttributes();
  EXPECT_EQ(direct.size(), 4u);  // m1, m2, z1, x1
  const auto total = cdag->TotalEffectAdjustmentAttributes();
  EXPECT_EQ(total.size(), 2u);  // z1, x1
}

TEST(ClusterDagTest, WorksOnCyclicClaimGraphs) {
  std::map<std::string, std::vector<std::string>> members = {
      {"t", {"e"}}, {"o", {"y"}}, {"m", {"m1"}}};
  auto cdag = ClusterDag::Create(members, "t", "o");
  ASSERT_TRUE(cdag.ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("t", "m").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("m", "t").ok());  // 2-cycle
  CDI_CHECK(cdag->mutable_graph().AddEdge("m", "o").ok());
  const auto meds = cdag->MediatorClusters();
  EXPECT_TRUE(meds.count("m"));
}

// -------------------------------------------------------------- HoldsFd

TEST(HoldsFdTest, DetectsExactDependency) {
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "state", {"MA", "MA", "FL", "CA"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "governor", {"Healey", "Healey", "DeSantis",
                                         "Newsom"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                            "city", {"Boston", "Springfield", "Miami",
                                     "LA"}))
                .ok());
  EXPECT_TRUE(*HoldsFd(t, "state", "governor"));
  EXPECT_TRUE(*HoldsFd(t, "governor", "state"));
  EXPECT_FALSE(*HoldsFd(t, "state", "city"));
  EXPECT_TRUE(*HoldsFd(t, "city", "state"));
}

// Two exposures that agree to ten significant digits render alike under
// Value::ToString's %.10g, but they are two values: one string value over
// both does not pin the exposure down.
TEST(HoldsFdTest, ExposuresEqualToTenDigitsStayDistinct) {
  const double a = 0.123456789012;
  const double b = 0.123456789034;
  ASSERT_EQ(table::Value(a).ToString(), table::Value(b).ToString());
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("state", {"MA", "MA"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("near", {a, b})).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("same", {a, a})).ok());
  EXPECT_FALSE(*HoldsFd(t, "state", "near"));
  EXPECT_TRUE(*HoldsFd(t, "state", "same"));
}

// Two int64 exposures above 2^53 widen to one double, but they are two
// values: one string value over both does not pin the exposure down.
TEST(HoldsFdTest, Int64ExposuresAbove2To53StayDistinct) {
  const int64_t a = int64_t{1} << 53;
  const int64_t b = a + 1;
  ASSERT_EQ(static_cast<double>(a), static_cast<double>(b));
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("state", {"MA", "MA"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromInts("near", {a, b})).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromInts("same", {b, b})).ok());
  EXPECT_FALSE(*HoldsFd(t, "state", "near"));
  EXPECT_TRUE(*HoldsFd(t, "state", "same"));
  EXPECT_TRUE(*HoldsFd(t, "near", "state"));
}

// ---------------------------------------------------------- DataOrganizer

table::Table OrganizerInput(std::size_t n, uint64_t seed,
                            std::vector<double>* t_out,
                            std::vector<double>* o_out) {
  Rng rng(seed);
  std::vector<double> tv(n), ov(n), good(n), fd(n), outliered(n);
  std::vector<std::string> entity(n), governor(n);
  for (std::size_t i = 0; i < n; ++i) {
    tv[i] = rng.Normal();
    good[i] = 0.5 * tv[i] + rng.Normal();
    ov[i] = 0.7 * good[i] + rng.Normal();
    fd[i] = 3.0 * tv[i] + 1.0;  // deterministic in the exposure
    outliered[i] = rng.Normal() + (i % 97 == 0 ? 80.0 : 0.0);
    entity[i] = "E" + std::to_string(i);
    governor[i] = "Gov_" + std::to_string(i);
  }
  *t_out = tv;
  *o_out = ov;
  table::Table t("in");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("good", good)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("fd_numeric", fd)).ok());
  CDI_CHECK(
      t.AddColumn(table::Column::FromDoubles("outliered", outliered)).ok());
  CDI_CHECK(
      t.AddColumn(table::Column::FromStrings("governor", governor)).ok());
  return t;
}

TEST(DataOrganizerTest, DropsFunctionalDependencies) {
  std::vector<double> tv, ov;
  auto input = OrganizerInput(300, 3, &tv, &ov);
  DataOrganizer organizer;
  auto result = organizer.Organize(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->organized.HasColumn("fd_numeric"));
  EXPECT_FALSE(result->organized.HasColumn("governor"));
  EXPECT_TRUE(result->organized.HasColumn("good"));
  EXPECT_EQ(result->dropped_fd_attributes.size(), 2u);
}

TEST(DataOrganizerTest, MonotoneNonlinearFdAlsoDropped) {
  // exp(t) is deterministic in t but only Spearman sees r = 1.
  Rng rng(5);
  const std::size_t n = 200;
  std::vector<double> tv(n), ov(n), fd(n);
  std::vector<std::string> entity(n);
  for (std::size_t i = 0; i < n; ++i) {
    tv[i] = rng.Normal();
    ov[i] = rng.Normal();
    fd[i] = std::exp(2.0 * tv[i]);
    entity[i] = "E" + std::to_string(i);
  }
  table::Table t("in");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("fd", fd)).ok());
  DataOrganizer organizer;
  auto result = organizer.Organize(t, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->organized.HasColumn("fd"));
}

TEST(DataOrganizerTest, RemovesDuplicateRows) {
  std::vector<double> tv, ov;
  auto input = OrganizerInput(100, 7, &tv, &ov);
  // Duplicate the table's rows.
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < input.num_rows(); ++r) {
    rows.push_back(r);
    rows.push_back(r);
  }
  table::Table doubled = input.TakeRows(rows);
  DataOrganizer organizer;
  auto result = organizer.Organize(doubled, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->organized.num_rows(), 100u);
  EXPECT_EQ(result->duplicate_rows_removed, 100u);
}

TEST(DataOrganizerTest, WinsorizesOutliers) {
  std::vector<double> tv, ov;
  auto input = OrganizerInput(300, 9, &tv, &ov);
  DataOrganizer organizer;
  auto result = organizer.Organize(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->winsorized_cells.count("outliered"));
  const auto vals =
      (*result->organized.GetColumn("outliered"))->ToDoubles();
  EXPECT_LT(stats::Max(vals), 50.0);  // the 80s are clipped
}

TEST(DataOrganizerTest, OutlierHandlingCanBeDisabled) {
  std::vector<double> tv, ov;
  auto input = OrganizerInput(300, 9, &tv, &ov);
  OrganizerOptions options;
  options.outlier_robust_z = 0.0;
  DataOrganizer organizer(options);
  auto result = organizer.Organize(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->winsorized_cells.empty());
}

TEST(DataOrganizerTest, DiagnosesSelectionBiasAndWeights) {
  Rng rng(11);
  const std::size_t n = 500;
  std::vector<double> tv(n), ov(n), attr(n);
  std::vector<std::string> entity(n);
  for (std::size_t i = 0; i < n; ++i) {
    tv[i] = rng.Normal();
    ov[i] = 0.6 * tv[i] + rng.Normal();
    // Attribute missing preferentially when the outcome is high (MNAR).
    attr[i] = (ov[i] > 0.5 && rng.Bernoulli(0.7)) ? kNaN
                                                  : 0.4 * tv[i] + rng.Normal();
    entity[i] = "E" + std::to_string(i);
  }
  table::Table t("in");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("attr", attr)).ok());
  DataOrganizer organizer;
  auto result = organizer.Organize(t, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->missingness.size(), 1u);
  EXPECT_EQ(result->missingness[0].attribute, "attr");
  EXPECT_TRUE(result->missingness[0].selection_bias_risk);
  EXPECT_LT(result->missingness[0].p_vs_outcome, 0.05);
  // IPW: complete rows with high outcome are rarer -> larger weights.
  double high_w = 0, high_n = 0, low_w = 0, low_n = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(attr[i])) continue;
    if (ov[i] > 0.5) {
      high_w += result->row_weights[i];
      high_n += 1;
    } else {
      low_w += result->row_weights[i];
      low_n += 1;
    }
  }
  EXPECT_GT(high_w / high_n, low_w / low_n);
}

TEST(DataOrganizerTest, NoBiasMeansUnitWeights) {
  std::vector<double> tv, ov;
  auto input = OrganizerInput(300, 13, &tv, &ov);
  DataOrganizer organizer;
  auto result = organizer.Organize(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  for (double w : result->row_weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

// ------------------------------------------ DataOrganizer vs reference

void ExpectSameBits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

/// Same schema, same null bits, same cell bits (NaN payloads included),
/// same byte estimate.
void ExpectSameTable(const table::Table& got, const table::Table& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  ASSERT_EQ(got.num_cols(), want.num_cols()) << what;
  EXPECT_EQ(got.ByteSize(), want.ByteSize()) << what;
  for (std::size_t c = 0; c < got.num_cols(); ++c) {
    const table::Column& a = got.ColumnAt(c);
    const table::Column& b = want.ColumnAt(c);
    const std::string col = what + " column " + b.name();
    EXPECT_EQ(a.name(), b.name()) << col;
    ASSERT_EQ(a.type(), b.type()) << col;
    for (std::size_t r = 0; r < got.num_rows(); ++r) {
      const std::string cell = col + " row " + std::to_string(r);
      ASSERT_EQ(a.IsNull(r), b.IsNull(r)) << cell;
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case table::DataType::kDouble:
          ExpectSameBits(a.NumericAt(r), b.NumericAt(r), cell);
          break;
        case table::DataType::kInt64:
          EXPECT_EQ(a.Get(r).as_int64(), b.Get(r).as_int64()) << cell;
          break;
        case table::DataType::kBool:
          EXPECT_EQ(a.Get(r).as_bool(), b.Get(r).as_bool()) << cell;
          break;
        case table::DataType::kString:
          EXPECT_EQ(a.StringAt(r), b.StringAt(r)) << cell;
          break;
      }
    }
  }
}

void ExpectSameOrganization(const Result<OrganizerResult>& got,
                            const Result<OrganizerResult>& want,
                            const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    return;
  }
  EXPECT_EQ(got->duplicate_rows_removed, want->duplicate_rows_removed)
      << what;
  EXPECT_EQ(got->dropped_fd_attributes, want->dropped_fd_attributes) << what;
  EXPECT_EQ(got->winsorized_cells, want->winsorized_cells) << what;
  ASSERT_EQ(got->missingness.size(), want->missingness.size()) << what;
  for (std::size_t i = 0; i < got->missingness.size(); ++i) {
    const MissingnessReport& a = got->missingness[i];
    const MissingnessReport& b = want->missingness[i];
    const std::string m = what + " missingness " + b.attribute;
    EXPECT_EQ(a.attribute, b.attribute) << m;
    ExpectSameBits(a.missing_fraction, b.missing_fraction, m);
    ExpectSameBits(a.p_vs_exposure, b.p_vs_exposure, m);
    ExpectSameBits(a.p_vs_outcome, b.p_vs_outcome, m);
    EXPECT_EQ(a.selection_bias_risk, b.selection_bias_risk) << m;
  }
  ASSERT_EQ(got->row_weights.size(), want->row_weights.size()) << what;
  for (std::size_t r = 0; r < got->row_weights.size(); ++r) {
    ExpectSameBits(got->row_weights[r], want->row_weights[r],
                   what + " weight " + std::to_string(r));
  }
  ExpectSameTable(got->organized, want->organized, what + " organized");
}

/// A double column whose cells are `v`, null where `nulls` says; a NaN in
/// `v` elsewhere stays a non-null NaN cell with its payload.
table::Column RawDoubles(std::string name, const std::vector<double>& v,
                         const std::vector<bool>& nulls) {
  table::Column c(std::move(name), table::DataType::kDouble);
  for (std::size_t r = 0; r < v.size(); ++r) {
    if (nulls[r]) {
      c.AppendNull();
    } else {
      CDI_CHECK(c.AppendDouble(v[r]).ok());
    }
  }
  return c;
}

/// A seeded table built to exercise every branch of the organizer:
///   - exact duplicate rows, rows that repeat only up to a NaN payload
///     (duplicates: keys canonicalize NaN) and rows that differ only in
///     the sign of a zero (not duplicates);
///   - ties (a half-step grid, an exposure repeated in pairs), nulls,
///     non-null NaN cells, a constant, an all-NaN and (odd seeds) an
///     all-null column,
///     int64 and bool columns;
///   - numeric FDs (linear and monotone), string FDs, and a string column
///     over exposure pairs that differ within ten significant digits;
///   - an outcome with gross outliers and an MNAR-missing attribute.
table::Table OrganizerStressInput(uint64_t seed, std::size_t n) {
  Rng rng(seed);
  const double kPayloadA = std::bit_cast<double>(0x7ff8000000000a11ULL);
  const double kPayloadB = std::bit_cast<double>(0x7ff8000000000b22ULL);
  std::vector<double> t(n), o(n), tied(n), mnar(n), payload(n), zeros(n),
      fd_num(n), mono(n);
  std::vector<bool> t_null(n), mnar_null(n), count_null(n), flag_null(n);
  std::vector<int64_t> count(n);
  std::vector<bool> flag(n);
  std::vector<std::string> entity(n), label(n), pair_exact(n), pair_near(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Exposure pairs: exact copies for i % 4 == 1, within ten digits for
    // i % 4 == 3.
    if (i % 4 == 1) {
      t[i] = t[i - 1];
    } else if (i % 4 == 3) {
      t[i] = t[i - 1] * (1.0 + 3e-13);
    } else {
      t[i] = rng.Normal();
    }
    t_null[i] = i % 4 == 2 && rng.Bernoulli(0.05);
    o[i] = 0.6 * t[i] + rng.Normal() + (i % 41 == 5 ? 60.0 : 0.0);
    tied[i] = std::round(2.0 * rng.Normal()) / 2.0;
    mnar[i] = 0.4 * t[i] + rng.Normal();
    mnar_null[i] = o[i] > 0.5 && rng.Bernoulli(0.7);
    payload[i] = rng.Bernoulli(0.2) ? kPayloadA : rng.Normal();
    const double z[] = {0.0, -0.0, 1.0, 2.0};
    zeros[i] = z[rng.UniformInt(uint64_t{4})];
    fd_num[i] = 3.0 * t[i] + 1.0;
    mono[i] = std::exp(2.0 * t[i]);
    count[i] = static_cast<int64_t>(rng.UniformInt(uint64_t{10}));
    count_null[i] = rng.Bernoulli(0.05);
    flag[i] = rng.Bernoulli(0.5);
    flag_null[i] = rng.Bernoulli(0.05);
    entity[i] = "E" + std::to_string(i);
    label[i] = "L" + std::to_string(i);
    pair_exact[i] = (i / 2) % 2 == 0 ? "P" + std::to_string(i / 2)
                                     : "Q" + std::to_string(i);
    pair_near[i] = "P" + std::to_string(i / 2);
  }
  // Final rows: every base row once, plus repeats, shuffled so a repeat
  // may come before its original. Variant 0 repeats exactly, 1 swaps a
  // NaN payload, 2 flips the sign of a zero.
  std::vector<std::pair<std::size_t, int>> rows;
  for (std::size_t i = 0; i < n; ++i) rows.push_back({i, -1});
  for (std::size_t k = 0; k < n / 8; ++k) {
    const std::size_t i = rng.UniformInt(uint64_t{n});
    rows.push_back({i, 0});
    if (payload[i] != payload[i] || zeros[i] == 0.0) {
      rows.push_back({i, payload[i] != payload[i] ? 1 : 2});
    }
  }
  rng.Shuffle(&rows);
  std::vector<double> col_t, col_o, col_tied, col_mnar, col_payload,
      col_zeros, col_fd, col_mono, col_const, col_all_nan;
  std::vector<bool> null_t, null_mnar, no_null, all_null;
  table::Column col_count("count", table::DataType::kInt64);
  table::Column col_flag("flag", table::DataType::kBool);
  std::vector<std::string> col_entity, col_label, col_pair_exact,
      col_pair_near;
  for (const auto& [i, variant] : rows) {
    col_t.push_back(t[i]);
    null_t.push_back(t_null[i]);
    col_o.push_back(o[i]);
    col_tied.push_back(tied[i]);
    col_mnar.push_back(mnar[i]);
    null_mnar.push_back(mnar_null[i]);
    col_payload.push_back(variant == 1 ? kPayloadB : payload[i]);
    col_zeros.push_back(variant == 2 ? -zeros[i] : zeros[i]);
    col_fd.push_back(fd_num[i]);
    col_mono.push_back(mono[i]);
    col_const.push_back(3.0);
    col_all_nan.push_back(kPayloadA);
    no_null.push_back(false);
    all_null.push_back(true);
    if (count_null[i]) {
      col_count.AppendNull();
    } else {
      CDI_CHECK(col_count.AppendInt64(count[i]).ok());
    }
    if (flag_null[i]) {
      col_flag.AppendNull();
    } else {
      CDI_CHECK(col_flag.AppendBool(flag[i]).ok());
    }
    col_entity.push_back(entity[i]);
    col_label.push_back(label[i]);
    col_pair_exact.push_back(pair_exact[i]);
    col_pair_near.push_back(pair_near[i]);
  }
  table::Table out("stress");
  auto add = [&](table::Column c) {
    CDI_CHECK(out.AddColumn(std::move(c)).ok());
  };
  add(table::Column::FromStrings("entity", col_entity));
  add(RawDoubles("t", col_t, null_t));
  add(RawDoubles("o", col_o, no_null));
  add(RawDoubles("tied", col_tied, no_null));
  add(RawDoubles("mnar", col_mnar, null_mnar));
  add(RawDoubles("payload", col_payload, no_null));
  add(RawDoubles("zeros", col_zeros, no_null));
  add(RawDoubles("fd_num", col_fd, no_null));
  add(RawDoubles("mono", col_mono, no_null));
  add(RawDoubles("constant", col_const, no_null));
  // Every row is incomplete beside an all-null column, which leaves IPW
  // nothing to fit; only odd seeds carry one.
  if (seed % 2 == 1) add(RawDoubles("all_null", col_const, all_null));
  add(RawDoubles("all_nan", col_all_nan, no_null));
  add(std::move(col_count));
  add(std::move(col_flag));
  add(table::Column::FromStrings("label", col_label));
  add(table::Column::FromStrings("pair_exact", col_pair_exact));
  add(table::Column::FromStrings("pair_near", col_pair_near));
  return out;
}

// Organize and DistinctRows against the formulations they replaced (a
// sort per Spearman call and per median, a heap string per row): every
// OrganizerResult field bit for bit, over seeded stress tables under
// several option sets.
TEST(DataOrganizerTest, MatchesReferenceBitForBit) {
  std::vector<OrganizerOptions> option_sets(5);
  option_sets[1].drop_string_fds = false;
  option_sets[2].outlier_robust_z = 2.5;
  option_sets[3].enable_ipw = false;
  option_sets[3].fd_correlation_threshold = 0.9;
  option_sets[4].outlier_robust_z = 0.0;
  bool saw_duplicates = false, saw_winsorized_outcome = false,
       saw_ipw = false, saw_near_pair_kept = false;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const table::Table input =
        OrganizerStressInput(seed, 40 + 23 * static_cast<std::size_t>(seed));
    const std::string what = "seed " + std::to_string(seed);
    ExpectSameTable(input.DistinctRows(), testing::ReferenceDistinctRows(input),
                    what + " distinct");
    for (std::size_t k = 0; k < option_sets.size(); ++k) {
      const DataOrganizer organizer(option_sets[k]);
      const auto got = organizer.Organize(input, "entity", "t", "o");
      const auto want = testing::ReferenceOrganize(option_sets[k], input,
                                                   "entity", "t", "o");
      ExpectSameOrganization(got, want,
                             what + " options " + std::to_string(k));
      if (!got.ok() || k != 0) continue;
      saw_duplicates |= got->duplicate_rows_removed > 0;
      saw_winsorized_outcome |= got->winsorized_cells.count("o") > 0;
      for (double w : got->row_weights) saw_ipw |= w != 1.0;
      saw_near_pair_kept |= got->organized.HasColumn("pair_near") &&
                            !got->organized.HasColumn("pair_exact");
    }
  }
  EXPECT_TRUE(saw_duplicates);
  EXPECT_TRUE(saw_winsorized_outcome);
  EXPECT_TRUE(saw_ipw);
  EXPECT_TRUE(saw_near_pair_kept);
}

// An int64 attribute with a gross outlier cannot hold its winsorized
// (double) fence: both formulations fail the same way.
TEST(DataOrganizerTest, Int64OutlierFailsLikeReference) {
  table::Table t = OrganizerStressInput(3, 120);
  std::vector<int64_t> big(t.num_rows(), 1);
  for (std::size_t r = 0; r < big.size(); ++r) big[r] = r % 7;
  big[5] = 100000;
  CDI_CHECK(t.AddColumn(table::Column::FromInts("big", big)).ok());
  const OrganizerOptions options;
  const auto got = DataOrganizer(options).Organize(t, "entity", "t", "o");
  EXPECT_FALSE(got.ok());
  ExpectSameOrganization(
      got, testing::ReferenceOrganize(options, t, "entity", "t", "o"),
      "int64 outlier");
}

// The organizer on what the extractor hands it for the paper's two
// scenarios and one grid cell, against the reference.
TEST(DataOrganizerTest, MatchesReferenceOnExtractedScenarios) {
  datagen::GridCell cell;
  cell.nonlinear = true;
  cell.attrs_per_cluster = 2;
  cell.mnar_level = 1;
  cell.oracle_noise = 2;
  const std::vector<datagen::ScenarioSpec> specs = {
      datagen::FlightsSpec(), datagen::CovidSpec(),
      datagen::GridScenarioSpec(cell, 120)};
  for (const auto& spec : specs) {
    auto scenario = datagen::BuildScenario(spec);
    ASSERT_TRUE(scenario.ok());
    const auto& s = **scenario;
    const auto options = DefaultEvaluationOptions(s);
    const KnowledgeExtractor extractor(&s.kg, &s.lake, options.extractor);
    auto extraction = extractor.Extract(s.input_table, spec.entity_column,
                                        s.exposure_attribute,
                                        s.outcome_attribute);
    ASSERT_TRUE(extraction.ok());
    ExpectSameOrganization(
        DataOrganizer(options.organizer)
            .Organize(extraction->augmented, spec.entity_column,
                      s.exposure_attribute, s.outcome_attribute),
        testing::ReferenceOrganize(options.organizer, extraction->augmented,
                                   spec.entity_column, s.exposure_attribute,
                                   s.outcome_attribute),
        spec.name);
  }
}

// --------------------------------------------------------------- effect

TEST(EffectTest, MediationAdjustmentRecoversZeroDirectEffect) {
  // t -> m -> o with zero direct effect.
  Rng rng(17);
  const std::size_t n = 4000;
  std::vector<double> tv(n), m(n), ov(n);
  std::vector<std::string> entity(n);
  for (std::size_t i = 0; i < n; ++i) {
    tv[i] = rng.Normal();
    m[i] = 0.8 * tv[i] + rng.Normal();
    ov[i] = 0.8 * m[i] + rng.Normal();
    entity[i] = "E" + std::to_string(i);
  }
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("m", m)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());

  auto total = EstimateEffect(t, "t", "o", {});
  ASSERT_TRUE(total.ok());
  EXPECT_GT(total->abs_effect, 0.3);  // unadjusted: strong total effect
  auto direct = EstimateEffect(t, "t", "o", {"m"});
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(direct->abs_effect, 0.05);  // adjusted: ~0 direct effect
  EXPECT_EQ(direct->adjusted_for.size(), 1u);
}

TEST(EffectTest, ConfounderAdjustmentRemovesBias) {
  // z -> t, z -> o; true causal effect of t is zero.
  Rng rng(19);
  const std::size_t n = 4000;
  std::vector<double> z(n), tv(n), ov(n);
  std::vector<std::string> entity(n);
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = rng.Normal();
    tv[i] = 0.8 * z[i] + rng.Normal();
    ov[i] = 0.8 * z[i] + rng.Normal();
    entity[i] = "E" + std::to_string(i);
  }
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("z", z)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  auto unadjusted = EstimateEffect(t, "t", "o", {});
  auto adjusted = EstimateEffect(t, "t", "o", {"z"});
  ASSERT_TRUE(unadjusted.ok() && adjusted.ok());
  EXPECT_GT(unadjusted->abs_effect, 0.2);   // confounding bias
  EXPECT_LT(adjusted->abs_effect, 0.05);    // removed by backdoor adjustment
}

TEST(EffectTest, SkipsStringAndMissingAdjustmentColumns) {
  Rng rng(23);
  const std::size_t n = 200;
  std::vector<double> tv(n), ov(n);
  std::vector<std::string> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    tv[i] = rng.Normal();
    ov[i] = rng.Normal();
    s[i] = "x";
  }
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromStrings("s", s)).ok());
  auto est = EstimateEffect(t, "t", "o", {"s", "not_a_column"});
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->adjusted_for.empty());
}

TEST(EffectTest, RejectsStringExposure) {
  table::Table t("t");
  CDI_CHECK(
      t.AddColumn(table::Column::FromStrings("t", {"a", "b", "c", "d", "e",
                                                   "f", "g", "h"}))
          .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles(
                            "o", {1, 2, 3, 4, 5, 6, 7, 8}))
                .ok());
  EXPECT_FALSE(EstimateEffect(t, "t", "o", {}).ok());
}

TEST(EffectTest, WeightsChangeTheEstimate) {
  // Two subpopulations with opposite effects; weights pick one.
  const std::size_t n = 400;
  std::vector<double> tv(n), ov(n), w(n);
  Rng rng(29);
  for (std::size_t i = 0; i < n; ++i) {
    tv[i] = rng.Normal();
    const bool first = i < n / 2;
    ov[i] = (first ? 1.0 : -1.0) * tv[i] + 0.2 * rng.Normal();
    w[i] = first ? 1.0 : 0.0;
  }
  table::Table t("t");
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  auto weighted = EstimateEffect(t, "t", "o", {}, w);
  ASSERT_TRUE(weighted.ok());
  EXPECT_GT(weighted->effect, 0.8);
}

// ------------------------------------------------------ KnowledgeExtractor

TEST(KnowledgeExtractorTest, ExtractsRelevantDropsIrrelevant) {
  Rng rng(31);
  const std::size_t n = 400;
  std::vector<double> tv(n), ov(n), relevant(n), noise(n);
  std::vector<std::string> entity(n);
  knowledge::KnowledgeGraph kg;
  for (std::size_t i = 0; i < n; ++i) {
    entity[i] = "E" + std::to_string(i);
    tv[i] = rng.Normal();
    relevant[i] = 0.7 * tv[i] + 0.6 * rng.Normal();
    ov[i] = 0.7 * relevant[i] + rng.Normal();
    noise[i] = rng.Normal();
    kg.AddLiteral(entity[i], "relevant_attr", table::Value(relevant[i]));
    kg.AddLiteral(entity[i], "noise_attr", table::Value(noise[i]));
  }
  table::Table input("in");
  CDI_CHECK(
      input.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("o", ov)).ok());

  KnowledgeExtractor extractor(&kg, nullptr);
  auto result = extractor.Extract(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->augmented.HasColumn("relevant_attr"));
  EXPECT_FALSE(result->augmented.HasColumn("noise_attr"));
  bool found_drop = false;
  for (const auto& a : result->attributes) {
    if (a.name == "noise_attr") {
      EXPECT_FALSE(a.kept);
      EXPECT_EQ(a.drop_reason, "irrelevant");
      found_drop = true;
    }
  }
  EXPECT_TRUE(found_drop);
}

TEST(KnowledgeExtractorTest, LakeColumnsJoinedAndAligned) {
  Rng rng(37);
  const std::size_t n = 300;
  std::vector<double> tv(n), ov(n), lake_attr(n);
  std::vector<std::string> entity(n), lake_keys;
  std::vector<double> lake_vals;
  for (std::size_t i = 0; i < n; ++i) {
    entity[i] = "City_" + std::to_string(i);
    tv[i] = rng.Normal();
    lake_attr[i] = 0.8 * tv[i] + 0.5 * rng.Normal();
    ov[i] = 0.8 * lake_attr[i] + rng.Normal();
    // Lake spells keys differently; two noisy observations per entity.
    for (int k = 0; k < 2; ++k) {
      lake_keys.push_back("CITY " + std::to_string(i));
      lake_vals.push_back(lake_attr[i] + 0.01 * rng.Normal());
    }
  }
  knowledge::DataLake lake;
  table::Table lt("lake_stats");
  CDI_CHECK(lt.AddColumn(table::Column::FromStrings("name", lake_keys)).ok());
  CDI_CHECK(
      lt.AddColumn(table::Column::FromDoubles("lake_attr", lake_vals)).ok());
  lake.AddTable(std::move(lt));

  table::Table input("in");
  CDI_CHECK(
      input.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("o", ov)).ok());

  KnowledgeExtractor extractor(nullptr, &lake);
  auto result = extractor.Extract(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->augmented.HasColumn("lake_attr"));
  // Row alignment: extracted values match per-entity values.
  const auto extracted =
      (*result->augmented.GetColumn("lake_attr"))->ToDoubles();
  EXPECT_NEAR(stats::PearsonCorrelation(extracted, lake_attr), 1.0, 0.01);
}

TEST(KnowledgeExtractorTest, MaxAttributesBudget) {
  Rng rng(41);
  const std::size_t n = 300;
  std::vector<double> tv(n), ov(n);
  std::vector<std::string> entity(n);
  knowledge::KnowledgeGraph kg;
  for (std::size_t i = 0; i < n; ++i) {
    entity[i] = "E" + std::to_string(i);
    tv[i] = rng.Normal();
    ov[i] = 0.8 * tv[i] + rng.Normal();
    for (int a = 0; a < 6; ++a) {
      kg.AddLiteral(entity[i], "attr" + std::to_string(a),
                    table::Value(0.7 * tv[i] + 0.5 * rng.Normal()));
    }
  }
  table::Table input("in");
  CDI_CHECK(
      input.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("o", ov)).ok());
  ExtractorOptions options;
  options.max_attributes = 3;
  KnowledgeExtractor extractor(&kg, nullptr, options);
  auto result = extractor.Extract(input, "entity", "t", "o");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->augmented.num_cols(), 3u + 3u);  // input + 3 extracted
}

TEST(KnowledgeExtractorTest, NonlinearRelevanceKeepsUShapedConfounder) {
  // An attribute related to the outcome only through a U-shape: Pearson
  // and Spearman are both ~0, the binned chi-square is not.
  Rng rng(43);
  const std::size_t n = 600;
  std::vector<double> tv(n), ov(n), ushape(n);
  std::vector<std::string> entity(n);
  knowledge::KnowledgeGraph kg;
  for (std::size_t i = 0; i < n; ++i) {
    entity[i] = "E" + std::to_string(i);
    tv[i] = rng.Normal();
    ushape[i] = rng.Normal();
    ov[i] = 0.8 * (ushape[i] * ushape[i] - 1.0) + rng.Normal();
    kg.AddLiteral(entity[i], "u_attr", table::Value(ushape[i]));
  }
  table::Table input("in");
  CDI_CHECK(
      input.AddColumn(table::Column::FromStrings("entity", entity)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("t", tv)).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("o", ov)).ok());

  ExtractorOptions with;
  with.nonlinear_relevance = true;
  KnowledgeExtractor on(&kg, nullptr, with);
  auto kept = on.Extract(input, "entity", "t", "o");
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->augmented.HasColumn("u_attr"));

  ExtractorOptions without;
  without.nonlinear_relevance = false;
  KnowledgeExtractor off(&kg, nullptr, without);
  auto dropped = off.Extract(input, "entity", "t", "o");
  ASSERT_TRUE(dropped.ok());
  EXPECT_FALSE(dropped->augmented.HasColumn("u_attr"));
}

TEST(KnowledgeExtractorTest, RequiresStringEntityColumn) {
  table::Table input("in");
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("entity", {1, 2}))
                .ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("t", {1, 2})).ok());
  CDI_CHECK(input.AddColumn(table::Column::FromDoubles("o", {1, 2})).ok());
  knowledge::KnowledgeGraph kg;
  KnowledgeExtractor extractor(&kg, nullptr);
  EXPECT_FALSE(extractor.Extract(input, "entity", "t", "o").ok());
}

// --------------------------------------------------------- identifiability

TEST(IdentifiabilityTest, InduceClusterGraphDropsIntraClusterEdges) {
  graph::Digraph attrs({"a1", "a2", "b1"});
  CDI_CHECK(attrs.AddEdge("a1", "a2").ok());  // intra-cluster: no edge
  CDI_CHECK(attrs.AddEdge("a2", "b1").ok());  // cross-cluster: A -> B
  auto induced = InduceClusterGraph(attrs, {{"A", {"a1", "a2"}},
                                            {"B", {"b1"}}});
  ASSERT_TRUE(induced.ok());
  EXPECT_EQ(induced->num_edges(), 1u);
  EXPECT_TRUE(induced->HasEdge("A", "B"));
  EXPECT_FALSE(induced->HasEdge("A", "A"));
}

TEST(IdentifiabilityTest, InduceClusterGraphIgnoresUnclusteredAttributes) {
  graph::Digraph attrs({"a", "b", "stray"});
  CDI_CHECK(attrs.AddEdge("a", "stray").ok());
  CDI_CHECK(attrs.AddEdge("stray", "b").ok());
  auto induced = InduceClusterGraph(attrs, {{"A", {"a"}}, {"B", {"b"}}});
  ASSERT_TRUE(induced.ok());
  // Edges through the unclustered attribute vanish rather than erroring.
  EXPECT_EQ(induced->num_edges(), 0u);
}

TEST(IdentifiabilityTest, InduceClusterGraphRejectsOverlappingClusters) {
  graph::Digraph attrs({"a", "b"});
  EXPECT_FALSE(
      InduceClusterGraph(attrs, {{"A", {"a", "b"}}, {"B", {"b"}}}).ok());
}

TEST(IdentifiabilityTest, ConsistencyOnExactCdag) {
  graph::Digraph attrs({"t", "m", "o"});
  CDI_CHECK(attrs.AddEdge("t", "m").ok());
  CDI_CHECK(attrs.AddEdge("m", "o").ok());
  auto cdag = ClusterDag::Create(
      {{"T", {"t"}}, {"M", {"m"}}, {"O", {"o"}}}, "T", "O");
  ASSERT_TRUE(cdag.ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("T", "M").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("M", "O").ok());
  auto report = CheckCdagConsistency(attrs, *cdag);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->fully_consistent());
  EXPECT_TRUE(report->clustering_admissible);
}

TEST(IdentifiabilityTest, ConsistencyFlagsMissingAndUnsupportedEdges) {
  graph::Digraph attrs({"t", "m", "o"});
  CDI_CHECK(attrs.AddEdge("t", "m").ok());
  CDI_CHECK(attrs.AddEdge("m", "o").ok());
  auto cdag = ClusterDag::Create(
      {{"T", {"t"}}, {"M", {"m"}}, {"O", {"o"}}}, "T", "O");
  ASSERT_TRUE(cdag.ok());
  // The C-DAG claims T -> O (no attribute support) and omits M -> O.
  CDI_CHECK(cdag->mutable_graph().AddEdge("T", "M").ok());
  CDI_CHECK(cdag->mutable_graph().AddEdge("T", "O").ok());
  auto report = CheckCdagConsistency(attrs, *cdag);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->fully_consistent());
  ASSERT_EQ(report->missing_edges.size(), 1u);
  EXPECT_EQ(report->missing_edges[0],
            (std::pair<std::string, std::string>{"M", "O"}));
  ASSERT_EQ(report->unsupported_edges.size(), 1u);
  EXPECT_EQ(report->unsupported_edges[0],
            (std::pair<std::string, std::string>{"T", "O"}));
}

TEST(IdentifiabilityTest, ConsistencyRejectsCyclicAttributeGraph) {
  graph::Digraph attrs({"a", "b"});
  CDI_CHECK(attrs.AddEdge("a", "b").ok());
  CDI_CHECK(attrs.AddEdge("b", "a").ok());
  auto cdag = ClusterDag::Create({{"A", {"a"}}, {"B", {"b"}}}, "A", "B");
  ASSERT_TRUE(cdag.ok());
  EXPECT_FALSE(CheckCdagConsistency(attrs, *cdag).ok());
}

// -------------------------------------------------- effect (empty adjust)

TEST(EffectTest, EmptyAdjustmentSetEstimatesMarginalSlope) {
  // o = 0.8 * t exactly; with no adjustment the standardized slope is 1.
  std::vector<double> t, o;
  for (int i = 0; i < 50; ++i) {
    t.push_back(static_cast<double>(i));
    o.push_back(0.8 * static_cast<double>(i));
  }
  table::Table tab("tab");
  CDI_CHECK(tab.AddColumn(table::Column::FromDoubles("t", t)).ok());
  CDI_CHECK(tab.AddColumn(table::Column::FromDoubles("o", o)).ok());
  auto est = EstimateEffect(tab, "t", "o", /*adjustment=*/{});
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->adjusted_for.empty());
  EXPECT_NEAR(est->abs_effect, 1.0, 1e-9);
  EXPECT_EQ(est->n_used, 50u);
}

TEST(EffectTest, FullyMediatedDirectEffectIsZero) {
  // t -> m -> o with no direct edge: adjusting for the mediator must zero
  // the estimated direct effect, while the empty set recovers the total.
  Rng rng(99);
  std::vector<double> t, m, o;
  for (int i = 0; i < 400; ++i) {
    const double tv = rng.Normal();
    const double mv = 0.9 * tv + 0.2 * rng.Normal();
    const double ov = 0.9 * mv + 0.2 * rng.Normal();
    t.push_back(tv);
    m.push_back(mv);
    o.push_back(ov);
  }
  table::Table tab("tab");
  CDI_CHECK(tab.AddColumn(table::Column::FromDoubles("t", t)).ok());
  CDI_CHECK(tab.AddColumn(table::Column::FromDoubles("m", m)).ok());
  CDI_CHECK(tab.AddColumn(table::Column::FromDoubles("o", o)).ok());
  auto direct = EstimateEffect(tab, "t", "o", {"m"});
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(direct->abs_effect, 0.1);
  auto total = EstimateEffect(tab, "t", "o", {});
  ASSERT_TRUE(total.ok());
  EXPECT_GT(total->abs_effect, 0.5);
}

}  // namespace
}  // namespace cdi::core
