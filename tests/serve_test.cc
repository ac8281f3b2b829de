#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "datagen/scenario.h"
#include "serve/line_protocol.h"
#include "serve/metrics.h"
#include "serve/query_server.h"
#include "serve/scenario_registry.h"
#include "summarize/summarize.h"

namespace cdi::serve {
namespace {

constexpr std::size_t kEntities = 120;

std::unique_ptr<const datagen::Scenario> BuildCovid(
    std::size_t entities = kEntities) {
  auto spec = datagen::CovidSpec();
  spec.num_entities = entities;
  auto built = datagen::BuildScenario(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::unique_ptr<const datagen::Scenario>(std::move(built).value());
}

std::unique_ptr<const datagen::Scenario> BuildFlights(
    std::size_t entities = kEntities) {
  auto spec = datagen::FlightsSpec();
  spec.num_entities = entities;
  auto built = datagen::BuildScenario(spec);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::unique_ptr<const datagen::Scenario>(std::move(built).value());
}

CdiQuery Query(const std::string& exposure, const std::string& outcome,
               double timeout_seconds = 0.0) {
  CdiQuery q;
  q.scenario = "covid";
  q.exposure = exposure;
  q.outcome = outcome;
  q.timeout_seconds = timeout_seconds;
  return q;
}

CdiQuery SummarizeQuery(std::size_t k, const std::string& format = "dot",
                        const std::string& scenario = "covid") {
  CdiQuery q;
  q.scenario = scenario;
  q.mode = QueryMode::kSummarize;
  q.summarize_k = k;
  q.summarize_format = format;
  return q;
}

/// Freshly builds the scenario's C-DAG plan exactly the way the serving
/// layer does on a planned-mode miss: a full canonical-pair pipeline run
/// + CdagPlan::Build. The planner determinism contract says served
/// answers must match this byte for byte.
core::CdagPlan FreshPlan(const ScenarioBundle& bundle) {
  const datagen::Scenario& sc = *bundle.scenario;
  core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                          bundle.default_options);
  auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                          sc.exposure_attribute, sc.outcome_attribute);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  auto plan = core::CdagPlan::Build(
      std::make_shared<const core::PipelineResult>(std::move(run).value()));
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

/// Rendezvous point for the worker pre-execute hook: workers block in
/// Arrive() until Open(); the test waits for a known number of arrivals
/// so queue / in-flight state is deterministic before it proceeds.
class Gate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  void WaitForArrivals(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return arrived_ >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

// ------------------------------------------------------ ScenarioRegistry

TEST(ScenarioRegistryTest, RegisterSnapshotAndNumericAttributes) {
  ScenarioRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Snapshot("covid").status().code(),
            StatusCode::kNotFound);

  auto registered = registry.Register("covid", BuildCovid());
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  const auto bundle = *registered;
  EXPECT_EQ(bundle->name, "covid");
  EXPECT_EQ(bundle->epoch, 1u);
  EXPECT_NE(bundle->input_stats, nullptr);
  EXPECT_NE(bundle->default_options_fingerprint, 0u);

  // Numeric attributes exclude the entity column and string columns.
  EXPECT_EQ(bundle->numeric_attributes.size(), 3u);
  for (const auto& attr : bundle->numeric_attributes) {
    EXPECT_NE(attr, "entity");
    EXPECT_NE(bundle->NumericIndex(attr), ScenarioBundle::kNotNumeric);
  }
  EXPECT_EQ(bundle->NumericIndex("entity"), ScenarioBundle::kNotNumeric);
  EXPECT_EQ(bundle->NumericIndex("no_such"), ScenarioBundle::kNotNumeric);

  // The shared sufficient statistics cover exactly those columns.
  EXPECT_EQ(bundle->input_stats->num_vars(),
            bundle->numeric_attributes.size());

  auto snapshot = registry.Snapshot("covid");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->get(), bundle.get());  // same shared bundle

  EXPECT_EQ(registry.Register("covid", BuildCovid()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ScenarioRegistryTest, ReplaceBumpsEpochAndKeepsOldSnapshotAlive) {
  ScenarioRegistry registry;
  auto first = registry.Register("covid", BuildCovid());
  ASSERT_TRUE(first.ok());
  const auto old_bundle = *first;
  const std::uint64_t old_epoch = old_bundle->epoch;
  const std::size_t old_rows =
      old_bundle->scenario->input_table.num_rows();

  auto second = registry.Replace("covid", BuildCovid(140));
  ASSERT_TRUE(second.ok());
  EXPECT_GT((*second)->epoch, old_epoch);
  EXPECT_EQ((*second)->scenario->input_table.num_rows(), 140u);

  // The old snapshot is still fully usable for in-flight queries.
  EXPECT_EQ(old_bundle->scenario->input_table.num_rows(), old_rows);
  EXPECT_EQ(old_bundle->epoch, old_epoch);

  auto current = registry.Snapshot("covid");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->get(), second->get());
}

bool BitwiseEqual(const stats::Matrix& a, const stats::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * a.rows() * a.cols()) == 0;
}

TEST(ScenarioRegistryTest, UpdateScenarioDeltaRefreshesStatsBitwise) {
  ScenarioRegistry registry;
  auto registered = registry.Register("covid", BuildCovid());
  ASSERT_TRUE(registered.ok());
  const auto old_bundle = *registered;
  const std::size_t old_rows = old_bundle->input->num_rows();

  // The row batch reuses the head of the scenario's own table, so its
  // schema matches by construction.
  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < 25; ++r) picks.push_back(r);
  const table::Table batch = old_bundle->input->TakeRows(picks);

  auto updated = registry.UpdateScenario("covid", batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const auto fresh_bundle = *updated;
  EXPECT_GT(fresh_bundle->epoch, old_bundle->epoch);
  EXPECT_EQ(fresh_bundle->rows_appended, 25u);
  EXPECT_EQ(fresh_bundle->input->num_rows(), old_rows + 25);
  EXPECT_EQ(fresh_bundle->scenario.get(), old_bundle->scenario.get());
  EXPECT_EQ(fresh_bundle->numeric_attributes,
            old_bundle->numeric_attributes);

  // The superseded snapshot is untouched for in-flight queries.
  EXPECT_EQ(old_bundle->input->num_rows(), old_rows);
  EXPECT_EQ(old_bundle->input_stats->num_rows(), old_rows);

  // Delta-refreshed statistics are bitwise what a cold Compute over the
  // grown table yields — the property that makes epoch rollover safe.
  stats::NumericDataset ds;
  for (const auto& attr : fresh_bundle->numeric_attributes) {
    auto col = fresh_bundle->input->GetColumn(attr);
    ASSERT_TRUE(col.ok());
    ds.columns.push_back((*col)->View());
  }
  auto cold = stats::SufficientStats::Compute(ds);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const stats::SufficientStats& warm = *fresh_bundle->input_stats;
  EXPECT_EQ(warm.complete_rows(), cold->complete_rows());
  EXPECT_EQ(warm.complete_mask(), cold->complete_mask());
  ASSERT_EQ(warm.means().size(), cold->means().size());
  for (std::size_t v = 0; v < cold->means().size(); ++v) {
    EXPECT_EQ(warm.means()[v], cold->means()[v]) << "mean " << v;
  }
  EXPECT_TRUE(BitwiseEqual(warm.cross_products(), cold->cross_products()));

  // Registry state: Snapshot serves the new epoch.
  EXPECT_EQ(registry.Snapshot("covid")->get(), fresh_bundle.get());
}

TEST(ScenarioRegistryTest, UpdateScenarioRejectsBadBatches) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());

  EXPECT_EQ(registry.UpdateScenario("nope", *bundle->input).status().code(),
            StatusCode::kNotFound);

  table::Table empty("empty");
  EXPECT_EQ(registry.UpdateScenario("covid", empty).status().code(),
            StatusCode::kInvalidArgument);

  // Schema mismatch: the error names the scenario and what is missing.
  table::Table wrong("w");
  CDI_CHECK(wrong.AddColumn(
                    table::Column::FromDoubles("bogus", {1.0, 2.0}))
                .ok());
  auto st = registry.UpdateScenario("covid", wrong).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("updating scenario 'covid'"),
            std::string::npos)
      << st.ToString();
  // The failed update published nothing.
  EXPECT_EQ(registry.Snapshot("covid")->get(), bundle.get());
}

/// First double-typed non-entity column of the scenario's input table.
std::string FirstDoubleColumn(const datagen::Scenario& sc) {
  for (std::size_t c = 0; c < sc.input_table.num_cols(); ++c) {
    const table::Column& col = sc.input_table.ColumnAt(c);
    if (col.type() == table::DataType::kDouble &&
        col.name() != sc.spec.entity_column) {
      return col.name();
    }
  }
  ADD_FAILURE() << "no double column";
  return "";
}

TEST(ScenarioRegistryTest, RegisterAndReplaceRejectNonFiniteCells) {
  auto spec = datagen::CovidSpec();
  spec.num_entities = kEntities;
  auto built = datagen::BuildScenario(spec);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<datagen::Scenario> poisoned = std::move(built).value();
  const std::string column = FirstDoubleColumn(*poisoned);
  CDI_CHECK(poisoned->input_table
                .SetCell(7, column,
                         table::Value(std::numeric_limits<double>::infinity()))
                .ok());
  std::shared_ptr<const datagen::Scenario> bad(std::move(poisoned));

  ScenarioRegistry registry;
  auto st = registry.Register("covid", bad).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("scenario 'covid'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("column '" + column + "' row 7"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(registry.size(), 0u);

  // Replace is the same door: the clean epoch stays published.
  auto clean = registry.Register("covid", BuildCovid());
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(registry.Replace("covid", bad).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Snapshot("covid")->get(), clean->get());
}

TEST(ScenarioRegistryTest, UpdateScenarioRejectsNonFiniteCells) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const std::string column = FirstDoubleColumn(*bundle->scenario);
  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < 10; ++r) picks.push_back(r);

  table::Table batch = bundle->input->TakeRows(picks);
  CDI_CHECK(batch
                .SetCell(4, column,
                         table::Value(-std::numeric_limits<double>::infinity()))
                .ok());
  auto st = registry.UpdateScenario("covid", batch).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("scenario 'covid'"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("column '" + column + "' row 4"),
            std::string::npos)
      << st.ToString();
  // The rejected batch published nothing: same bundle, same epoch.
  auto after = registry.Snapshot("covid");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), bundle.get());
  EXPECT_EQ((*after)->epoch, bundle->epoch);

  // NaN still means "missing" and is accepted.
  table::Table missing = bundle->input->TakeRows(picks);
  CDI_CHECK(missing
                .SetCell(4, column,
                         table::Value(std::numeric_limits<double>::quiet_NaN()))
                .ok());
  auto updated = registry.UpdateScenario("covid", missing);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_GT((*updated)->epoch, bundle->epoch);
}

// ------------------------------------------------- Cache key fingerprint

TEST(QueryCacheKeyTest, OptionsFingerprintIgnoresExecutionStrategy) {
  core::PipelineOptions a;
  core::PipelineOptions b = a;
  b.num_threads = 8;
  b.builder.num_threads = 8;
  b.builder.discovery.num_threads = 8;
  // Thread counts cannot change results (every parallel stage is
  // bitwise-deterministic), so they must share a result-cache entry.
  EXPECT_EQ(core::PipelineOptionsFingerprint(a),
            core::PipelineOptionsFingerprint(b));

  core::PipelineOptions c = a;
  c.builder.alpha *= 0.5;
  EXPECT_NE(core::PipelineOptionsFingerprint(a),
            core::PipelineOptionsFingerprint(c));
  core::PipelineOptions d = a;
  d.builder.varclus.min_clusters += 1;
  EXPECT_NE(core::PipelineOptionsFingerprint(a),
            core::PipelineOptionsFingerprint(d));
}

TEST(QueryCacheKeyTest, KeyCoversEpochExposureOutcomeAndOptions) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  ASSERT_GE(attrs.size(), 2u);

  const auto q = Query(attrs[0], attrs[1]);
  const std::uint64_t key = QueryCacheKey(*bundle, q);
  EXPECT_EQ(QueryCacheKey(*bundle, q), key);  // stable

  EXPECT_NE(QueryCacheKey(*bundle, Query(attrs[1], attrs[0])), key);

  CdiQuery with_options = q;
  with_options.options = bundle->default_options;
  with_options.options->builder.alpha *= 0.5;
  EXPECT_NE(QueryCacheKey(*bundle, with_options), key);

  // Default options carried explicitly hash like no override at all.
  CdiQuery same_options = q;
  same_options.options = bundle->default_options;
  EXPECT_EQ(QueryCacheKey(*bundle, same_options), key);

  // Replacing the scenario bumps the epoch -> every key changes.
  auto replaced = *registry.Replace("covid", BuildCovid());
  EXPECT_NE(QueryCacheKey(*replaced, q), key);
}

// ------------------------------------------------------- Admission paths

TEST(QueryServerTest, RejectsInvalidQueriesAtAdmission) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  QueryServerOptions options;
  options.num_workers = 1;
  QueryServer server(&registry, options);

  auto unknown = server.Execute(
      [] { auto q = Query("a", "b"); q.scenario = "nope"; return q; }());
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.result(), nullptr);
  EXPECT_EQ(unknown.source, ResponseSource::kError);

  // The entity column is rejected O(1) at admission for either role, with
  // a message that says what it is instead of a generic "not numeric".
  const std::string entity = bundle->scenario->spec.entity_column;
  auto bad_exposure = server.Execute(Query(entity, attrs[0]));
  EXPECT_EQ(bad_exposure.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_exposure.status.message().find("entity column"),
            std::string::npos)
      << bad_exposure.status.ToString();

  auto bad_outcome = server.Execute(Query(attrs[0], entity));
  EXPECT_EQ(bad_outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_outcome.status.message().find("entity column"),
            std::string::npos)
      << bad_outcome.status.ToString();

  auto self_effect = server.Execute(Query(attrs[0], attrs[0]));
  EXPECT_EQ(self_effect.status.code(), StatusCode::kInvalidArgument);

  // Every rejection happened at admission: zero pipeline executions.
  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.submitted, 4u);
  EXPECT_EQ(metrics.failed, 4u);
  EXPECT_EQ(metrics.served, 0u);
  EXPECT_EQ(metrics.executions, 0u);
}

// --------------------------------------- Served == direct Pipeline::Run

TEST(QueryServerTest, ServedBitwiseEqualsDirectRunAtOneAndEightWorkers) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  // Ground truth: direct pipeline runs for every ordered attribute pair.
  std::vector<CdiQuery> queries;
  std::vector<std::string> expected;
  {
    const datagen::Scenario& sc = *bundle->scenario;
    core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                            bundle->default_options);
    for (const auto& t : attrs) {
      for (const auto& o : attrs) {
        if (t == o) continue;
        auto run = pipeline.Run(sc.input_table, sc.spec.entity_column, t, o);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        queries.push_back(Query(t, o));
        expected.push_back(FormatResultPayload(*run));
      }
    }
  }
  ASSERT_EQ(queries.size(), 6u);

  for (const int workers : {1, 8}) {
    QueryServerOptions options;
    options.num_workers = workers;
    QueryServer server(&registry, options);

    // All queries in flight at once (exercises worker parallelism at 8).
    std::vector<std::future<QueryResponse>> futures;
    for (const auto& q : queries) futures.push_back(server.Submit(q));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto response = futures[i].get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(FormatResultPayload(*response.result()), expected[i])
          << "workers=" << workers << " query " << i;
    }

    // Second pass: everything is a cache hit with the identical payload.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto response = server.Execute(queries[i]);
      ASSERT_TRUE(response.status.ok());
      EXPECT_EQ(response.source, ResponseSource::kCacheHit);
      EXPECT_EQ(FormatResultPayload(*response.result()), expected[i]);
    }

    const auto metrics = server.Metrics();
    EXPECT_EQ(metrics.executions, 6u) << "workers=" << workers;
    EXPECT_EQ(metrics.cache_hits, 6u);
    EXPECT_EQ(metrics.served, metrics.executions + metrics.cache_hits +
                                  metrics.coalesced);
    EXPECT_EQ(metrics.submitted,
              metrics.served + metrics.rejected + metrics.failed);
  }
}

// ------------------------------------------- Planner (QueryMode::kPlanned)

/// Full ordered (T, O) sweep on both benchmark scenarios at 1 and 8
/// workers: every planned response must equal — byte for byte, including
/// the fingerprint that covers the adjustment sets — what a freshly built
/// plan (fresh canonical Pipeline::Run + fresh CdagPlan) answers for the
/// same pair. Pairs the plan rejects (e.g. both attributes in one
/// cluster) must come back as errors with the same status code.
TEST(QueryServerTest, PlannedSweepMatchesFreshPlanOnBothScenarios) {
  struct Expected {
    StatusCode code;
    std::string payload;  // valid when code == kOk
  };
  for (const bool flights : {false, true}) {
    const std::string name = flights ? "flights" : "covid";
    ScenarioRegistry registry;
    auto bundle = *registry.Register(
        name, flights ? BuildFlights() : BuildCovid());
    const auto& attrs = bundle->numeric_attributes;
    ASSERT_GE(attrs.size(), 2u) << name;

    const core::CdagPlan fresh = FreshPlan(*bundle);
    std::vector<CdiQuery> queries;
    std::vector<Expected> expected;
    for (const auto& t : attrs) {
      for (const auto& o : attrs) {
        if (t == o) continue;
        auto q = Query(t, o);
        q.scenario = name;
        q.mode = QueryMode::kPlanned;
        queries.push_back(q);
        auto answer = fresh.AnswerPair(t, o);
        expected.push_back(answer.ok()
                               ? Expected{StatusCode::kOk,
                                          FormatPairAnswerPayload(*answer)}
                               : Expected{answer.status().code(), ""});
      }
    }

    for (const int workers : {1, 8}) {
      QueryServerOptions options;
      options.num_workers = workers;
      QueryServer server(&registry, options);

      std::vector<std::future<QueryResponse>> futures;
      for (const auto& q : queries) futures.push_back(server.Submit(q));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        auto response = futures[i].get();
        if (expected[i].code == StatusCode::kOk) {
          ASSERT_TRUE(response.status.ok())
              << name << " workers=" << workers << " pair " << i << ": "
              << response.status.ToString();
          ASSERT_NE(response.planned(), nullptr);
          EXPECT_EQ(response.result(), nullptr);
          EXPECT_EQ(FormatPairAnswerPayload(*response.planned()),
                    expected[i].payload)
              << name << " workers=" << workers << " pair " << i;
        } else {
          EXPECT_EQ(response.status.code(), expected[i].code)
              << name << " workers=" << workers << " pair " << i;
        }
      }

      // One scenario epoch, one option set -> exactly one artifact build
      // no matter how many pairs were served off it.
      const auto metrics = server.Metrics();
      EXPECT_EQ(metrics.plan_builds, 1u)
          << name << " workers=" << workers;
      EXPECT_EQ(metrics.plan_cache_entries, 1u);
    }
  }
}

/// N planned first-queries for *different* pairs racing on a cold server
/// must produce exactly one C-DAG build: the plan cache is single-flight
/// per (scenario, epoch, options), not per query key.
TEST(QueryServerTest, ConcurrentPlannedFirstQueriesBuildPlanOnce) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  ASSERT_GE(attrs.size(), 2u);

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 8;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  // All distinct ordered pairs, submitted while the gate holds every
  // worker pre-execution, so the plan builds race when it opens.
  std::vector<std::future<QueryResponse>> futures;
  int submitted = 0;
  for (const auto& t : attrs) {
    for (const auto& o : attrs) {
      if (t == o) continue;
      auto q = Query(t, o);
      q.mode = QueryMode::kPlanned;
      futures.push_back(server.Submit(q));
      ++submitted;
    }
  }
  gate.WaitForArrivals(submitted);
  gate.Open();

  int ok = 0;
  for (auto& f : futures) {
    auto response = f.get();
    if (response.status.ok()) {
      ++ok;
      EXPECT_NE(response.planned(), nullptr);
    } else {
      // Same-cluster pairs are legitimately unanswerable off the C-DAG.
      EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    }
  }
  EXPECT_GT(ok, 0);

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.plan_builds, 1u);
  EXPECT_EQ(metrics.plan_cache_entries, 1u);
}

// ------------------------------------------------- Epoch churn / staleness

/// The stale-epoch leak fix: >= 100 registry Replace cycles with queries
/// in flight must keep both cache tiers bounded (entries for superseded
/// epochs are evicted on the next touch, not retained forever), and the
/// answers served after the churn must match a plan freshly built from
/// the *final* bundle — no stale-epoch result survives.
TEST(QueryServerTest, EpochChurnKeepsCachesBoundedAndServesFreshResults) {
  constexpr int kReplaces = 120;
  constexpr std::size_t kSmall = 80;

  ScenarioRegistry registry;
  auto first = registry.Register("covid", BuildCovid(kSmall));
  ASSERT_TRUE(first.ok());
  const auto& attrs = (*first)->numeric_attributes;
  ASSERT_GE(attrs.size(), 2u);

  QueryServerOptions options;
  options.num_workers = 4;
  QueryServer server(&registry, options);

  // Background client hammering planned queries across the churn. Status
  // is not asserted here (a query can legitimately race a Replace); the
  // assertions below are about cache bounds and end-state freshness.
  std::atomic<bool> churn_done{false};
  std::thread client([&] {
    std::size_t i = 0;
    while (!churn_done.load(std::memory_order_relaxed)) {
      CdiQuery q;
      if (i % 4 == 3) {
        // Summarize traffic rides the same churn: budgets cycle over a
        // small set so stale-epoch summary entries would accumulate if
        // the sweeps missed them.
        q = SummarizeQuery(4 + i % 3);
      } else {
        q = Query(attrs[i % attrs.size()], attrs[(i + 1) % attrs.size()]);
        q.mode = (i % 3 == 0) ? QueryMode::kFull : QueryMode::kPlanned;
      }
      (void)server.Execute(q);
      ++i;
    }
  });

  // Alternate entity counts so successive epochs genuinely answer
  // differently — a stale retained result would be detectable, not a
  // harmless duplicate.
  for (int i = 0; i < kReplaces; ++i) {
    auto replaced = registry.Replace(
        "covid", BuildCovid(kSmall + (i % 2) * 24));
    ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  }
  churn_done.store(true);
  client.join();

  // Serve every pair off the final epoch and compare against a plan
  // freshly built from the final bundle snapshot.
  auto final_bundle = registry.Snapshot("covid");
  ASSERT_TRUE(final_bundle.ok());
  const core::CdagPlan fresh = FreshPlan(**final_bundle);
  for (const auto& t : attrs) {
    for (const auto& o : attrs) {
      if (t == o) continue;
      auto q = Query(t, o);
      q.mode = QueryMode::kPlanned;
      auto response = server.Execute(q);
      auto answer = fresh.AnswerPair(t, o);
      if (answer.ok()) {
        ASSERT_TRUE(response.status.ok()) << response.status.ToString();
        EXPECT_EQ(FormatPairAnswerPayload(*response.planned()),
                  FormatPairAnswerPayload(*answer))
            << t << " -> " << o;
        EXPECT_EQ(response.scenario_epoch, (*final_bundle)->epoch);
      } else {
        EXPECT_EQ(response.status.code(), answer.status().code());
      }
    }
  }

  // Summaries served off the final epoch are byte-identical to ones built
  // directly from it — no stale-epoch summary survives the churn.
  const auto& final_cdag = fresh.artifact().build.cdag;
  for (std::size_t k = 4; k <= 6; ++k) {
    auto response = server.Execute(SummarizeQuery(k));
    summarize::SummarizeOptions sopts;
    sopts.budget = k;
    auto direct = summarize::SummarizeClusterDag(final_cdag, sopts);
    if (direct.ok()) {
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_NE(response.summary(), nullptr);
      EXPECT_EQ(response.summary()->dot, direct->ToDot()) << "k=" << k;
      EXPECT_EQ(response.summary()->json, direct->ToJson()) << "k=" << k;
      EXPECT_EQ(response.scenario_epoch, (*final_bundle)->epoch);
    } else {
      EXPECT_EQ(response.status.code(), direct.status().code()) << "k=" << k;
    }
  }

  // Bounded caches: entries scale with live pairs x modes plus the three
  // live summary budgets, never with the 100+ superseded epochs; the
  // eviction counter proves the sweeps ran.
  const std::size_t pairs = attrs.size() * (attrs.size() - 1);
  const auto metrics = server.Metrics();
  EXPECT_GT(metrics.evicted_stale, 0u);
  EXPECT_LE(metrics.result_cache_entries, 2 * pairs + 3);
  EXPECT_LE(metrics.summary_cache_entries, 3u);
  EXPECT_LE(metrics.plan_cache_entries, 2u);
  EXPECT_GE(metrics.plan_builds, 1u);
}

/// A planned query whose scenario is unregistered while it runs: both the
/// plan and the answer complete under a superseded epoch, so neither is
/// retained, and each drop counts as a stale eviction.
TEST(QueryServerTest, OutcomesDroppedAtCompletionCountAsStaleEvictions) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  auto q = Query(attrs[0], attrs[1]);
  q.mode = QueryMode::kPlanned;
  auto planned = server.Submit(q);
  gate.WaitForArrivals(1);  // claimed, not yet built
  ASSERT_TRUE(server.UnregisterScenario("covid").ok());
  gate.Open();

  const auto response = planned.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.source, ResponseSource::kExecuted);
  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.plan_builds, 1u);
  EXPECT_EQ(metrics.evicted_stale, 2u);  // the plan and the answer
  EXPECT_EQ(metrics.plan_cache_entries, 0u);
  EXPECT_EQ(metrics.result_cache_entries, 0u);
}

// --------------------------------------- Summaries (QueryMode::kSummarize)

/// Every budget from 2 to the C-DAG's node count, served at 1 and 8
/// workers: each served summary must be byte-identical — DOT, JSON and
/// fingerprint — to a summary built directly from a fresh plan's C-DAG.
/// Budgets the merge pass rejects (below the safe floor) must come back
/// as errors with the same status code.
TEST(QueryServerTest, SummarizeServedBitwiseEqualsDirectBuildAtOneAndEightWorkers) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const core::CdagPlan fresh = FreshPlan(*bundle);
  const auto& cdag = fresh.artifact().build.cdag;
  const std::size_t n = cdag.num_clusters();
  ASSERT_GE(n, 4u);

  struct Expected {
    StatusCode code;
    std::string dot, json;
  };
  std::vector<CdiQuery> queries;
  std::vector<Expected> expected;
  std::size_t achievable = 0;
  for (std::size_t k = 2; k <= n; ++k) {
    queries.push_back(SummarizeQuery(k));
    summarize::SummarizeOptions sopts;
    sopts.budget = k;
    auto direct = summarize::SummarizeClusterDag(cdag, sopts);
    if (direct.ok()) {
      expected.push_back(
          {StatusCode::kOk, direct->ToDot(), direct->ToJson()});
      ++achievable;
    } else {
      expected.push_back({direct.status().code(), "", ""});
    }
  }
  ASSERT_GE(achievable, 2u);  // covid's C-DAG must be summarizable at all

  for (const int workers : {1, 8}) {
    QueryServerOptions options;
    options.num_workers = workers;
    QueryServer server(&registry, options);

    // All budgets in flight at once (exercises worker parallelism at 8).
    std::vector<std::future<QueryResponse>> futures;
    for (const auto& q : queries) futures.push_back(server.Submit(q));
    for (std::size_t i = 0; i < futures.size(); ++i) {
      auto response = futures[i].get();
      if (expected[i].code == StatusCode::kOk) {
        ASSERT_TRUE(response.status.ok())
            << "workers=" << workers << " k=" << queries[i].summarize_k
            << ": " << response.status.ToString();
        ASSERT_NE(response.summary(), nullptr);
        EXPECT_EQ(response.summary()->dot, expected[i].dot)
            << "workers=" << workers << " k=" << queries[i].summarize_k;
        EXPECT_EQ(response.summary()->json, expected[i].json)
            << "workers=" << workers << " k=" << queries[i].summarize_k;
      } else {
        EXPECT_EQ(response.status.code(), expected[i].code)
            << "workers=" << workers << " k=" << queries[i].summarize_k;
      }
    }

    // Second pass: achievable budgets are cache hits with the identical
    // bytes; the format knob is presentation-only and re-uses the entry.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (expected[i].code != StatusCode::kOk) continue;
      for (const char* format : {"dot", "json"}) {
        auto q = queries[i];
        q.summarize_format = format;
        auto response = server.Execute(q);
        ASSERT_TRUE(response.status.ok());
        EXPECT_EQ(response.source, ResponseSource::kCacheHit);
        EXPECT_EQ(FormatSummaryPayload(*response.summary(), format),
                  FormatSummaryPayload(
                      SummaryArtifact{response.summary()->summary,
                                      expected[i].dot, expected[i].json},
                      format));
      }
    }

    // One plan build feeds every summary; one summary build per
    // achievable budget regardless of worker count.
    const auto metrics = server.Metrics();
    EXPECT_EQ(metrics.plan_builds, 1u) << "workers=" << workers;
    EXPECT_EQ(metrics.summary_builds, achievable) << "workers=" << workers;
    EXPECT_EQ(metrics.summary_cache_entries, achievable);
  }
}

/// Concurrent identical summarize queries on a cold server must run the
/// merge pass exactly once (single-flight on the result cache) and build
/// the underlying plan exactly once.
TEST(QueryServerTest, ConcurrentIdenticalSummariesBuildOnce) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const std::size_t n =
      FreshPlan(*bundle).artifact().build.cdag.num_clusters();

  QueryServerOptions options;
  options.num_workers = 8;
  QueryServer server(&registry, options);

  constexpr int kClients = 12;
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < kClients; ++i) {
    futures.push_back(server.Submit(SummarizeQuery(n - 1)));
  }
  std::set<std::uint64_t> fingerprints;
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_NE(response.summary(), nullptr);
    fingerprints.insert(SummaryFingerprint(*response.summary()));
  }
  EXPECT_EQ(fingerprints.size(), 1u);
  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.summary_builds, 1u);
  EXPECT_EQ(metrics.plan_builds, 1u);
}

/// Update and unregister both sweep summarize-mode cache entries: a
/// summary served after an epoch bump is rebuilt against the new epoch,
/// and an unregistered scenario keeps no summary entries alive.
TEST(QueryServerTest, UpdateAndUnregisterLeaveNoStaleSummaries) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const std::size_t n =
      FreshPlan(*bundle).artifact().build.cdag.num_clusters();

  QueryServer server(&registry);
  const auto q = SummarizeQuery(n - 1);

  const auto cold = server.Execute(q);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.source, ResponseSource::kExecuted);
  EXPECT_EQ(cold.scenario_epoch, bundle->epoch);
  EXPECT_EQ(server.Execute(q).source, ResponseSource::kCacheHit);

  // Epoch bump via streaming ingest: the old summary must not be served.
  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < 25; ++r) picks.push_back(r);
  auto updated = server.UpdateScenario("covid", bundle->input->TakeRows(picks));
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const auto warm = server.Execute(q);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_NE(warm.source, ResponseSource::kCacheHit);
  EXPECT_EQ(warm.scenario_epoch, (*updated)->epoch);
  auto metrics = server.Metrics();
  EXPECT_EQ(metrics.summary_builds, 2u);
  EXPECT_EQ(metrics.summary_cache_entries, 1u);  // stale entry swept
  EXPECT_GT(metrics.evicted_stale, 0u);

  // Unregister sweeps the remaining summary entry with the scenario.
  ASSERT_TRUE(server.UnregisterScenario("covid").ok());
  metrics = server.Metrics();
  EXPECT_EQ(metrics.summary_cache_entries, 0u);
  EXPECT_EQ(server.Execute(q).status.code(), StatusCode::kNotFound);
  server.Shutdown();
}

// ----------------------------------------------------------Single-flight

TEST(QueryServerTest, ConcurrentIdenticalQueriesExecuteOnce) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 4;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  const auto q = Query(attrs[0], attrs[1]);
  auto leader = server.Submit(q);
  gate.WaitForArrivals(1);  // leader is in a worker, pre-execution

  // Identical queries submitted while the leader runs attach as waiters
  // (Submit returns only after the waiter is attached, so this is
  // race-free by construction).
  constexpr int kFollowers = 7;
  std::vector<std::future<QueryResponse>> followers;
  for (int i = 0; i < kFollowers; ++i) followers.push_back(server.Submit(q));
  gate.Open();

  auto lead = leader.get();
  ASSERT_TRUE(lead.status.ok()) << lead.status.ToString();
  EXPECT_EQ(lead.source, ResponseSource::kExecuted);
  for (auto& f : followers) {
    auto response = f.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.source, ResponseSource::kCoalesced);
    // Memoization is by reference: the identical shared result object.
    EXPECT_EQ(response.result(), lead.result());
  }

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.executions, 1u);
  EXPECT_EQ(metrics.coalesced, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(metrics.served, 1u + kFollowers);
}

// ------------------------------------------------------ Admission control

TEST(QueryServerTest, FullQueueRejectsWithResourceExhausted) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  ASSERT_GE(attrs.size(), 3u);

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  // A occupies the only worker (blocked at the gate, queue empty again).
  auto a = server.Submit(Query(attrs[0], attrs[1]));
  gate.WaitForArrivals(1);
  // B fills the queue's single slot.
  auto b = server.Submit(Query(attrs[1], attrs[2]));
  // C must be shed, immediately and with the explicit capacity status.
  auto c = server.Execute(Query(attrs[2], attrs[0]));
  EXPECT_EQ(c.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(c.source, ResponseSource::kError);

  gate.Open();
  EXPECT_TRUE(a.get().status.ok());
  EXPECT_TRUE(b.get().status.ok());

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.served, 2u);
  EXPECT_EQ(metrics.queue_depth_high_water, 1u);
  EXPECT_EQ(metrics.submitted,
            metrics.served + metrics.rejected + metrics.failed);
}

// ------------------------------------------------------------- Deadlines

TEST(QueryServerTest, QueuedPastDeadlineFailsWithoutCorruptingCache) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  // A holds the only worker; B (1 ms deadline) waits behind it in the
  // queue until the deadline has long passed.
  auto a = server.Submit(Query(attrs[0], attrs[1]));
  gate.WaitForArrivals(1);
  auto b = server.Submit(Query(attrs[1], attrs[2], /*timeout=*/0.001));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();

  EXPECT_TRUE(a.get().status.ok());
  auto expired = b.get();
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.result(), nullptr);

  // The failed request's pending cache claim was evicted, never stored:
  // the same query without a deadline recomputes cleanly...
  auto retry = server.Execute(Query(attrs[1], attrs[2]));
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  EXPECT_EQ(retry.source, ResponseSource::kExecuted);

  // ...and matches a direct pipeline run bit for bit.
  const datagen::Scenario& sc = *bundle->scenario;
  core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                          bundle->default_options);
  auto direct = pipeline.Run(sc.input_table, sc.spec.entity_column,
                             attrs[1], attrs[2]);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(FormatResultPayload(*retry.result()),
            FormatResultPayload(*direct));

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.deadline_exceeded, 1u);
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_EQ(metrics.submitted,
            metrics.served + metrics.rejected + metrics.failed);
}

TEST(QueryServerTest, MidExecutionDeadlineCancelsThePipelineRun) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  // The hook sleeps past the request deadline *after* the pre-execution
  // deadline check, so the expiry is only observable via the CancelToken
  // polled inside Pipeline::Run at stage boundaries.
  QueryServerOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  QueryServer server(&registry, options);

  auto expired = server.Execute(Query(attrs[0], attrs[1], /*timeout=*/0.005));
  EXPECT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.result(), nullptr);

  auto retry = server.Execute(Query(attrs[0], attrs[1]));
  ASSERT_TRUE(retry.status.ok()) << retry.status.ToString();
  EXPECT_EQ(retry.source, ResponseSource::kExecuted);
}

/// A request coalesced onto an in-flight leader is held to its own
/// deadline: when the shared outcome lands after it, the follower fails
/// with kDeadlineExceeded, while the leader's result is served and cached.
TEST(QueryServerTest, CoalescedFollowerPastItsDeadlineFails) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  auto leader = server.Submit(Query(attrs[0], attrs[1]));
  gate.WaitForArrivals(1);
  auto follower = server.Submit(Query(attrs[0], attrs[1], /*timeout=*/0.01));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  const auto lead = leader.get();
  ASSERT_TRUE(lead.status.ok()) << lead.status.ToString();
  EXPECT_EQ(lead.source, ResponseSource::kExecuted);
  const auto late = follower.get();
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.source, ResponseSource::kError);
  EXPECT_EQ(late.result(), nullptr);
  EXPECT_EQ(server.Execute(Query(attrs[0], attrs[1])).source,
            ResponseSource::kCacheHit);

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.coalesced, 1u);
  EXPECT_EQ(metrics.executions, 1u);
  EXPECT_EQ(metrics.deadline_exceeded, 1u);
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_EQ(metrics.served, 2u);
}

// -------------------------------------------------------------- Shutdown

TEST(QueryServerTest, ShutdownCancelsQueuedAndInFlightWork) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;

  Gate gate;
  QueryServerOptions options;
  options.num_workers = 1;
  options.pre_execute_hook = [&gate] { gate.Arrive(); };
  QueryServer server(&registry, options);

  auto in_flight = server.Submit(Query(attrs[0], attrs[1]));
  gate.WaitForArrivals(1);
  auto queued = server.Submit(Query(attrs[1], attrs[2]));

  std::thread shutdown([&server] { server.Shutdown(); });
  // Shutdown drains the queue first, then joins the gated worker.
  EXPECT_EQ(queued.get().status.code(), StatusCode::kCancelled);
  gate.Open();
  shutdown.join();

  // The in-flight run saw its cancel token and aborted at a stage
  // boundary instead of completing.
  EXPECT_EQ(in_flight.get().status.code(), StatusCode::kCancelled);

  auto after = server.Execute(Query(attrs[0], attrs[1]));
  EXPECT_EQ(after.status.code(), StatusCode::kCancelled);
}

// --------------------------------------------------- Cache invalidation

TEST(QueryServerTest, InvalidateCacheDropsCompletedEntriesOnly) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  QueryServerOptions options;
  options.num_workers = 1;
  QueryServer server(&registry, options);

  const auto q = Query(attrs[0], attrs[1]);
  EXPECT_EQ(server.Execute(q).source, ResponseSource::kExecuted);
  EXPECT_EQ(server.Execute(q).source, ResponseSource::kCacheHit);
  EXPECT_EQ(server.InvalidateCache(), 1u);
  EXPECT_EQ(server.Execute(q).source, ResponseSource::kExecuted);
  EXPECT_EQ(server.Metrics().executions, 2u);
}

// ------------------------------------------- Streaming updates (epoch roll)

/// UpdateScenario through the server: answers served after the rollover
/// must equal — byte for byte — a direct Pipeline::Run on the grown
/// table, the superseded epoch's plan is rebuilt for the new one, and the
/// streaming counters tick.
TEST(QueryServerTest, UpdateScenarioServesFreshAnswers) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  QueryServerOptions options;
  options.num_workers = 2;
  QueryServer server(&registry, options);

  // Build the epoch-1 plan (planned query) and a full-mode answer, both
  // of which go stale with the update.
  auto planned = Query(attrs[0], attrs[1]);
  planned.mode = QueryMode::kPlanned;
  (void)server.Execute(planned);
  const auto q = Query(attrs[0], attrs[1]);
  auto before = server.Execute(q);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.scenario_epoch, bundle->epoch);

  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < 30; ++r) picks.push_back(r);
  const table::Table batch = bundle->input->TakeRows(picks);
  auto updated = server.UpdateScenario("covid", batch);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_GT((*updated)->epoch, bundle->epoch);

  auto after = server.Execute(q);
  ASSERT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(after.source, ResponseSource::kExecuted);  // stale entry gone
  EXPECT_EQ(after.scenario_epoch, (*updated)->epoch);
  {
    const datagen::Scenario& sc = *bundle->scenario;
    core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                            bundle->default_options);
    auto direct = pipeline.Run(*(*updated)->input, sc.spec.entity_column,
                               attrs[0], attrs[1]);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(FormatResultPayload(*after.result()),
              FormatResultPayload(*direct));
  }
  auto replanned = server.Execute(planned);
  ASSERT_TRUE(replanned.status.ok()) << replanned.status.ToString();
  EXPECT_EQ(replanned.scenario_epoch, (*updated)->epoch);

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.plan_builds, 2u);  // one per epoch
  EXPECT_EQ(metrics.epoch_rollovers, 1u);
  EXPECT_EQ(metrics.rows_appended, 30u);
  EXPECT_EQ(metrics.update_latency.total_count, 1u);

  // Unknown scenario surfaces the registry error untouched.
  EXPECT_EQ(server.UpdateScenario("nope", batch).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------Line protocol

TEST(LineProtocolTest, ParseCommandLine) {
  auto query = ParseCommandLine("query covid country_code covid_death_rate");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->kind, ServerCommand::Kind::kQuery);
  EXPECT_EQ(query->query.scenario, "covid");
  EXPECT_EQ(query->query.exposure, "country_code");
  EXPECT_EQ(query->query.outcome, "covid_death_rate");
  EXPECT_EQ(query->query.timeout_seconds, 0.0);

  auto timed = ParseCommandLine("query covid a b timeout=0.25");
  ASSERT_TRUE(timed.ok());
  EXPECT_DOUBLE_EQ(timed->query.timeout_seconds, 0.25);

  EXPECT_EQ(ParseCommandLine("metrics")->kind,
            ServerCommand::Kind::kMetrics);
  EXPECT_EQ(ParseCommandLine("scenarios")->kind,
            ServerCommand::Kind::kScenarios);
  EXPECT_EQ(ParseCommandLine("quit")->kind, ServerCommand::Kind::kQuit);

  // Blank lines / comments are skipped silently (empty error message).
  for (const char* silent : {"", "   ", "# comment"}) {
    auto parsed = ParseCommandLine(silent);
    EXPECT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().message().empty()) << "'" << silent << "'";
  }
  // Real mistakes carry a message.
  for (const char* bad : {"query covid only_two", "frobnicate", "query"}) {
    auto parsed = ParseCommandLine(bad);
    EXPECT_FALSE(parsed.ok());
    EXPECT_FALSE(parsed.status().message().empty()) << "'" << bad << "'";
  }
}

TEST(LineProtocolTest, ParsesUpdateCommand) {
  auto update = ParseCommandLine("update covid rows=/tmp/batch.csv");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->kind, ServerCommand::Kind::kUpdate);
  EXPECT_EQ(update->update_scenario, "covid");
  EXPECT_EQ(update->update_rows_path, "/tmp/batch.csv");

  // Every malformed variant carries the usage line or names the bad
  // argument — never a silent skip.
  for (const char* bad :
       {"update", "update covid", "update rows=/tmp/x.csv",
        "update covid rows="}) {
    auto parsed = ParseCommandLine(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_NE(parsed.status().message().find("usage: update"),
              std::string::npos)
        << "'" << bad << "': " << parsed.status().ToString();
  }
  auto unknown = ParseCommandLine("update covid rows=/tmp/x.csv retry=3");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown update argument "
                                            "'retry=3'"),
            std::string::npos)
      << unknown.status().ToString();
  // The unknown-verb message advertises the verb.
  auto verb = ParseCommandLine("upsert covid");
  EXPECT_FALSE(verb.ok());
  EXPECT_NE(verb.status().message().find("update"), std::string::npos);
}

TEST(LineProtocolTest, RejectsNonFiniteAndNegativeTimeouts) {
  // strtod accepts all of these, and each would have silently meant "no
  // deadline" downstream; the parser must reject them with a message.
  for (const char* bad :
       {"timeout=-5", "timeout=-0.001", "timeout=nan", "timeout=inf",
        "timeout=-inf", "timeout=1e999"}) {
    auto parsed =
        ParseCommandLine(std::string("query covid a b ") + bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find("timeout"), std::string::npos)
        << bad << ": " << parsed.status().ToString();
  }
  // Valid timeouts still round-trip exactly.
  for (const auto& [arg, want] :
       std::vector<std::pair<const char*, double>>{
           {"timeout=0", 0.0}, {"timeout=0.25", 0.25},
           {"timeout=1e-3", 1e-3}}) {
    auto parsed = ParseCommandLine(std::string("query covid a b ") + arg);
    ASSERT_TRUE(parsed.ok()) << arg << ": " << parsed.status().ToString();
    EXPECT_DOUBLE_EQ(parsed->query.timeout_seconds, want) << arg;
  }
}

TEST(LineProtocolTest, ParsesQueryMode) {
  EXPECT_EQ(ParseCommandLine("query covid a b")->query.mode,
            QueryMode::kFull);
  EXPECT_EQ(ParseCommandLine("query covid a b mode=full")->query.mode,
            QueryMode::kFull);
  EXPECT_EQ(ParseCommandLine("query covid a b mode=planned")->query.mode,
            QueryMode::kPlanned);
  auto combined =
      ParseCommandLine("query covid a b timeout=0.5 mode=planned");
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->query.mode, QueryMode::kPlanned);
  EXPECT_DOUBLE_EQ(combined->query.timeout_seconds, 0.5);

  auto bad = ParseCommandLine("query covid a b mode=bogus");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("mode"), std::string::npos);
}

TEST(LineProtocolTest, ParsesSummarizeCommand) {
  auto parsed = ParseCommandLine("summarize covid k=6");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, ServerCommand::Kind::kSummarize);
  EXPECT_EQ(parsed->query.mode, QueryMode::kSummarize);
  EXPECT_EQ(parsed->query.scenario, "covid");
  EXPECT_EQ(parsed->query.summarize_k, 6u);
  EXPECT_EQ(parsed->query.summarize_format, "dot");
  EXPECT_EQ(parsed->query.timeout_seconds, 0.0);

  auto full = ParseCommandLine("summarize flights k=2 format=json timeout=0.5");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->query.scenario, "flights");
  EXPECT_EQ(full->query.summarize_k, 2u);
  EXPECT_EQ(full->query.summarize_format, "json");
  EXPECT_DOUBLE_EQ(full->query.timeout_seconds, 0.5);

  // Missing pieces fall back to the usage line.
  for (const char* bad : {"summarize", "summarize covid"}) {
    auto p = ParseCommandLine(bad);
    EXPECT_FALSE(p.ok()) << "'" << bad << "'";
    EXPECT_NE(p.status().message().find("usage: summarize"),
              std::string::npos)
        << "'" << bad << "': " << p.status().ToString();
  }
  // k below 2 is rejected at parse with the budget rule spelled out.
  for (const char* bad : {"summarize covid k=0", "summarize covid k=1"}) {
    auto p = ParseCommandLine(bad);
    EXPECT_FALSE(p.ok()) << "'" << bad << "'";
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(p.status().message().find("at least 2"), std::string::npos)
        << "'" << bad << "': " << p.status().ToString();
  }
  // Non-integer / negative / malformed k never reaches the server
  // (strtoull would have silently wrapped the negatives).
  for (const char* bad : {"summarize covid k=-3", "summarize covid k=4.5",
                          "summarize covid k=abc", "summarize covid k="}) {
    auto p = ParseCommandLine(bad);
    EXPECT_FALSE(p.ok()) << "'" << bad << "'";
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(p.status().message().find("bad k value"), std::string::npos)
        << "'" << bad << "': " << p.status().ToString();
  }
  auto bad_format = ParseCommandLine("summarize covid k=5 format=yaml");
  EXPECT_FALSE(bad_format.ok());
  EXPECT_NE(bad_format.status().message().find("expected dot|json"),
            std::string::npos)
      << bad_format.status().ToString();
  auto unknown = ParseCommandLine("summarize covid k=5 depth=2");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(
      unknown.status().message().find("unknown summarize argument 'depth=2'"),
      std::string::npos)
      << unknown.status().ToString();
  // Bad timeouts are rejected the same way as for query.
  auto bad_timeout = ParseCommandLine("summarize covid k=5 timeout=-1");
  EXPECT_FALSE(bad_timeout.ok());
  EXPECT_NE(bad_timeout.status().message().find("timeout"),
            std::string::npos);
}

TEST(LineProtocolTest, SummarizeResponseLineCarriesModeAndPayload) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const std::size_t n =
      FreshPlan(*bundle).artifact().build.cdag.num_clusters();
  QueryServer server(&registry);

  const auto q = SummarizeQuery(n - 1);
  const auto response = server.Execute(q);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const auto line = FormatResponseLine(q, response);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.rfind("ok ", 0), 0u) << line;
  EXPECT_NE(line.find("mode=summarize"), std::string::npos) << line;
  EXPECT_NE(line.find("format=dot"), std::string::npos) << line;
  EXPECT_NE(line.find("nodes="), std::string::npos) << line;
  EXPECT_NE(line.find("compression="), std::string::npos) << line;
  EXPECT_NE(line.find("fingerprint="), std::string::npos) << line;
  EXPECT_NE(line.find("payload=\""), std::string::npos) << line;
  // The DOT rendering is multi-line; the escaping must keep the protocol
  // single-line and the raw bytes must not leak through unescaped.
  EXPECT_NE(response.summary()->dot.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos) << line;

  // Budgets past the DAG size fail at execution, naming the size.
  const auto too_big = SummarizeQuery(n + 1);
  const auto err = server.Execute(too_big);
  EXPECT_EQ(err.status.code(), StatusCode::kInvalidArgument);
  const auto err_line = FormatResponseLine(too_big, err);
  EXPECT_EQ(err_line.rfind("error ", 0), 0u) << err_line;
  EXPECT_NE(err_line.find("mode=summarize"), std::string::npos) << err_line;
  EXPECT_NE(err_line.find("code=InvalidArgument"), std::string::npos)
      << err_line;
  EXPECT_NE(err_line.find("exceeds"), std::string::npos) << err_line;
}

TEST(LineProtocolTest, PlannedResponseLineCarriesModeAndPairPayload) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  QueryServer server(&registry);

  auto q = Query(attrs[0], attrs[1]);
  q.mode = QueryMode::kPlanned;
  const auto response = server.Execute(q);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  const auto line = FormatResponseLine(q, response);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("mode=planned"), std::string::npos) << line;
  EXPECT_NE(line.find("mediators="), std::string::npos) << line;
  EXPECT_NE(line.find("confounders="), std::string::npos) << line;
  EXPECT_NE(line.find("fingerprint="), std::string::npos) << line;
}

TEST(LineProtocolTest, PayloadAndFingerprintAreDeterministic) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  const datagen::Scenario& sc = *bundle->scenario;
  core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                          bundle->default_options);

  auto first = pipeline.Run(sc.input_table, sc.spec.entity_column, attrs[0],
                            attrs[1]);
  auto second = pipeline.Run(sc.input_table, sc.spec.entity_column, attrs[0],
                             attrs[1]);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(ResultFingerprint(*first), ResultFingerprint(*second));
  EXPECT_EQ(FormatResultPayload(*first), FormatResultPayload(*second));

  auto other = pipeline.Run(sc.input_table, sc.spec.entity_column, attrs[1],
                            attrs[0]);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(ResultFingerprint(*first), ResultFingerprint(*other));
}

TEST(LineProtocolTest, FormatResponseLineIsSingleLine) {
  ScenarioRegistry registry;
  auto bundle = *registry.Register("covid", BuildCovid());
  const auto& attrs = bundle->numeric_attributes;
  QueryServer server(&registry);

  const auto q = Query(attrs[0], attrs[1]);
  const auto ok_line = FormatResponseLine(q, server.Execute(q));
  EXPECT_EQ(ok_line.find('\n'), std::string::npos);
  EXPECT_EQ(ok_line.rfind("ok ", 0), 0u) << ok_line;
  EXPECT_NE(ok_line.find("source=executed"), std::string::npos) << ok_line;
  EXPECT_NE(ok_line.find("fingerprint="), std::string::npos) << ok_line;

  const auto bad = Query(attrs[0], attrs[0]);
  const auto error_line = FormatResponseLine(bad, server.Execute(bad));
  EXPECT_EQ(error_line.find('\n'), std::string::npos);
  EXPECT_EQ(error_line.rfind("error ", 0), 0u) << error_line;
  EXPECT_NE(error_line.find("code=InvalidArgument"), std::string::npos)
      << error_line;
}

// ---------------------------------------------------------------Metrics

TEST(MetricsTest, SnapshotSinceSubtractsCounters) {
  ServerMetrics metrics;
  metrics.submitted.store(10);
  metrics.served.store(7);
  metrics.failed.store(3);
  metrics.latency.Record(1e-4);
  const auto before = metrics.Snapshot();

  metrics.submitted.store(15);
  metrics.served.store(11);
  metrics.failed.store(4);
  metrics.latency.Record(1e-3);
  metrics.ObserveQueueDepth(5);

  const auto delta = metrics.Snapshot().Since(before);
  EXPECT_EQ(delta.submitted, 5u);
  EXPECT_EQ(delta.served, 4u);
  EXPECT_EQ(delta.failed, 1u);
  EXPECT_EQ(delta.queue_depth_high_water, 5u);  // running max, not a rate
  EXPECT_EQ(delta.latency.total_count, 1u);

  EXPECT_FALSE(delta.ToLine().empty());
}

TEST(MetricsTest, StreamingCountersSubtractAndRender) {
  ServerMetrics metrics;
  metrics.epoch_rollovers.store(2);
  metrics.rows_appended.store(50);
  metrics.update_latency.Record(2e-3);
  const auto before = metrics.Snapshot();
  EXPECT_EQ(before.epoch_rollovers, 2u);
  EXPECT_EQ(before.rows_appended, 50u);
  EXPECT_EQ(before.update_latency.total_count, 1u);

  metrics.epoch_rollovers.store(3);
  metrics.rows_appended.store(75);
  metrics.update_latency.Record(4e-3);
  const auto delta = metrics.Snapshot().Since(before);
  EXPECT_EQ(delta.epoch_rollovers, 1u);
  EXPECT_EQ(delta.rows_appended, 25u);
  EXPECT_EQ(delta.update_latency.total_count, 1u);

  const std::string line = metrics.Snapshot().ToLine();
  EXPECT_NE(line.find("epoch_rollovers=3"), std::string::npos) << line;
  EXPECT_NE(line.find("rows_appended=75"), std::string::npos) << line;
  EXPECT_NE(line.find("update_p99_us="), std::string::npos) << line;
}

TEST(MetricsTest, ObserveQueueDepthKeepsMaximum) {
  ServerMetrics metrics;
  metrics.ObserveQueueDepth(3);
  metrics.ObserveQueueDepth(1);
  EXPECT_EQ(metrics.Snapshot().queue_depth_high_water, 3u);
  metrics.ObserveQueueDepth(9);
  EXPECT_EQ(metrics.Snapshot().queue_depth_high_water, 9u);
}

// -------------------------------------- sharded registry & memory budget

/// A grid cell as a QueryServer::ScenarioBuilder — the serving layer's
/// runtime-registration path. Grid rebuilds are bit-identical, which is
/// what lets eviction recovery re-register a name and still serve
/// byte-equal answers under a fresh epoch.
QueryServer::ScenarioBuilder GridBuilder(const std::string& cell,
                                         std::size_t entities = 60) {
  return [cell,
          entities]() -> Result<std::shared_ptr<const datagen::Scenario>> {
    auto built = datagen::BuildGridScenario(cell, entities);
    if (!built.ok()) return built.status();
    return std::shared_ptr<const datagen::Scenario>(
        std::move(built).value());
  };
}

/// Sum of memory_bytes over every live bundle, via public snapshots —
/// the ground truth the registry_bytes gauge must equal at quiescence.
std::size_t LiveBundleBytes(ScenarioRegistry& registry) {
  std::size_t sum = 0;
  for (const auto& name : registry.Names()) {
    auto bundle = registry.Snapshot(name);
    if (bundle.ok()) sum += (*bundle)->memory_bytes;
  }
  return sum;
}

std::uint64_t SumShardBytes(const RegistryStats& stats) {
  std::uint64_t sum = 0;
  for (const auto b : stats.shard_bytes) sum += b;
  return sum;
}

TEST(ShardedRegistryTest, MemoryBudgetEvictsUnderSkewedMixOf120Names) {
  // One built scenario shared under 120 names: per-registration cost is
  // a stats recompute, so the mix stays fast while every name carries a
  // real byte charge.
  std::shared_ptr<const datagen::Scenario> scenario(BuildCovid());
  ScenarioRegistry probe;
  const std::size_t per = (*probe.Register("probe", scenario))->memory_bytes;
  ASSERT_GT(per, 0u);

  RegistryOptions options;
  options.num_shards = 4;
  options.memory_budget_bytes = per * 12;  // ~3 live bundles per shard
  ScenarioRegistry registry(options);
  std::vector<std::string> names;
  for (int i = 0; i < 120; ++i) {
    names.push_back("s" + std::to_string(i));
    ASSERT_TRUE(registry.Register(names.back(), scenario).ok()) << i;
    // Skew: re-touch the first name after every registration, so it is
    // never the coldest entry of its shard when the budget enforces.
    (void)registry.Snapshot(names.front());
  }

  const auto stats = registry.Stats();
  EXPECT_EQ(stats.scenarios_registered, 120u);
  EXPECT_GT(stats.scenarios_evicted, 0u);
  EXPECT_EQ(stats.scenarios_evicted + registry.size(), 120u);
  EXPECT_LT(registry.size(), 120u);
  // Byte accounting: the gauge equals the live bundles, shard gauges sum
  // to the total, and every shard respects its slice of the budget.
  EXPECT_EQ(stats.registry_bytes, LiveBundleBytes(registry));
  EXPECT_EQ(SumShardBytes(stats), stats.registry_bytes);
  ASSERT_EQ(stats.shard_bytes.size(), 4u);
  for (const auto bytes : stats.shard_bytes) {
    EXPECT_LE(bytes, options.memory_budget_bytes / 4);
  }
  // The hot name survived the churn.
  EXPECT_TRUE(registry.Snapshot(names.front()).ok());

  // Evicted names reject with a descriptive NotFound...
  std::string evicted;
  for (const auto& name : names) {
    if (!registry.Snapshot(name).ok()) {
      evicted = name;
      break;
    }
  }
  ASSERT_FALSE(evicted.empty());
  const auto miss = registry.Snapshot(evicted).status();
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
  EXPECT_NE(miss.message().find("evicted by the memory budget"),
            std::string::npos)
      << miss.ToString();
  // ...and re-register cleanly, with the accounting still exact.
  ASSERT_TRUE(registry.Register(evicted, scenario).ok());
  EXPECT_TRUE(registry.Snapshot(evicted).ok());
  EXPECT_EQ(registry.Stats().registry_bytes, LiveBundleBytes(registry));
}

TEST(ShardedRegistryTest, SingleShardLruEvictsColdestAndTouchFreshens) {
  std::shared_ptr<const datagen::Scenario> scenario(BuildCovid());
  ScenarioRegistry probe;
  const std::size_t per = (*probe.Register("probe", scenario))->memory_bytes;

  RegistryOptions options;
  options.num_shards = 1;
  options.memory_budget_bytes = per * 3 + per / 2;  // room for exactly 3
  ScenarioRegistry registry(options);
  ASSERT_TRUE(registry.Register("a", scenario).ok());
  ASSERT_TRUE(registry.Register("b", scenario).ok());
  ASSERT_TRUE(registry.Register("c", scenario).ok());
  EXPECT_EQ(registry.size(), 3u);

  // Touch `a`: `b` is now the coldest, so the next registration evicts
  // it — not the oldest-registered `a`.
  ASSERT_TRUE(registry.Snapshot("a").ok());
  ASSERT_TRUE(registry.Register("d", scenario).ok());
  EXPECT_TRUE(registry.Snapshot("a").ok());
  EXPECT_TRUE(registry.Snapshot("c").ok());
  EXPECT_TRUE(registry.Snapshot("d").ok());
  EXPECT_EQ(registry.Snapshot("b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Stats().scenarios_evicted, 1u);
}

TEST(ShardedRegistryTest, ByteAccountingSurvivesChurnInterleavings) {
  std::shared_ptr<const datagen::Scenario> scenario(BuildCovid());
  ScenarioRegistry probe;
  const std::size_t per = (*probe.Register("probe", scenario))->memory_bytes;

  RegistryOptions options;
  options.num_shards = 2;
  options.memory_budget_bytes = per * 8;
  ScenarioRegistry registry(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        registry.Register("n" + std::to_string(i), scenario).ok());
  }
  // Replace bumps an epoch without double-charging the name.
  ASSERT_TRUE(registry.Replace("n2", scenario).ok());
  // Unregister refunds its bytes.
  ASSERT_TRUE(registry.Unregister("n3").ok());
  // A row-batch update recharges the grown bundle.
  {
    auto bundle = registry.Snapshot("n4");
    ASSERT_TRUE(bundle.ok());
    std::vector<std::size_t> picks = {0, 1, 2, 3, 4};
    const std::size_t before = (*bundle)->memory_bytes;
    auto updated =
        registry.UpdateScenario("n4", (*bundle)->input->TakeRows(picks));
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_GT((*updated)->memory_bytes, before);
  }

  const auto stats = registry.Stats();
  EXPECT_EQ(stats.registry_bytes, LiveBundleBytes(registry));
  EXPECT_EQ(SumShardBytes(stats), stats.registry_bytes);
  EXPECT_EQ(stats.scenarios_unregistered, 1u);
  EXPECT_EQ(stats.scenarios, registry.size());

  // An unregistered name reports why it is gone — distinct from the
  // budget-eviction message.
  const auto miss = registry.Snapshot("n3").status();
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
  EXPECT_NE(miss.message().find("unregistered"), std::string::npos)
      << miss.ToString();
}

TEST(ShardedRegistryTest, NamesAreSortedAndShardCountInvariant) {
  std::shared_ptr<const datagen::Scenario> scenario(BuildCovid());
  const std::vector<std::string> names = {"zeta", "alpha", "mid",
                                          "beta9", "beta10"};
  std::vector<std::vector<std::string>> listings;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{8}}) {
    RegistryOptions options;
    options.num_shards = shards;
    ScenarioRegistry registry(options);
    for (const auto& name : names) {
      ASSERT_TRUE(registry.Register(name, scenario).ok());
    }
    listings.push_back(registry.Names());
  }
  const std::vector<std::string> want = {"alpha", "beta10", "beta9", "mid",
                                         "zeta"};
  for (const auto& listing : listings) EXPECT_EQ(listing, want);
}

TEST(ShardedRegistryTest, EvictionRacingInFlightUpdatePreservesSnapshot) {
  RegistryOptions options;
  options.num_shards = 1;
  ScenarioRegistry registry(options);
  auto registered = registry.Register("covid", BuildCovid());
  ASSERT_TRUE(registered.ok());
  const auto snapshot = *registered;
  const std::size_t rows = snapshot->input->num_rows();

  // The name disappears (budget eviction and unregister share the same
  // path) while a consumer still holds the snapshot.
  ASSERT_TRUE(registry.Unregister("covid").ok());
  EXPECT_EQ(snapshot->input->num_rows(), rows);
  EXPECT_EQ(snapshot->input_stats->num_rows(), rows);

  // Publishing a row batch to the evicted name is rejected with the
  // reason and the remedy, not applied to a ghost entry.
  std::vector<std::size_t> picks = {0, 1, 2};
  const auto st =
      registry.UpdateScenario("covid", snapshot->input->TakeRows(picks))
          .status();
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_NE(st.message().find("unregistered"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("re-register"), std::string::npos)
      << st.ToString();
}

// ---------------------------------------- runtime register / unregister

TEST(QueryServerTest, RegisterScenarioSingleFlightBuildsOnce) {
  ScenarioRegistry registry;
  QueryServer server(&registry);

  std::atomic<int> builds{0};
  const auto slow_build =
      [&]() -> Result<std::shared_ptr<const datagen::Scenario>> {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto built = datagen::BuildGridScenario("grid_c4_lin_cont_m0_p1_o0", 60);
    if (!built.ok()) return built.status();
    return std::shared_ptr<const datagen::Scenario>(
        std::move(built).value());
  };

  std::vector<std::future<Result<std::shared_ptr<const ScenarioBundle>>>>
      futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return server.RegisterScenario("grid", slow_build);
    }));
  }
  std::vector<std::shared_ptr<const ScenarioBundle>> bundles;
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    bundles.push_back(*result);
  }
  // One build; every caller shares the one published bundle.
  EXPECT_EQ(builds.load(), 1);
  for (const auto& b : bundles) EXPECT_EQ(b.get(), bundles[0].get());
  // A later non-replace registration fails fast without rebuilding.
  EXPECT_EQ(server.RegisterScenario("grid", slow_build).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(builds.load(), 1);
  server.Shutdown();
}

TEST(QueryServerTest, UnregisterSweepsOnlyThatScenariosCacheEntries) {
  ScenarioRegistry registry;
  (void)registry.Register("covid", BuildCovid());
  auto flights = *registry.Register("flights", BuildFlights());
  QueryServer server(&registry);

  CdiQuery covid_q = Query("country_code", "covid_death_rate");
  CdiQuery flights_q;
  flights_q.scenario = "flights";
  flights_q.exposure = flights->numeric_attributes[0];
  flights_q.outcome = flights->numeric_attributes[1];

  ASSERT_TRUE(server.Execute(covid_q).status.ok());
  const auto flights_first = server.Execute(flights_q);
  ASSERT_TRUE(flights_first.status.ok());

  ASSERT_TRUE(server.UnregisterScenario("covid").ok());

  // The flights entry survived the sweep: still a byte-identical hit.
  const auto flights_again = server.Execute(flights_q);
  ASSERT_TRUE(flights_again.status.ok());
  EXPECT_EQ(flights_again.source, ResponseSource::kCacheHit);
  EXPECT_EQ(FormatResultPayload(*flights_again.result()),
            FormatResultPayload(*flights_first.result()));

  // The covid name rejects descriptively; unregistering twice says why.
  const auto miss = server.Execute(covid_q).status;
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);
  EXPECT_NE(miss.message().find("unregistered"), std::string::npos);
  EXPECT_EQ(server.UnregisterScenario("covid").code(),
            StatusCode::kNotFound);

  // Re-registering the name serves fresh answers again.
  auto again = server.RegisterScenario(
      "covid",
      []() -> Result<std::shared_ptr<const datagen::Scenario>> {
        return std::shared_ptr<const datagen::Scenario>(BuildCovid());
      });
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(server.Execute(covid_q).status.ok());
  server.Shutdown();
}

TEST(QueryServerTest, ConcurrentRegisterUnregisterQueryRacesStayCoherent) {
  // Three known-good grid cells at 60 entities; a budget that holds
  // roughly two of them keeps eviction churn running throughout.
  const std::vector<std::string> cells = {"grid_c4_lin_cont_m0_p1_o0",
                                          "grid_c4_lin_cont_m0_p1_o1",
                                          "grid_c4_lin_cont_m0_p2_o0"};

  // Expected payload per cell from a direct pipeline run over a private
  // build — the served answer must byte-match at every epoch.
  std::vector<std::string> expected;
  std::size_t cell_bytes = 0;
  {
    ScenarioRegistry probe;
    for (const auto& cell : cells) {
      auto built = datagen::BuildGridScenario(cell, 60);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      auto bundle = probe.Register(
          cell, std::shared_ptr<const datagen::Scenario>(
                    std::move(built).value()));
      ASSERT_TRUE(bundle.ok());
      cell_bytes = (*bundle)->memory_bytes;
      const datagen::Scenario& sc = *(*bundle)->scenario;
      core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                              (*bundle)->default_options);
      auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                              sc.exposure_attribute, sc.outcome_attribute);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      expected.push_back(FormatResultPayload(*run));
    }
  }

  RegistryOptions options;
  options.num_shards = 4;
  options.memory_budget_bytes = cell_bytes * 5 / 2;
  ScenarioRegistry registry(options);
  QueryServerOptions server_options;
  server_options.num_workers = 8;
  QueryServer server(&registry, server_options);

  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> unexpected{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(t + i) % cells.size();
        const auto& cell = cells[pick];
        switch ((t + i) % 4) {
          case 0:
            (void)server.RegisterScenario(cell, GridBuilder(cell), true);
            break;
          case 1:
            // NotFound when another thread already removed it is the
            // expected race outcome; anything else is a bug.
            if (const auto st = server.UnregisterScenario(cell);
                !st.ok() && st.code() != StatusCode::kNotFound) {
              unexpected.fetch_add(1);
            }
            break;
          default: {
            CdiQuery q;
            q.scenario = cell;
            q.exposure = "treatment_code";
            q.outcome = "outcome_score";
            const auto response = server.Execute(q);
            if (response.status.ok()) {
              if (FormatResultPayload(*response.result()) != expected[pick]) {
                torn.fetch_add(1);
              }
            } else if (response.status.code() != StatusCode::kNotFound) {
              unexpected.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(unexpected.load(), 0u);
  const auto stats = registry.Stats();
  EXPECT_EQ(stats.registry_bytes, LiveBundleBytes(registry));
  EXPECT_EQ(SumShardBytes(stats), stats.registry_bytes);
  server.Shutdown();
}

TEST(MetricsTest, RegistryGaugesFlowThroughServerMetricsAndToLine) {
  RegistryOptions options;
  options.num_shards = 2;
  ScenarioRegistry registry(options);
  QueryServer server(&registry);
  const std::string cell = "grid_c4_lin_cont_m0_p1_o0";
  ASSERT_TRUE(server.RegisterScenario(cell, GridBuilder(cell)).ok());

  const auto metrics = server.Metrics();
  EXPECT_EQ(metrics.scenarios_registered, 1u);
  EXPECT_EQ(metrics.registry_scenarios, 1u);
  EXPECT_GT(metrics.registry_bytes, 0u);
  ASSERT_EQ(metrics.shard_bytes.size(), 2u);
  EXPECT_EQ(metrics.shard_bytes[0] + metrics.shard_bytes[1],
            metrics.registry_bytes);
  const std::string line = metrics.ToLine();
  EXPECT_NE(line.find("scenarios_registered=1"), std::string::npos) << line;
  EXPECT_NE(line.find("registry_bytes="), std::string::npos) << line;
  EXPECT_NE(line.find("shard0_bytes="), std::string::npos) << line;
  EXPECT_NE(line.find("shard1_bytes="), std::string::npos) << line;

  ASSERT_TRUE(server.UnregisterScenario(cell).ok());
  const auto after = server.Metrics();
  EXPECT_EQ(after.scenarios_unregistered, 1u);
  EXPECT_EQ(after.registry_scenarios, 0u);
  EXPECT_EQ(after.registry_bytes, 0u);
  server.Shutdown();
}

TEST(LineProtocolTest, ParsesRegisterGenerateAndUnregister) {
  auto reg = ParseCommandLine(
      "register mysc input=in.csv entity=unit kg=k1.csv kg=k2.csv "
      "lake=l1.csv knowledge=dk.txt exposure=dose outcome=resp replace");
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  EXPECT_EQ(reg->kind, ServerCommand::Kind::kRegister);
  EXPECT_EQ(reg->target, "mysc");
  EXPECT_EQ(reg->register_input, "in.csv");
  EXPECT_EQ(reg->register_entity, "unit");
  EXPECT_EQ(reg->register_kg,
            (std::vector<std::string>{"k1.csv", "k2.csv"}));
  EXPECT_EQ(reg->register_lake, (std::vector<std::string>{"l1.csv"}));
  EXPECT_EQ(reg->register_knowledge, "dk.txt");
  EXPECT_EQ(reg->register_exposure, "dose");
  EXPECT_EQ(reg->register_outcome, "resp");
  EXPECT_TRUE(reg->replace);

  // input= and entity= are mandatory.
  EXPECT_EQ(ParseCommandLine("register x input=in.csv").status().code(),
            StatusCode::kInvalidArgument);

  auto gen = ParseCommandLine(
      "generate g grid=grid_c4_lin_cont_m0_p1_o0 entities=60 seed=5");
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen->kind, ServerCommand::Kind::kGenerate);
  EXPECT_EQ(gen->target, "g");
  EXPECT_EQ(gen->grid_cell, "grid_c4_lin_cont_m0_p1_o0");
  EXPECT_EQ(gen->generate_entities, 60u);
  EXPECT_EQ(gen->generate_seed, 5u);
  EXPECT_FALSE(gen->replace);
  EXPECT_EQ(ParseCommandLine("generate g entities=60").status().code(),
            StatusCode::kInvalidArgument);
  // Negative, overflowing and over-ceiling counts are rejected at parse
  // (strtoull would have wrapped "-1" into a 2^64-1 allocation request).
  for (const std::string& bad : std::vector<std::string>{
           "entities=-1", "entities=+5", "entities=18446744073709551616",
           "seed=-1", "seed=99999999999999999999999",
           "entities=" + std::to_string(kMaxGenerateEntities + 1)}) {
    auto p = ParseCommandLine("generate g grid=grid_c4_lin_cont_m0_p1_o0 " +
                              bad);
    EXPECT_FALSE(p.ok()) << bad;
    EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto ceiling = ParseCommandLine(
      "generate g grid=grid_c4_lin_cont_m0_p1_o0 entities=" +
      std::to_string(kMaxGenerateEntities) + " seed=18446744073709551615");
  ASSERT_TRUE(ceiling.ok()) << ceiling.status().ToString();
  EXPECT_EQ(ceiling->generate_entities, kMaxGenerateEntities);
  EXPECT_EQ(ceiling->generate_seed, 18446744073709551615ull);
  EXPECT_NE(ParseCommandLine("generate g")
                .status()
                .message()
                .find(std::to_string(kMaxGenerateEntities)),
            std::string::npos);

  auto unreg = ParseCommandLine("unregister mysc");
  ASSERT_TRUE(unreg.ok());
  EXPECT_EQ(unreg->kind, ServerCommand::Kind::kUnregister);
  EXPECT_EQ(unreg->target, "mysc");
  EXPECT_EQ(ParseCommandLine("unregister a b").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cdi::serve
