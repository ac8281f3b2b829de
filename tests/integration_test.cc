// End-to-end integration tests: the full CDI pipeline (Knowledge Extractor
// -> Data Organizer -> C-DAG Builder -> effect estimation) on both paper
// scenarios, plus the Table 3 evaluation harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>

#include "core/cdag_builder.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "datagen/covid.h"
#include "datagen/flights.h"

namespace cdi {
namespace {

using core::EdgeInference;

std::unique_ptr<datagen::Scenario> Build(datagen::ScenarioSpec spec) {
  auto s = datagen::BuildScenario(spec);
  CDI_CHECK(s.ok()) << s.status().ToString();
  return std::move(*s);
}

core::PipelineResult RunCater(const datagen::Scenario& scenario) {
  auto options = core::DefaultEvaluationOptions(scenario);
  options.builder.inference = EdgeInference::kHybrid;
  core::Pipeline pipeline(&scenario.kg, &scenario.lake, scenario.oracle.get(),
                          &scenario.topics, options);
  auto result = pipeline.Run(scenario.input_table,
                             scenario.spec.entity_column,
                             scenario.exposure_attribute,
                             scenario.outcome_attribute);
  CDI_CHECK(result.ok()) << result.status().ToString();
  return std::move(*result);
}

TEST(PipelineIntegrationTest, CovidEndToEnd) {
  auto scenario = Build(datagen::CovidSpec());
  auto run = RunCater(*scenario);

  // Extraction found attributes from both source kinds.
  EXPECT_GT(run.extraction.kg_columns_found, 3u);
  EXPECT_GT(run.extraction.lake_columns_found, 5u);
  EXPECT_GT(run.extraction.augmented.num_cols(),
            scenario->input_table.num_cols());

  // The organizer dropped the planted functional dependencies.
  EXPECT_NE(std::find(run.organization.dropped_fd_attributes.begin(),
                      run.organization.dropped_fd_attributes.end(),
                      "head_of_government"),
            run.organization.dropped_fd_attributes.end());
  EXPECT_NE(std::find(run.organization.dropped_fd_attributes.begin(),
                      run.organization.dropped_fd_attributes.end(),
                      "calling_code"),
            run.organization.dropped_fd_attributes.end());

  // MNAR missingness was diagnosed (the bias test itself can be
  // underpowered here because the climate -> outcome chain is largely
  // nonlinear; the DataOrganizer unit tests cover the powered case).
  bool diagnosed = false;
  for (const auto& m : run.organization.missingness) {
    if (m.attribute == "precipitation") {
      diagnosed = true;
      EXPECT_GT(m.missing_fraction, 0.03);
    }
  }
  EXPECT_TRUE(diagnosed);

  // The C-DAG is an actual DAG with the right number of clusters.
  EXPECT_TRUE(run.build.cdag.graph().IsAcyclic());
  EXPECT_EQ(run.build.cdag.num_clusters(), 11u);

  // Direct effect near zero (ground truth), total effect clearly not.
  EXPECT_LT(run.direct_effect.abs_effect, 0.12);
  EXPECT_GT(run.build.oracle_queries, 100u);
  EXPECT_GT(run.external.TotalSeconds(), 60.0);  // simulated service time
}

TEST(PipelineIntegrationTest, FlightsEndToEnd) {
  auto scenario = Build(datagen::FlightsSpec());
  auto run = RunCater(*scenario);
  EXPECT_TRUE(run.build.cdag.graph().IsAcyclic());
  EXPECT_EQ(run.build.cdag.num_clusters(), 9u);
  EXPECT_LT(run.direct_effect.abs_effect, 0.12);
  // Mediators include the paper's examples: weather and carrier.
  const auto meds = run.build.cdag.MediatorClusters();
  EXPECT_TRUE(meds.count("weather"));
  EXPECT_TRUE(meds.count("carrier"));
  // FD attributes dropped.
  EXPECT_FALSE(run.organization.organized.HasColumn("mayor"));
  EXPECT_FALSE(run.organization.organized.HasColumn("airport_iata_rank"));
}

TEST(PipelineIntegrationTest, CaterBitwiseIdenticalAcrossThreadCounts) {
  // The acceptance bar for the parallel CI engine: the full hybrid build
  // (pruning, augmentation, cycle repair, effect estimates) must be
  // bitwise-identical at 1 and 8 threads. Fresh scenarios per run so the
  // oracle's mutable query state starts identical.
  auto run_with_threads = [](int threads) {
    auto scenario = Build(datagen::CovidSpec());
    auto options = core::DefaultEvaluationOptions(*scenario);
    options.builder.inference = EdgeInference::kHybrid;
    options.num_threads = threads;
    core::Pipeline pipeline(&scenario->kg, &scenario->lake,
                            scenario->oracle.get(), &scenario->topics,
                            options);
    auto result = pipeline.Run(scenario->input_table,
                               scenario->spec.entity_column,
                               scenario->exposure_attribute,
                               scenario->outcome_attribute);
    CDI_CHECK(result.ok()) << result.status().ToString();
    return std::move(*result);
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(8);
  EXPECT_EQ(serial.build.claims, parallel.build.claims);
  EXPECT_EQ(serial.build.definite, parallel.build.definite);
  EXPECT_EQ(serial.build.pruned_edges, parallel.build.pruned_edges);
  EXPECT_EQ(serial.build.cycle_repaired_edges,
            parallel.build.cycle_repaired_edges);
  EXPECT_EQ(serial.build.cluster_topics, parallel.build.cluster_topics);
  EXPECT_EQ(serial.build.oracle_queries, parallel.build.oracle_queries);
  EXPECT_EQ(serial.build.ci_tests, parallel.build.ci_tests);
  EXPECT_EQ(serial.direct_effect.effect, parallel.direct_effect.effect);
  EXPECT_EQ(serial.total_effect.effect, parallel.total_effect.effect);
}

TEST(PipelineIntegrationTest, VarclusRecoversGroundTruthClusters) {
  auto scenario = Build(datagen::CovidSpec());
  auto run = RunCater(*scenario);
  // Each constructed cluster's member set equals a ground-truth cluster.
  std::size_t matched = 0;
  for (const auto& [topic, members] : run.build.cdag.members()) {
    std::vector<std::string> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [truth_name, truth_members] :
         scenario->cluster_members) {
      std::vector<std::string> truth_sorted = truth_members;
      std::sort(truth_sorted.begin(), truth_sorted.end());
      if (sorted == truth_sorted) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_GE(matched, 10u);  // at least 10 of 11 clusters exactly recovered
}

TEST(PipelineIntegrationTest, OracleOnlyMayBeCyclicButCaterIsNot) {
  auto scenario = Build(datagen::CovidSpec());
  auto options = core::DefaultEvaluationOptions(*scenario);
  options.builder.inference = EdgeInference::kOracleOnly;
  core::Pipeline pipeline(&scenario->kg, &scenario->lake,
                          scenario->oracle.get(), &scenario->topics, options);
  auto gpt3 = pipeline.Run(scenario->input_table,
                           scenario->spec.entity_column,
                           scenario->exposure_attribute,
                           scenario->outcome_attribute);
  ASSERT_TRUE(gpt3.ok());
  auto cater = RunCater(*scenario);
  // The paper observed GPT-3 output 2-cycles; CATER repairs to a DAG.
  EXPECT_GT(gpt3->build.claims.size(), cater.build.claims.size());
  EXPECT_TRUE(cater.build.cdag.graph().IsAcyclic());
}

TEST(PipelineIntegrationTest, DataBaselinesFindNoMediators) {
  auto scenario = Build(datagen::FlightsSpec());
  for (EdgeInference mode :
       {EdgeInference::kDataPc, EdgeInference::kDataGes}) {
    auto options = core::DefaultEvaluationOptions(*scenario);
    options.builder.inference = mode;
    core::Pipeline pipeline(&scenario->kg, &scenario->lake,
                            scenario->oracle.get(), &scenario->topics,
                            options);
    auto run = pipeline.Run(scenario->input_table,
                            scenario->spec.entity_column,
                            scenario->exposure_attribute,
                            scenario->outcome_attribute);
    ASSERT_TRUE(run.ok()) << core::EdgeInferenceName(mode);
    // The exposure's outgoing edges are not orientable from data alone, so
    // the recovered mediator set never matches the ground truth (it is
    // usually empty; occasionally a partial path slips through Meek's
    // propagation rules).
    std::set<std::string> truth_meds;
    {
      auto t = scenario->cluster_dag.NodeIdOf(
          scenario->spec.exposure_cluster);
      auto o = scenario->cluster_dag.NodeIdOf(
          scenario->spec.outcome_cluster);
      for (auto v : scenario->cluster_dag.NodesOnDirectedPaths(*t, *o)) {
        truth_meds.insert(scenario->cluster_dag.NodeName(v));
      }
    }
    const auto meds = run->build.cdag.MediatorClusters();
    EXPECT_NE(meds, truth_meds) << core::EdgeInferenceName(mode);
  }
}

TEST(EvaluationIntegrationTest, Table3ShapeHolds) {
  // The paper's headline claims, checked programmatically on one seed of
  // each scenario: (1) CATER has the best presence F1; (2) CATER's direct
  // effect is small; (3) GPT-3 Only claims the most edges; (4) no
  // data-centric baseline identifies the mediators exactly.
  for (auto spec : {datagen::FlightsSpec(), datagen::CovidSpec()}) {
    auto scenario = Build(spec);
    auto rows = core::EvaluateAllMethods(
        *scenario, core::DefaultEvaluationOptions(*scenario));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 6u);
    const auto& cater = (*rows)[0];
    ASSERT_EQ(cater.method, "CATER");
    for (std::size_t i = 1; i < rows->size(); ++i) {
      EXPECT_GE(cater.presence.f1 + 1e-9, (*rows)[i].presence.f1)
          << spec.name << ": " << (*rows)[i].method;
    }
    EXPECT_TRUE(cater.mediators_match_truth) << spec.name;
    EXPECT_LT(cater.direct_effect, 0.12) << spec.name;
    const auto& gpt3 = (*rows)[1];
    ASSERT_EQ(gpt3.method, "GPT-3 Only");
    for (std::size_t i = 0; i < rows->size(); ++i) {
      EXPECT_GE(gpt3.num_edges, (*rows)[i].num_edges) << spec.name;
    }
    // Constraint/score-based baselines never recover the mediators (their
    // exposure edges stay unoriented); LiNGAM occasionally can on FLIGHTS
    // thanks to the non-Gaussian noise, so it is exempted here (the
    // seed-averaged benchmark shows it at 1/5).
    for (std::size_t i = 2; i < rows->size(); ++i) {
      if ((*rows)[i].method == "LiNGAM") continue;
      EXPECT_FALSE((*rows)[i].mediators_match_truth)
          << spec.name << ": " << (*rows)[i].method;
    }
  }
}

TEST(PipelineIntegrationTest, RuntimeAccountingShape) {
  // The paper's end-to-end runtimes were dominated by external services;
  // our simulated latency must dwarf local wall clock, and FLIGHTS (more
  // entities) must charge more than COVID-19 — same ordering as the
  // paper's 645 s vs 304 s.
  auto covid = Build(datagen::CovidSpec());
  auto flights = Build(datagen::FlightsSpec());
  auto covid_run = RunCater(*covid);
  auto flights_run = RunCater(*flights);
  EXPECT_GT(covid_run.external.TotalSeconds(),
            covid_run.timings.total_seconds);
  EXPECT_GT(flights_run.external.TotalSeconds(),
            covid_run.external.TotalSeconds());
}

TEST(PipelineValidationTest, RejectsMissingOrConflictingColumns) {
  auto spec = datagen::CovidSpec();
  spec.num_entities = 120;
  auto scenario = Build(spec);
  core::Pipeline pipeline(&scenario->kg, &scenario->lake,
                          scenario->oracle.get(), &scenario->topics,
                          core::DefaultEvaluationOptions(*scenario));
  const auto& input = scenario->input_table;
  const std::string entity = scenario->spec.entity_column;
  const std::string exposure = scenario->exposure_attribute;
  const std::string outcome = scenario->outcome_attribute;

  // Missing exposure: descriptive error naming the column and the table's
  // actual schema, instead of a crash three stages downstream.
  auto missing_t = pipeline.Run(input, entity, "no_such_column", outcome);
  ASSERT_FALSE(missing_t.ok());
  EXPECT_EQ(missing_t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing_t.status().message().find("no_such_column"),
            std::string::npos)
      << missing_t.status().ToString();
  EXPECT_NE(missing_t.status().message().find(exposure), std::string::npos)
      << "message should list the available columns: "
      << missing_t.status().ToString();

  auto missing_o = pipeline.Run(input, entity, exposure, "no_such_column");
  ASSERT_FALSE(missing_o.ok());
  EXPECT_EQ(missing_o.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing_o.status().message().find("outcome"),
            std::string::npos);

  auto missing_e = pipeline.Run(input, "no_such_entity", exposure, outcome);
  ASSERT_FALSE(missing_e.ok());
  EXPECT_EQ(missing_e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing_e.status().message().find("no_such_entity"),
            std::string::npos);

  auto self_effect = pipeline.Run(input, entity, exposure, exposure);
  ASSERT_FALSE(self_effect.ok());
  EXPECT_EQ(self_effect.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(self_effect.status().message().find("distinct"),
            std::string::npos)
      << self_effect.status().ToString();

  auto entity_as_exposure = pipeline.Run(input, entity, entity, outcome);
  ASSERT_FALSE(entity_as_exposure.ok());
  EXPECT_EQ(entity_as_exposure.status().code(),
            StatusCode::kInvalidArgument);

  // And the same inputs pass validation when spelled correctly.
  auto ok_run = pipeline.Run(input, entity, exposure, outcome);
  EXPECT_TRUE(ok_run.ok()) << ok_run.status().ToString();
}

TEST(PipelineCancellationTest, TokenStopsRunAtStageBoundaries) {
  auto spec = datagen::CovidSpec();
  spec.num_entities = 120;
  auto scenario = Build(spec);
  core::Pipeline pipeline(&scenario->kg, &scenario->lake,
                          scenario->oracle.get(), &scenario->topics,
                          core::DefaultEvaluationOptions(*scenario));

  CancelToken cancelled;
  cancelled.Cancel();
  auto run = pipeline.Run(scenario->input_table, scenario->spec.entity_column,
                          scenario->exposure_attribute,
                          scenario->outcome_attribute, &cancelled);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);

  CancelToken expired;
  expired.set_deadline(CancelToken::Clock::now() -
                       std::chrono::milliseconds(1));
  auto late = pipeline.Run(scenario->input_table,
                           scenario->spec.entity_column,
                           scenario->exposure_attribute,
                           scenario->outcome_attribute, &expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  // A live token does not disturb the run.
  CancelToken live;
  auto ok_run = pipeline.Run(scenario->input_table,
                             scenario->spec.entity_column,
                             scenario->exposure_attribute,
                             scenario->outcome_attribute, &live);
  EXPECT_TRUE(ok_run.ok()) << ok_run.status().ToString();
}

}  // namespace
}  // namespace cdi
