#include "core/evaluation.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"

namespace cdi::core {

namespace {

/// Maps claim edges (topic-name pairs) into the ground-truth cluster node
/// space; topics absent from the ground truth get fresh ids past the truth
/// universe so they count as false-positive presence claims without
/// affecting the absence universe.
std::vector<graph::Edge> MapClaims(
    const std::vector<std::pair<std::string, std::string>>& claims,
    const graph::Digraph& truth) {
  std::map<std::string, graph::NodeId> extra;
  auto id_of = [&](const std::string& name) -> graph::NodeId {
    auto id = truth.NodeIdOf(name);
    if (id.ok()) return *id;
    auto [it, inserted] =
        extra.emplace(name, truth.num_nodes() + extra.size());
    return it->second;
  };
  std::vector<graph::Edge> out;
  for (const auto& [from, to] : claims) {
    out.emplace_back(id_of(from), id_of(to));
  }
  return out;
}

}  // namespace

PipelineOptions DefaultEvaluationOptions(const datagen::Scenario& scenario) {
  PipelineOptions options;
  // Pin the clustering granularity to the ground truth (minus the two
  // singleton exposure/outcome clusters handled separately).
  const int k = static_cast<int>(scenario.cluster_dag.num_nodes()) - 2;
  options.builder.varclus.min_clusters = k;
  options.builder.varclus.max_clusters = k;
  options.builder.alpha = 0.05;
  options.builder.max_cond_size = 2;
  return options;
}

Result<Table3Row> EvaluateMethod(const datagen::Scenario& scenario,
                                 EdgeInference mode,
                                 const PipelineOptions& base_options) {
  PipelineOptions options = base_options;
  options.builder.inference = mode;
  Pipeline pipeline(&scenario.kg, &scenario.lake, scenario.oracle.get(),
                    &scenario.topics, options);
  CDI_ASSIGN_OR_RETURN(
      PipelineResult run,
      pipeline.Run(scenario.input_table, scenario.spec.entity_column,
                   scenario.exposure_attribute, scenario.outcome_attribute));

  Table3Row row;
  row.method = EdgeInferenceName(mode);
  row.num_edges = run.build.claims.size();
  const auto mapped = MapClaims(run.build.claims, scenario.cluster_dag);
  const auto metrics = graph::CompareEdgeSets(
      scenario.cluster_dag.num_nodes(), mapped, scenario.cluster_dag.Edges());
  row.presence = metrics.presence;
  row.absence = metrics.absence;
  row.direct_effect = run.direct_effect.abs_effect;
  const auto meds = run.build.cdag.MediatorClusters();
  row.mediators.assign(meds.begin(), meds.end());

  // Ground-truth mediator clusters.
  std::set<std::string> truth_meds;
  {
    auto t = scenario.cluster_dag.NodeIdOf(scenario.spec.exposure_cluster);
    auto o = scenario.cluster_dag.NodeIdOf(scenario.spec.outcome_cluster);
    CDI_CHECK(t.ok() && o.ok());
    for (graph::NodeId v :
         scenario.cluster_dag.NodesOnDirectedPaths(*t, *o)) {
      truth_meds.insert(scenario.cluster_dag.NodeName(v));
    }
  }
  row.mediators_match_truth =
      std::set<std::string>(meds.begin(), meds.end()) == truth_meds;
  row.external_seconds = run.external.TotalSeconds();
  row.wall_seconds = run.timings.total_seconds;
  return row;
}

Result<std::vector<Table3Row>> EvaluateAllMethods(
    const datagen::Scenario& scenario, const PipelineOptions& base_options) {
  const EdgeInference modes[] = {
      EdgeInference::kHybrid, EdgeInference::kOracleOnly,
      EdgeInference::kDataGes, EdgeInference::kDataLingam,
      EdgeInference::kDataPc, EdgeInference::kDataFci,
  };
  std::vector<Table3Row> rows;
  for (EdgeInference mode : modes) {
    CDI_ASSIGN_OR_RETURN(Table3Row row,
                         EvaluateMethod(scenario, mode, base_options));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace cdi::core
