#include "core/plan.h"

#include <utility>

#include "common/span.h"
#include "stats/correlation.h"

namespace cdi::core {

Result<CdagPlan> CdagPlan::Build(
    std::shared_ptr<const PipelineResult> artifact) {
  if (artifact == nullptr) {
    return Status::InvalidArgument("CdagPlan::Build: null artifact");
  }
  CdagPlan plan;
  plan.artifact_ = std::move(artifact);

  const table::Table& organized = plan.artifact_->organization.organized;
  stats::NumericDataset ds;
  for (std::size_t c = 0; c < organized.num_cols(); ++c) {
    const table::Column& col = organized.ColumnAt(c);
    if (col.type() == table::DataType::kString) continue;
    plan.names_.push_back(col.name());
    ds.columns.push_back(col.View());
  }
  if (plan.names_.size() < 2) {
    return Status::InvalidArgument(
        "organized panel has fewer than two numeric columns");
  }
  ds.weights = plan.artifact_->organization.row_weights;
  CDI_ASSIGN_OR_RETURN(plan.stats_, stats::SufficientStats::Compute(ds));
  plan.corr_ = plan.stats_.Correlation();
  return plan;
}

Result<PairAnswer> CdagPlan::AnswerPair(const std::string& exposure,
                                        const std::string& outcome) const {
  if (artifact_ == nullptr) {
    return Status::FailedPrecondition("CdagPlan is empty (not built)");
  }
  if (exposure == outcome) {
    return Status::InvalidArgument(
        "exposure and outcome must be distinct (both '" + exposure + "')");
  }
  const ClusterDag& cdag = artifact_->build.cdag;

  const auto cluster_of = [&cdag](const char* role,
                                  const std::string& attr)
      -> Result<std::string> {
    auto cluster = cdag.ClusterOf(attr);
    if (!cluster.ok()) {
      return Status::InvalidArgument(
          std::string(role) + " '" + attr +
          "' is not represented in the scenario C-DAG (non-numeric, or "
          "dropped during organization)");
    }
    return cluster;
  };
  PairAnswer answer;
  answer.exposure = exposure;
  answer.outcome = outcome;
  CDI_ASSIGN_OR_RETURN(answer.exposure_cluster,
                       cluster_of("exposure", exposure));
  CDI_ASSIGN_OR_RETURN(answer.outcome_cluster,
                       cluster_of("outcome", outcome));
  if (answer.exposure_cluster == answer.outcome_cluster) {
    return Status::InvalidArgument(
        "exposure '" + exposure + "' and outcome '" + outcome +
        "' map to the same cluster '" + answer.exposure_cluster +
        "' — cluster-level identification needs distinct clusters");
  }

  CDI_ASSIGN_OR_RETURN(
      auto mediators, cdag.MediatorClustersBetween(answer.exposure_cluster,
                                                   answer.outcome_cluster));
  CDI_ASSIGN_OR_RETURN(auto confounders,
                       cdag.ConfounderClustersBetween(
                           answer.exposure_cluster, answer.outcome_cluster));
  answer.mediator_clusters.assign(mediators.begin(), mediators.end());
  answer.confounder_clusters.assign(confounders.begin(), confounders.end());

  CDI_ASSIGN_OR_RETURN(
      auto direct_adjustment,
      cdag.DirectEffectAdjustmentFor(answer.exposure_cluster,
                                     answer.outcome_cluster));
  CDI_ASSIGN_OR_RETURN(
      auto total_adjustment,
      cdag.TotalEffectAdjustmentFor(answer.exposure_cluster,
                                    answer.outcome_cluster));

  CDI_ASSIGN_OR_RETURN(
      answer.direct_effect,
      EstimateEffectFromStats(stats_, names_, exposure, outcome,
                              direct_adjustment, &corr_));
  CDI_ASSIGN_OR_RETURN(
      answer.total_effect,
      EstimateEffectFromStats(stats_, names_, exposure, outcome,
                              total_adjustment, &corr_));
  return answer;
}

}  // namespace cdi::core
