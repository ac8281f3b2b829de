#ifndef CDI_CORE_PLAN_H_
#define CDI_CORE_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "stats/matrix.h"
#include "stats/sufficient_stats.h"

namespace cdi::core {

/// Answer to one (exposure, outcome) pair query derived from a scenario's
/// C-DAG artifact: the identification output (mediator / confounder
/// clusters and the adjustment sets they imply) plus effect estimates
/// computed from the artifact's shared sufficient statistics.
struct PairAnswer {
  std::string exposure;
  std::string outcome;
  std::string exposure_cluster;
  std::string outcome_cluster;
  /// Clusters on a directed exposure -> outcome path, sorted.
  std::vector<std::string> mediator_clusters;
  /// Common-ancestor clusters of the pair, sorted.
  std::vector<std::string> confounder_clusters;
  /// Controlled direct effect (adjusting for mediators + confounders).
  EffectEstimate direct_effect;
  /// Total effect (backdoor adjustment on confounders only).
  EffectEstimate total_effect;
};

/// A scenario's multi-query plan: one built C-DAG artifact (the full
/// PipelineResult of the scenario's canonical exposure/outcome run) plus
/// sufficient statistics over its organized panel, packaged to answer
/// *any* (exposure, outcome) pair without re-running discovery.
///
/// This operationalizes the paper's §5 open question — "whether a single
/// C-DAG is sufficient to identify adjustment sets for multiple
/// cause-effect estimations": AnswerPair reads the adjustment sets off
/// the one cached C-DAG via the ClusterDag *Between / *AdjustmentFor
/// multi-query API and estimates effects by normal equations on
/// covariance submatrices (EstimateEffectFromStats) — O(p^3) linear
/// algebra per query instead of a ~tens-of-milliseconds pipeline run.
///
/// Determinism contract: AnswerPair is a pure function of the artifact.
/// Because Pipeline::Run is bitwise-deterministic, a plan built fresh
/// from a fresh run answers every pair bitwise-identically to a cached
/// plan — which is exactly what the serving sweep tests and
/// `cdi_loadgen --sweep` verify.
class CdagPlan {
 public:
  CdagPlan() = default;

  /// Builds the plan over `artifact` (shared ownership: the statistics'
  /// column spans borrow the artifact's organized table, so the plan
  /// keeps the artifact alive). The statistics are weighted by the
  /// artifact's IPW row weights and cover every numeric column of the
  /// organized panel.
  static Result<CdagPlan> Build(
      std::shared_ptr<const PipelineResult> artifact);

  const PipelineResult& artifact() const { return *artifact_; }
  std::shared_ptr<const PipelineResult> shared_artifact() const {
    return artifact_;
  }

  /// Numeric columns of the organized panel, index-aligned with stats().
  const std::vector<std::string>& attributes() const { return names_; }
  const stats::SufficientStats& stats() const { return stats_; }

  /// Answers one pair query off the built C-DAG. kInvalidArgument when an
  /// attribute is missing from the C-DAG (dropped during organization or
  /// non-numeric) or when both map to the same cluster — cluster-level
  /// identification needs the pair in distinct clusters.
  Result<PairAnswer> AnswerPair(const std::string& exposure,
                                const std::string& outcome) const;

 private:
  std::shared_ptr<const PipelineResult> artifact_;
  std::vector<std::string> names_;
  stats::SufficientStats stats_;
  /// Correlation matrix of stats_, derived once at Build and shared by
  /// every AnswerPair instead of re-derived per query.
  stats::Matrix corr_;
};

}  // namespace cdi::core

#endif  // CDI_CORE_PLAN_H_
