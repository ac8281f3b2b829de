#ifndef CDI_CORE_EVALUATION_H_
#define CDI_CORE_EVALUATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "datagen/scenario.h"
#include "graph/metrics.h"

namespace cdi::core {

/// One row of the paper's Table 3.
struct Table3Row {
  std::string method;
  /// Number of directed-edge claims (the paper's |E| column).
  std::size_t num_edges = 0;
  graph::Prf presence;
  graph::Prf absence;
  /// |standardized coefficient| of the exposure after adjusting for the
  /// mediators/confounders identified by the method's graph. Ground truth
  /// is 0 (the effect is fully mediated).
  double direct_effect = 0.0;
  /// Mediator clusters the method identified.
  std::vector<std::string> mediators;
  /// Did the method identify exactly the ground-truth mediator set?
  bool mediators_match_truth = false;
  /// Simulated external latency + wall clock, for the runtime experiment.
  double external_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// Runs the CDI pipeline on `scenario` with the given edge-inference mode
/// and scores the resulting C-DAG against the scenario's ground truth.
/// All methods share the same clustering/topic configuration (the paper's
/// protocol).
Result<Table3Row> EvaluateMethod(const datagen::Scenario& scenario,
                                 EdgeInference mode,
                                 const PipelineOptions& base_options);

/// Evaluates the six Table 3 methods (CATER, GPT-3 Only, GES, LiNGAM, PC,
/// FCI) on one scenario.
Result<std::vector<Table3Row>> EvaluateAllMethods(
    const datagen::Scenario& scenario, const PipelineOptions& base_options);

/// Default pipeline options used for a scenario's Table 3 runs: the
/// clustering granularity is pinned to the ground-truth cluster count
/// (the paper "picked our current best configurations").
PipelineOptions DefaultEvaluationOptions(const datagen::Scenario& scenario);

}  // namespace cdi::core

#endif  // CDI_CORE_EVALUATION_H_
