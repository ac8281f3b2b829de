#ifndef CDI_CORE_CDAG_BUILDER_H_
#define CDI_CORE_CDAG_BUILDER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "core/cdag.h"
#include "core/varclus.h"
#include "discovery/discovery.h"
#include "knowledge/text_oracle.h"
#include "knowledge/topic_model.h"
#include "table/table.h"

namespace cdi::core {

/// Edge-inference strategy of the C-DAG Builder.
enum class EdgeInference {
  kHybrid,      ///< CATER: oracle claims pruned by PC-style CI tests
  kOracleOnly,  ///< the paper's "GPT-3 Only" baseline (no pruning)
  kDataPc,      ///< PC on the cluster representatives
  kDataFci,     ///< FCI on the cluster representatives
  kDataGes,     ///< GES on the cluster representatives
  kDataLingam,  ///< DirectLiNGAM on the cluster representatives
};

/// Stable display name matching Table 3 ("CATER", "GPT-3 Only", ...).
const char* EdgeInferenceName(EdgeInference mode);

struct CdagBuilderOptions {
  EdgeInference inference = EdgeInference::kHybrid;
  VarClusOptions varclus;
  /// CI significance level for the pruning stage / data baselines.
  double alpha = 0.05;
  /// Largest conditioning-set size for the pruning stage.
  int max_cond_size = 2;
  /// Conditional pruning requires *confident* independence: an oracle edge
  /// is removed only when some conditioning set yields p >= this (plain
  /// alpha would prune weak-but-real relations wholesale).
  double prune_p_threshold = 0.40;
  /// Hybrid augmentation: when the data shows a *full-conditional*
  /// dependence (partial correlation given all other clusters) between two
  /// clusters the oracle did not connect, add the edge, oriented by the
  /// oracle's direction-preference query. This is the data half of the
  /// hybrid: text recall is imperfect, and a strong Markov-blanket edge in
  /// the data should not be dropped just because the LLM missed it.
  bool augment_from_data = true;
  double augment_alpha = 0.01;
  /// Hybrid pruning removes an oracle edge only when the data gives
  /// *positive evidence of redundancy*: the endpoints are marginally
  /// dependent (p < alpha) yet some conditioning set renders them
  /// independent (p >= alpha). Marginally independent pairs are left to
  /// the oracle — a linear CI test is blind to relations that are "not
  /// present in the data" (nonlinear/semantic), which is exactly where
  /// the paper's hybrid approach must trust the text side.
  bool prune_requires_marginal_dependence = true;
  /// Worker threads for the pruning stage's CI tests and for the data-only
  /// baselines. Prune decisions are made against a snapshot of the oracle
  /// claim graph (PC-stable style), so the result is bitwise-identical at
  /// any thread count.
  int num_threads = 1;
  discovery::DiscoveryOptions discovery;
};

struct CdagBuildResult {
  /// The constructed C-DAG. For kOracleOnly the underlying graph may be
  /// cyclic (the raw oracle output; the paper reports the same).
  ClusterDag cdag;
  /// Directed-edge claims in the C-DAG's cluster-name space, used for the
  /// Table 3 metrics. For PDAG/PAG baselines undirected/circle edges count
  /// both ways; `definite` below holds only definitely directed edges.
  std::vector<std::pair<std::string, std::string>> claims;
  /// Definitely directed edges (used for mediator identification).
  std::vector<std::pair<std::string, std::string>> definite;
  /// Cluster name -> assigned topic.
  std::vector<std::string> cluster_topics;
  /// Edges removed by the pruning stage (hybrid mode).
  std::vector<std::pair<std::string, std::string>> pruned_edges;
  /// Edges removed by cycle repair (hybrid mode).
  std::vector<std::pair<std::string, std::string>> cycle_repaired_edges;
  std::size_t oracle_queries = 0;
  std::size_t ci_tests = 0;
};

/// §3.3 / §4 — The C-DAG Builder. Groups the organized table's attributes
/// with VARCLUS, names the clusters with the topic model, and infers
/// cluster-level causal edges. CATER's hybrid strategy asks the text
/// oracle for candidate edges between cluster topics, then prunes
/// redundant edges with PC-style CI tests on cluster representatives
/// (the standardized mean of each cluster's members) and repairs any
/// remaining cycles by removing the edge with the weakest data support.
class CdagBuilder {
 public:
  CdagBuilder(const knowledge::TextCausalOracle* oracle,
              const knowledge::TopicModel* topics,
              CdagBuilderOptions options = CdagBuilderOptions())
      : oracle_(oracle), topics_(topics), options_(options) {}

  /// Builds the C-DAG over the numeric attributes of `organized`
  /// (excluding `entity_column`). `exposure` and `outcome` become
  /// singleton clusters. `row_weights` (optional) weight the CI tests.
  Result<CdagBuildResult> Build(const table::Table& organized,
                                const std::string& entity_column,
                                const std::string& exposure,
                                const std::string& outcome,
                                const std::vector<double>& row_weights = {},
                                LatencyMeter* meter = nullptr) const;

 private:
  const knowledge::TextCausalOracle* oracle_;  // required unless kData*
  const knowledge::TopicModel* topics_;        // may be null (fallback names)
  CdagBuilderOptions options_;
};

}  // namespace cdi::core

#endif  // CDI_CORE_CDAG_BUILDER_H_
