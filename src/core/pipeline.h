#ifndef CDI_CORE_PIPELINE_H_
#define CDI_CORE_PIPELINE_H_

#include <cstdint>
#include <string>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/cdag_builder.h"
#include "core/data_organizer.h"
#include "core/effect.h"
#include "core/knowledge_extractor.h"
#include "core/sensitivity.h"

namespace cdi::core {

/// Options for the full 3-stage CDI pipeline.
struct PipelineOptions {
  ExtractorOptions extractor;
  OrganizerOptions organizer;
  CdagBuilderOptions builder;
  /// Worker threads for the C-DAG Builder's CI-test stages (copied into
  /// `builder.num_threads`/`builder.discovery.num_threads` by Run). All
  /// parallel stages are bitwise-deterministic, so the pipeline output is
  /// identical at any thread count.
  int num_threads = 1;
};

/// Canonical 64-bit fingerprint of every *semantic* pipeline option — the
/// fields that can change what Run computes. Execution-strategy fields
/// (`num_threads` at every level) are excluded: all parallel stages are
/// bitwise-deterministic, so two configurations differing only there
/// produce identical results and must share a result-cache entry. Stable across runs and platforms (explicit
/// FNV-1a over bit patterns, not std::hash).
std::uint64_t PipelineOptionsFingerprint(const PipelineOptions& options);

/// Wall-clock seconds per stage (actual compute on this machine).
struct StageTimings {
  double extract_seconds = 0.0;
  double organize_seconds = 0.0;
  double build_seconds = 0.0;
  double total_seconds = 0.0;
};

struct PipelineResult {
  ExtractionResult extraction;
  OrganizerResult organization;
  CdagBuildResult build;
  /// Direct-effect estimate implied by the constructed C-DAG.
  EffectEstimate direct_effect;
  /// Total-effect estimate (backdoor adjustment on identified confounders).
  EffectEstimate total_effect;
  /// How robust the direct-effect estimate is to a *remaining* unobserved
  /// confounder (§5: the C-DAG may be incomplete) — E-value analysis.
  SensitivityReport direct_effect_sensitivity;
  StageTimings timings;
  /// Simulated external-service latency (LLM, KG, lake); this — not the
  /// wall clock — is what corresponds to the paper's 645 s / 304 s
  /// end-to-end runtimes, which were dominated by GPT-3/DBpedia calls.
  LatencyMeter external;
};

/// End-to-end CDI pipeline (§3): Knowledge Extractor -> Data Organizer ->
/// C-DAG Builder, plus the downstream effect estimates an analyst would
/// compute from the result.
class Pipeline {
 public:
  Pipeline(const knowledge::KnowledgeGraph* kg,
           const knowledge::DataLake* lake,
           const knowledge::TextCausalOracle* oracle,
           const knowledge::TopicModel* topics,
           PipelineOptions options = PipelineOptions())
      : kg_(kg), lake_(lake), oracle_(oracle), topics_(topics),
        options_(options) {}

  /// Runs the three stages plus downstream effect estimation.
  ///
  /// Validates up front that `entity_column`, `exposure` and `outcome`
  /// exist in `input` and that exposure != outcome, returning a
  /// descriptive kInvalidArgument instead of crashing downstream.
  ///
  /// `cancel` (optional, borrowed; may be shared across threads) makes the
  /// run cooperatively cancellable: the token is polled at each stage
  /// boundary — before extraction, organization, C-DAG build and effect
  /// estimation — and the run returns the token's kCancelled /
  /// kDeadlineExceeded status at the first expired checkpoint. Work
  /// already done inside a stage is discarded; no partial result escapes.
  Result<PipelineResult> Run(const table::Table& input,
                             const std::string& entity_column,
                             const std::string& exposure,
                             const std::string& outcome,
                             const CancelToken* cancel = nullptr) const;

 private:
  const knowledge::KnowledgeGraph* kg_;
  const knowledge::DataLake* lake_;
  const knowledge::TextCausalOracle* oracle_;
  const knowledge::TopicModel* topics_;
  PipelineOptions options_;
};

}  // namespace cdi::core

#endif  // CDI_CORE_PIPELINE_H_
