#include "core/pipeline.h"

#include "common/hash.h"

namespace cdi::core {

namespace {

/// Validation shared by Run: every referenced column must exist, and the
/// causal question must be well-posed. Returning a descriptive error here
/// beats the alternatives observed before this check existed — a crash in
/// the extractor or a silently empty result.
Status ValidateRunInputs(const table::Table& input,
                         const std::string& entity_column,
                         const std::string& exposure,
                         const std::string& outcome) {
  const auto describe = [&input](const std::string& role,
                                 const std::string& name) {
    std::string msg = role + " column '" + name +
                      "' not found in input table";
    if (!input.name().empty()) msg += " '" + input.name() + "'";
    msg += " (columns:";
    for (const auto& c : input.ColumnNames()) msg += " " + c;
    msg += ")";
    return Status::InvalidArgument(std::move(msg));
  };
  if (input.num_cols() == 0) {
    return Status::InvalidArgument("input table has no columns");
  }
  if (!input.HasColumn(entity_column)) {
    return describe("entity", entity_column);
  }
  if (!input.HasColumn(exposure)) return describe("exposure", exposure);
  if (!input.HasColumn(outcome)) return describe("outcome", outcome);
  if (exposure == outcome) {
    return Status::InvalidArgument(
        "exposure and outcome must be distinct columns (both '" + exposure +
        "')");
  }
  if (exposure == entity_column || outcome == entity_column) {
    return Status::InvalidArgument(
        "entity column '" + entity_column +
        "' cannot double as the exposure or outcome");
  }
  return Status::OK();
}

}  // namespace

std::uint64_t PipelineOptionsFingerprint(const PipelineOptions& options) {
  // Bump the version tag when a semantic field is added/removed/reordered
  // so stale persisted keys (if any) cannot alias new ones.
  Fnv1a h("cdi::core::PipelineOptions/v1");

  const ExtractorOptions& e = options.extractor;
  h.Mix(e.follow_kg_links)
      .Mix(e.min_containment)
      .Mix(e.relevance_alpha)
      .Mix(e.min_relevance)
      .Mix(e.nonlinear_relevance)
      .Mix(std::int64_t{e.max_attributes});

  const OrganizerOptions& o = options.organizer;
  h.Mix(o.fd_correlation_threshold)
      .Mix(o.drop_string_fds)
      .Mix(o.outlier_robust_z)
      .Mix(o.selection_bias_alpha)
      .Mix(o.enable_ipw)
      .Mix(o.max_ipw_weight);

  const CdagBuilderOptions& b = options.builder;
  h.Mix(static_cast<std::int64_t>(b.inference))
      .Mix(b.varclus.second_eigenvalue_threshold)
      .Mix(std::int64_t{b.varclus.max_clusters})
      .Mix(std::int64_t{b.varclus.min_clusters})
      .Mix(std::int64_t{b.varclus.reassign_passes})
      .Mix(b.alpha)
      .Mix(std::int64_t{b.max_cond_size})
      .Mix(b.prune_p_threshold)
      .Mix(b.augment_from_data)
      .Mix(b.augment_alpha)
      .Mix(b.prune_requires_marginal_dependence);

  const discovery::DiscoveryOptions& d = b.discovery;
  h.Mix(d.alpha)
      .Mix(std::int64_t{d.max_cond_size})
      .Mix(d.ges.penalty_discount)
      .Mix(std::int64_t{d.ges.max_parents})
      .Mix(d.lingam.prune_alpha)
      .Mix(d.lingam.min_abs_coefficient);
  // Excluded on purpose: options.num_threads, b.num_threads,
  // d.num_threads and d.ges.num_threads (bitwise-deterministic
  // parallelism). See the header comment.

  return h.Digest();
}

Result<PipelineResult> Pipeline::Run(const table::Table& input,
                                     const std::string& entity_column,
                                     const std::string& exposure,
                                     const std::string& outcome,
                                     const CancelToken* cancel) const {
  CDI_RETURN_IF_ERROR(ValidateRunInputs(input, entity_column, exposure,
                                        outcome));

  PipelineResult result;
  Stopwatch total;

  // Stage 1: Knowledge Extractor.
  CDI_RETURN_IF_ERROR(CheckCancel(cancel));
  {
    Stopwatch sw;
    KnowledgeExtractor extractor(kg_, lake_, options_.extractor);
    CDI_ASSIGN_OR_RETURN(result.extraction,
                         extractor.Extract(input, entity_column, exposure,
                                           outcome, &result.external));
    result.timings.extract_seconds = sw.ElapsedSeconds();
  }

  // Stage 2: Data Organizer.
  CDI_RETURN_IF_ERROR(CheckCancel(cancel));
  {
    Stopwatch sw;
    DataOrganizer organizer(options_.organizer);
    CDI_ASSIGN_OR_RETURN(
        result.organization,
        organizer.Organize(result.extraction.augmented, entity_column,
                           exposure, outcome));
    result.timings.organize_seconds = sw.ElapsedSeconds();
  }

  // Stage 3: C-DAG Builder.
  CDI_RETURN_IF_ERROR(CheckCancel(cancel));
  {
    Stopwatch sw;
    CdagBuilderOptions builder_options = options_.builder;
    if (options_.num_threads > 1) {
      builder_options.num_threads = options_.num_threads;
      builder_options.discovery.num_threads = options_.num_threads;
    }
    CdagBuilder builder(oracle_, topics_, builder_options);
    CDI_ASSIGN_OR_RETURN(
        result.build,
        builder.Build(result.organization.organized, entity_column, exposure,
                      outcome, result.organization.row_weights,
                      &result.external));
    result.timings.build_seconds = sw.ElapsedSeconds();
  }

  // Downstream analysis: the effect estimates the analyst reads off.
  CDI_RETURN_IF_ERROR(CheckCancel(cancel));
  {
    const auto& cdag = result.build.cdag;
    CDI_ASSIGN_OR_RETURN(
        result.direct_effect,
        EstimateEffect(result.organization.organized, exposure, outcome,
                       cdag.DirectEffectAdjustmentAttributes(),
                       result.organization.row_weights));
    CDI_ASSIGN_OR_RETURN(
        result.total_effect,
        EstimateEffect(result.organization.organized, exposure, outcome,
                       cdag.TotalEffectAdjustmentAttributes(),
                       result.organization.row_weights));
  }

  result.direct_effect_sensitivity = AnalyzeSensitivity(result.direct_effect);
  result.timings.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace cdi::core
