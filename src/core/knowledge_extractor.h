#ifndef CDI_CORE_KNOWLEDGE_EXTRACTOR_H_
#define CDI_CORE_KNOWLEDGE_EXTRACTOR_H_

#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "knowledge/data_lake.h"
#include "knowledge/knowledge_graph.h"
#include "table/table.h"

namespace cdi::core {

struct ExtractorOptions {
  /// Follow entity-valued KG properties one hop.
  bool follow_kg_links = true;
  /// Minimum key containment for a lake table to be considered joinable.
  double min_containment = 0.6;
  /// Relevance filter (avoids the curse of dimensionality the paper warns
  /// about): an extracted numeric attribute is kept when its association
  /// with the exposure or outcome — max of |Pearson| and |Spearman|, the
  /// latter for outlier robustness — is significant at `relevance_alpha`
  /// and at least `min_relevance` in magnitude. String attributes always
  /// pass (the Data Organizer judges them).
  double relevance_alpha = 0.01;
  double min_relevance = 0.05;
  /// Also accept attributes whose *nonlinear* association (quantile-binned
  /// chi-square) with a reference is significant — catches confounders
  /// related non-monotonically, which correlation-based relevance misses.
  bool nonlinear_relevance = true;
  /// Hard cap on extracted attributes (most relevant first); -1 = none.
  int max_attributes = -1;
};

/// Provenance and relevance of one extracted attribute.
struct ExtractedAttribute {
  std::string name;
  /// "knowledge_graph" or the lake table's name.
  std::string source;
  double corr_with_exposure = 0.0;
  double corr_with_outcome = 0.0;
  bool kept = true;
  /// Why it was dropped, when !kept ("irrelevant", "duplicate-name").
  std::string drop_reason;
};

struct ExtractionResult {
  /// Input table plus all kept extracted columns (row-aligned).
  table::Table augmented;
  std::vector<ExtractedAttribute> attributes;
  std::size_t kg_columns_found = 0;
  std::size_t lake_columns_found = 0;
};

/// What the Knowledge Extractor mines for one input table before any
/// causal question is asked: every KG and joined lake candidate column,
/// each scored against every relevance reference. Immutable once built;
/// any number of SelectAttributes calls on the same table may share it.
struct CandidateProfile {
  /// One candidate's association with one reference.
  struct Score {
    /// Signed Pearson r (ranks lake columns; NaN when undefined).
    double pearson = 0.0;
    /// Outlier-robust association: max of |Pearson| and |Spearman|.
    double robust = 0.0;
    /// Fisher-z p-value of `robust`.
    double fisher_p = 1.0;
    /// Quantile-binned chi-square p-value and strength (Cramer's V); NaN
    /// when the test failed or nonlinear relevance is off.
    double chi_p = std::numeric_limits<double>::quiet_NaN();
    double chi_strength = std::numeric_limits<double>::quiet_NaN();
  };

  struct Candidate {
    table::Column column;
    /// "knowledge_graph" or the lake table's name.
    std::string source;
    /// Lake candidates: index of the first lake candidate with the same
    /// (table, column), the key of the per-question duplicate check.
    std::size_t lake_group = 0;
    /// One per reference; empty for string columns, which are not scored
    /// (the Data Organizer judges them).
    std::vector<Score> scores;
  };

  /// Relevance references: every numeric non-entity input column, in
  /// input order — the exposure, the outcome and every other observed
  /// numeric attribute of any question asked of this table.
  std::vector<std::string> references;
  /// Knowledge-graph columns, in extraction order.
  std::vector<Candidate> kg;
  /// Every joined lake column, in DataLake::JoinColumns order.
  std::vector<Candidate> lake;
  /// The simulated-latency charges the KG and lake calls made, in order.
  std::vector<LatencyMeter::ChargeRun> charges;

  /// Index of `name` in `references`, or references.size().
  std::size_t ReferenceIndex(const std::string& name) const;
  bool HasReference(const std::string& name) const {
    return ReferenceIndex(name) < references.size();
  }
};

/// §3.1 — The Knowledge Extractor. Mines candidate unobserved attributes
/// for the entities of the input table from a knowledge graph (entity
/// linking + property extraction + link following) and a data lake
/// (joinability search + correlation-aware column selection), then filters
/// them for relevance to the causal question.
///
/// Two steps: ExtractCandidates does the per-table work (the KG and lake
/// calls and every candidate's scores), SelectAttributes the per-question
/// work. Extract runs both.
class KnowledgeExtractor {
 public:
  KnowledgeExtractor(const knowledge::KnowledgeGraph* kg,
                     const knowledge::DataLake* lake,
                     ExtractorOptions options = ExtractorOptions())
      : kg_(kg), lake_(lake), options_(options) {}

  /// Extracts attributes for `input`'s entities (named by `entity_column`)
  /// relevant to exposure/outcome. Charges simulated external latency to
  /// `meter` when non-null. Equal, bit for bit, to SelectAttributes over
  /// ExtractCandidates; an exposure or outcome that is not a numeric
  /// column joins the references of the profile built here.
  Result<ExtractionResult> Extract(const table::Table& input,
                                   const std::string& entity_column,
                                   const std::string& exposure,
                                   const std::string& outcome,
                                   LatencyMeter* meter = nullptr) const;

  /// The per-table step: every candidate for `input`'s entities, scored
  /// against every numeric non-entity column. Charges no meter; the
  /// profile logs the charges for SelectAttributes to replay.
  Result<CandidateProfile> ExtractCandidates(
      const table::Table& input, const std::string& entity_column) const {
    return BuildProfile(input, entity_column, {});
  }

  /// The per-question step on a profile of `input` built by an extractor
  /// with the same options: relevance, ranking, filter and assembly, and
  /// the profile's charges replayed into `meter` when non-null. The
  /// exposure and outcome must be references of the profile.
  Result<ExtractionResult> SelectAttributes(const CandidateProfile& profile,
                                            const table::Table& input,
                                            const std::string& exposure,
                                            const std::string& outcome,
                                            LatencyMeter* meter = nullptr) const;

 private:
  /// ExtractCandidates with `extra_references` appended to the numeric
  /// columns (a name may repeat).
  Result<CandidateProfile> BuildProfile(
      const table::Table& input, const std::string& entity_column,
      const std::vector<std::string>& extra_references) const;

  const knowledge::KnowledgeGraph* kg_;   // may be null (no KG source)
  const knowledge::DataLake* lake_;       // may be null (no lake source)
  ExtractorOptions options_;
};

}  // namespace cdi::core

#endif  // CDI_CORE_KNOWLEDGE_EXTRACTOR_H_
