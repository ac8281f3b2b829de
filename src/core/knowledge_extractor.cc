#include "core/knowledge_extractor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/span.h"
#include "stats/correlation.h"
#include "stats/independence.h"
#include "stats/descriptive.h"

namespace cdi::core {

namespace {

/// |corr| treating NaN results as 0.
double AbsCorr(double r) { return std::isnan(r) ? 0.0 : std::fabs(r); }

std::size_t PairwiseCount(cdi::DoubleSpan a, cdi::DoubleSpan b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (!std::isnan(a[i]) && !std::isnan(b[i])) ++n;
  }
  return n;
}

/// A relevance reference with the work every candidate would otherwise
/// redo computed once per profile: its rank order (Spearman) and its
/// tercile bins (the nonlinear test), the latter read off the former.
struct Reference {
  cdi::DoubleSpan vals;
  std::vector<std::size_t> order;
  std::vector<int> bins;
};

}  // namespace

std::size_t CandidateProfile::ReferenceIndex(const std::string& name) const {
  return static_cast<std::size_t>(
      std::find(references.begin(), references.end(), name) -
      references.begin());
}

Result<CandidateProfile> KnowledgeExtractor::BuildProfile(
    const table::Table& input, const std::string& entity_column,
    const std::vector<std::string>& extra_references) const {
  CDI_ASSIGN_OR_RETURN(const table::Column* key_col,
                       input.GetColumn(entity_column));
  if (key_col->type() != table::DataType::kString) {
    return Status::InvalidArgument("entity column must be a string column");
  }
  CandidateProfile profile;
  // Relevance references: every observed numeric input attribute — an
  // extracted attribute associated with any variable already in the
  // analysis is a candidate parent/child of it and therefore relevant for
  // the causal DAG. Zero-copy views over `input`, which outlives every use
  // below.
  std::vector<Reference> references;
  const auto add_reference = [&](const table::Column& col) {
    profile.references.push_back(col.name());
    Reference ref{col.View(), {}, {}};
    ref.order = stats::RankOrder(ref.vals);
    if (options_.nonlinear_relevance) {
      ref.bins = stats::QuantileBin(ref.vals, ref.order, 3);
    }
    references.push_back(std::move(ref));
  };
  for (std::size_t c = 0; c < input.num_cols(); ++c) {
    const table::Column& col = input.ColumnAt(c);
    if (col.name() != entity_column && table::IsNumeric(col.type())) {
      add_reference(col);
    }
  }
  for (const std::string& name : extra_references) {
    CDI_ASSIGN_OR_RETURN(const table::Column* col, input.GetColumn(name));
    add_reference(*col);
  }
  // A numeric column's association with every reference.
  auto score = [&](DoubleSpan vals) {
    const std::vector<std::size_t> order = stats::RankOrder(vals);
    const std::vector<int> bins =
        options_.nonlinear_relevance ? stats::QuantileBin(vals, order, 3)
                                     : std::vector<int>();
    std::vector<CandidateProfile::Score> scores(references.size());
    for (std::size_t k = 0; k < references.size(); ++k) {
      const Reference& ref = references[k];
      CandidateProfile::Score& s = scores[k];
      s.pearson = stats::PearsonCorrelation(vals, ref.vals);
      s.robust = std::max(
          AbsCorr(s.pearson),
          AbsCorr(stats::SpearmanFromOrders(vals, order, ref.vals, ref.order)));
      s.fisher_p =
          stats::FisherZPValue(s.robust, PairwiseCount(vals, ref.vals), 0);
      if (options_.nonlinear_relevance) {
        // Binned chi-square catches non-monotone associations Pearson and
        // Spearman both miss (e.g. a U-shaped confounder).
        auto chi = stats::ChiSquareIndependence(bins, ref.bins);
        if (chi.ok()) {
          s.chi_p = chi->p_value;
          s.chi_strength = chi->strength;
        }
      }
    }
    return scores;
  };

  std::vector<std::string> keys;
  keys.reserve(input.num_rows());
  for (std::size_t r = 0; r < input.num_rows(); ++r) {
    keys.push_back(key_col->IsNull(r) ? "" : key_col->StringAt(r));
  }
  LatencyMeter log = LatencyMeter::Logging();

  // ---- Knowledge-graph extraction. ---------------------------------------
  if (kg_ != nullptr) {
    CDI_ASSIGN_OR_RETURN(
        table::Table kg_table,
        kg_->ExtractProperties(keys, /*key_name=*/"",
                               options_.follow_kg_links, &log));
    for (std::size_t c = 0; c < kg_table.num_cols(); ++c) {
      table::Column& col = kg_table.MutableColumnAt(c);
      std::vector<CandidateProfile::Score> scores;
      if (table::IsNumeric(col.type()) ||
          col.type() == table::DataType::kBool) {
        scores = score(col.View());
      }
      profile.kg.push_back(
          {std::move(col), "knowledge_graph", 0, std::move(scores)});
    }
  }

  // ---- Data-lake extraction. ----------------------------------------------
  if (lake_ != nullptr) {
    std::map<std::pair<std::size_t, std::string>, std::size_t> groups;
    for (auto& jc : lake_->JoinColumns(keys, options_.min_containment, &log)) {
      const std::size_t group =
          groups.try_emplace({jc.table_index, jc.value_column},
                             profile.lake.size())
              .first->second;
      std::vector<CandidateProfile::Score> scores = score(jc.values);
      profile.lake.push_back(
          {table::Column::FromDoubles(std::move(jc.value_column),
                                      std::move(jc.values)),
           lake_->tables()[jc.table_index].name(), group, std::move(scores)});
    }
  }
  profile.charges = log.log();
  return profile;
}

Result<ExtractionResult> KnowledgeExtractor::SelectAttributes(
    const CandidateProfile& profile, const table::Table& input,
    const std::string& exposure, const std::string& outcome,
    LatencyMeter* meter) const {
  const std::size_t kt = profile.ReferenceIndex(exposure);
  const std::size_t ko = profile.ReferenceIndex(outcome);
  if (kt == profile.references.size() || ko == profile.references.size()) {
    return Status::InvalidArgument(
        "exposure '" + exposure + "' and outcome '" + outcome +
        "' must both be relevance references of the candidate profile");
  }
  if (meter != nullptr) meter->Replay(profile.charges);

  struct Candidate {
    const CandidateProfile::Candidate* from;
    ExtractedAttribute info;
    double relevance = 1.0;  // strings: judged later by the organizer
    bool significant = true;
  };
  // Relevance of a numeric candidate: strongest robust association with
  // any reference, with its significance. Max, min and the reference
  // count do not depend on the references' order.
  const auto make = [&](const CandidateProfile::Candidate& c) {
    Candidate cand{&c, {}};
    cand.info.name = c.column.name();
    cand.info.source = c.source;
    if (c.scores.empty()) return cand;
    cand.info.corr_with_exposure = c.scores[kt].robust;
    cand.info.corr_with_outcome = c.scores[ko].robust;
    cand.relevance = 0.0;
    double best_p = 1.0;
    for (const CandidateProfile::Score& s : c.scores) {
      best_p = std::min(best_p, s.fisher_p);
      cand.relevance = std::max(cand.relevance, s.robust);
    }
    // A failed chi-square test is NaN, which neither comparison takes.
    // Cramer's V serves as its effect size for the magnitude floor.
    for (const CandidateProfile::Score& s : c.scores) {
      best_p = std::min(best_p, s.chi_p);
      if (s.chi_p < options_.relevance_alpha) {
        cand.relevance = std::max(cand.relevance, s.chi_strength);
      }
    }
    // Bonferroni across the reference columns, so pure-noise attributes do
    // not slip in just because many references were tried.
    cand.significant =
        best_p < options_.relevance_alpha /
                     static_cast<double>(profile.references.size());
    return cand;
  };

  ExtractionResult result;
  result.augmented = input;
  std::vector<Candidate> candidates;
  for (const auto& c : profile.kg) candidates.push_back(make(c));
  result.kg_columns_found = profile.kg.size();

  // Rank the joined lake columns by association with the outcome, then
  // with the exposure, and take candidates from the two rankings in turn.
  std::vector<bool> seen(profile.lake.size(), false);
  std::vector<std::pair<double, std::size_t>> ranked;
  for (const std::size_t k : {ko, kt}) {
    ranked.clear();
    for (std::size_t j = 0; j < profile.lake.size(); ++j) {
      const double r = profile.lake[j].scores[k].pearson;
      if (!std::isnan(r)) ranked.push_back({std::fabs(r), j});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (const auto& [abs_r, j] : ranked) {
      const CandidateProfile::Candidate& c = profile.lake[j];
      if (seen[c.lake_group]) continue;
      seen[c.lake_group] = true;
      ++result.lake_columns_found;
      candidates.push_back(make(c));
    }
  }

  // ---- Relevance filter + assembly. ----------------------------------------
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.relevance > b.relevance;
                   });
  int kept = 0;
  for (auto& cand : candidates) {
    if (cand.relevance < options_.min_relevance || !cand.significant) {
      cand.info.kept = false;
      cand.info.drop_reason = "irrelevant";
    } else if (options_.max_attributes >= 0 &&
               kept >= options_.max_attributes) {
      cand.info.kept = false;
      cand.info.drop_reason = "attribute-budget";
    } else if (result.augmented.HasColumn(cand.info.name)) {
      cand.info.kept = false;
      cand.info.drop_reason = "duplicate-name";
    } else {
      CDI_RETURN_IF_ERROR(result.augmented.AddColumn(cand.from->column));
      ++kept;
    }
    result.attributes.push_back(std::move(cand.info));
  }
  return result;
}

Result<ExtractionResult> KnowledgeExtractor::Extract(
    const table::Table& input, const std::string& entity_column,
    const std::string& exposure, const std::string& outcome,
    LatencyMeter* meter) const {
  CDI_ASSIGN_OR_RETURN(const table::Column* key_col,
                       input.GetColumn(entity_column));
  if (key_col->type() != table::DataType::kString) {
    return Status::InvalidArgument("entity column must be a string column");
  }
  CDI_ASSIGN_OR_RETURN(const table::Column* tcol, input.GetColumn(exposure));
  CDI_ASSIGN_OR_RETURN(const table::Column* ocol, input.GetColumn(outcome));
  // The exposure and the outcome are always references, once each, even
  // when one is not a numeric column or both name the same column.
  const auto in_profile = [&](const table::Column* col) {
    return col->name() != entity_column && table::IsNumeric(col->type());
  };
  std::vector<std::string> extra;
  if (!in_profile(tcol)) extra.push_back(exposure);
  if (!in_profile(ocol) || tcol == ocol) extra.push_back(outcome);
  CDI_ASSIGN_OR_RETURN(CandidateProfile profile,
                       BuildProfile(input, entity_column, extra));
  return SelectAttributes(profile, input, exposure, outcome, meter);
}

}  // namespace cdi::core
