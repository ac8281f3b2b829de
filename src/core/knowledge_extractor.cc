#include "core/knowledge_extractor.h"

#include <algorithm>
#include <cmath>
#include <set>

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
/// redo computed once per Extract: its rank order (Spearman) and its
/// tercile bins (the nonlinear test), the latter read off the former.
struct Reference {
  cdi::DoubleSpan vals;
  std::vector<std::size_t> order;
  std::vector<int> bins;
};

/// Outlier-robust association: max of |Pearson| and |Spearman|.
double RobustAbsCorr(cdi::DoubleSpan a, const std::vector<std::size_t>& order,
                     const Reference& ref) {
  return std::max(
      AbsCorr(stats::PearsonCorrelation(a, ref.vals)),
      AbsCorr(stats::SpearmanFromOrders(a, order, ref.vals, ref.order)));
}

}  // namespace

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
  // Zero-copy views over `input`, which outlives every use below (the
  // augmented copy is assembled separately).
  const DoubleSpan t_vals = tcol->View();
  const DoubleSpan o_vals = ocol->View();
  // Relevance references: the exposure, the outcome, and every observed
  // numeric input attribute — an extracted attribute associated with any
  // variable already in the analysis is a candidate parent/child of it and
  // therefore relevant for the causal DAG.
  std::vector<DoubleSpan> reference_vals = {t_vals, o_vals};
  for (const auto& name : input.ColumnNames()) {
    if (name == entity_column || name == exposure || name == outcome) continue;
    auto col = input.GetColumn(name);
    if (col.ok() && table::IsNumeric((*col)->type())) {
      reference_vals.push_back((*col)->View());
    }
  }
  std::vector<Reference> references;
  references.reserve(reference_vals.size());
  for (const DoubleSpan& vals : reference_vals) {
    Reference ref{vals, stats::RankOrder(vals), {}};
    if (options_.nonlinear_relevance) {
      ref.bins = stats::QuantileBin(vals, ref.order, 3);
    }
    references.push_back(std::move(ref));
  }
  // Relevance of a numeric column: strongest robust association with any
  // reference, with its significance. References 0 and 1 are the exposure
  // and the outcome.
  auto score_relevance = [&](DoubleSpan vals,
                             double* corr_t, double* corr_o,
                             double* relevance, bool* significant) {
    const std::vector<std::size_t> order = stats::RankOrder(vals);
    *relevance = 0.0;
    double best_p = 1.0;
    for (std::size_t k = 0; k < references.size(); ++k) {
      const double r = RobustAbsCorr(vals, order, references[k]);
      if (k == 0) *corr_t = r;
      if (k == 1) *corr_o = r;
      const std::size_t n = PairwiseCount(vals, references[k].vals);
      best_p = std::min(best_p, stats::FisherZPValue(r, n, 0));
      *relevance = std::max(*relevance, r);
    }
    if (options_.nonlinear_relevance) {
      // Binned chi-square catches non-monotone associations Pearson and
      // Spearman both miss (e.g. a U-shaped confounder). Cramer's V serves
      // as its effect size for the magnitude floor.
      const auto bv = stats::QuantileBin(vals, order, 3);
      for (const auto& ref : references) {
        auto r = stats::ChiSquareIndependence(bv, ref.bins);
        if (r.ok()) {
          best_p = std::min(best_p, r->p_value);
          if (r->p_value < options_.relevance_alpha) {
            *relevance = std::max(*relevance, r->strength);
          }
        }
      }
    }
    // Bonferroni across the reference columns, so pure-noise attributes do
    // not slip in just because many references were tried.
    *significant =
        best_p < options_.relevance_alpha /
                     static_cast<double>(references.size());
  };

  std::vector<std::string> keys;
  keys.reserve(input.num_rows());
  for (std::size_t r = 0; r < input.num_rows(); ++r) {
    keys.push_back(key_col->IsNull(r) ? "" : key_col->StringAt(r));
  }

  ExtractionResult result;
  result.augmented = input;

  struct Candidate {
    table::Column column;
    ExtractedAttribute info;
    double relevance = 0.0;
    bool significant = true;
  };
  std::vector<Candidate> candidates;

  // ---- Knowledge-graph extraction. ---------------------------------------
  if (kg_ != nullptr) {
    CDI_ASSIGN_OR_RETURN(
        table::Table kg_table,
        kg_->ExtractProperties(keys, /*key_name=*/"",
                               options_.follow_kg_links, meter));
    for (std::size_t c = 0; c < kg_table.num_cols(); ++c) {
      const table::Column& col = kg_table.ColumnAt(c);
      ++result.kg_columns_found;
      Candidate cand{col, {}, 0.0};
      cand.info.name = col.name();
      cand.info.source = "knowledge_graph";
      if (table::IsNumeric(col.type()) ||
          col.type() == table::DataType::kBool) {
        score_relevance(col.View(), &cand.info.corr_with_exposure,
                        &cand.info.corr_with_outcome, &cand.relevance,
                        &cand.significant);
      } else {
        cand.relevance = 1.0;  // strings judged later by the organizer
        cand.significant = true;
      }
      candidates.push_back(std::move(cand));
    }
  }

  // ---- Data-lake extraction. ----------------------------------------------
  if (lake_ != nullptr) {
    // Join every numeric column of every joinable table once, rank the
    // joined columns by association with the outcome, then with the
    // exposure, and take candidates from the two rankings in turn.
    std::vector<knowledge::DataLake::JoinedColumn> joined =
        lake_->JoinColumns(keys, options_.min_containment, meter);
    auto rank_by = [&joined](DoubleSpan target) {
      std::vector<std::pair<double, std::size_t>> ranked;
      for (std::size_t j = 0; j < joined.size(); ++j) {
        const double r = stats::PearsonCorrelation(joined[j].values, target);
        if (!std::isnan(r)) ranked.push_back({std::fabs(r), j});
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const auto& a, const auto& b) {
                         return a.first > b.first;
                       });
      return ranked;
    };
    std::set<std::pair<std::size_t, std::string>> seen;
    for (const DoubleSpan& target : {o_vals, t_vals}) {
      for (const auto& [abs_r, j] : rank_by(target)) {
        auto& jc = joined[j];
        if (!seen.insert({jc.table_index, jc.value_column}).second) continue;
        ++result.lake_columns_found;
        Candidate cand{table::Column::FromDoubles(jc.value_column, jc.values),
                       {},
                       0.0};
        cand.info.name = jc.value_column;
        cand.info.source = lake_->tables()[jc.table_index].name();
        score_relevance(jc.values, &cand.info.corr_with_exposure,
                        &cand.info.corr_with_outcome, &cand.relevance,
                        &cand.significant);
        candidates.push_back(std::move(cand));
      }
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
      CDI_RETURN_IF_ERROR(result.augmented.AddColumn(std::move(cand.column)));
      ++kept;
    }
    result.attributes.push_back(std::move(cand.info));
  }
  return result;
}

}  // namespace cdi::core
