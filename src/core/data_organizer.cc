#include "core/data_organizer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/span.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/logistic.h"

namespace cdi::core {

namespace {

/// Two-sided p-value of the point-biserial correlation between a 0/1
/// indicator and a numeric vector (t-test on the correlation).
double IndicatorAssociationPValue(cdi::DoubleSpan indicator,
                                  cdi::DoubleSpan values) {
  const double r = stats::PearsonCorrelation(indicator, values);
  if (std::isnan(r)) return 1.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < indicator.size(); ++i) {
    if (!std::isnan(indicator[i]) && !std::isnan(values[i])) ++n;
  }
  if (n < 4) return 1.0;
  const double dof = static_cast<double>(n - 2);
  const double denom = std::max(1e-12, 1.0 - r * r);
  const double t = r * std::sqrt(dof / denom);
  return stats::StudentTTwoSidedPValue(t, dof);
}

}  // namespace

Result<bool> HoldsFd(const table::Table& t, const std::string& lhs,
                     const std::string& rhs) {
  CDI_ASSIGN_OR_RETURN(const table::Column* l, t.GetColumn(lhs));
  CDI_ASSIGN_OR_RETURN(const table::Column* r, t.GetColumn(rhs));
  std::unordered_map<std::string, std::string> map;
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    if (l->IsNull(row)) continue;
    const std::string lv = l->Get(row).ToString();
    const std::string rv = r->IsNull(row) ? "\x01<null>" : r->Get(row).ToString();
    auto [it, inserted] = map.emplace(lv, rv);
    if (!inserted && it->second != rv) return false;
  }
  return true;
}

Result<OrganizerResult> DataOrganizer::Organize(
    const table::Table& augmented, const std::string& entity_column,
    const std::string& exposure, const std::string& outcome) const {
  OrganizerResult result;

  // ---- 1. Duplicate removal. ----------------------------------------------
  table::Table t = augmented.DistinctRows();
  result.duplicate_rows_removed = augmented.num_rows() - t.num_rows();

  CDI_ASSIGN_OR_RETURN(const table::Column* tcol, t.GetColumn(exposure));
  CDI_ASSIGN_OR_RETURN(const table::Column* ocol, t.GetColumn(outcome));
  // Deliberate deep copies, not views: winsorization (step 3) rewrites
  // numeric columns — including the outcome — in place, and steps 2/4 must
  // see the pre-winsorization exposure/outcome values.
  const std::vector<double> t_vals = tcol->ToDoubles();
  const std::vector<double> o_vals = ocol->ToDoubles();

  // ---- 2. Functional dependencies with exposure/outcome. --------------------
  for (const auto& name : t.ColumnNames()) {
    if (name == exposure || name == outcome || name == entity_column) continue;
    CDI_ASSIGN_OR_RETURN(const table::Column* col, t.GetColumn(name));
    bool drop = false;
    if (table::IsNumeric(col->type())) {
      // Spearman catches monotone-but-nonlinear deterministic relations
      // (e.g. a calling code that is a monotone function of the exposure).
      const cdi::DoubleSpan vals = col->View();
      auto assoc = [](cdi::DoubleSpan a, cdi::DoubleSpan b) {
        const double rp = stats::PearsonCorrelation(a, b);
        const double rs = stats::SpearmanCorrelation(a, b);
        return std::max(std::isnan(rp) ? 0.0 : std::fabs(rp),
                        std::isnan(rs) ? 0.0 : std::fabs(rs));
      };
      if (assoc(vals, t_vals) >= options_.fd_correlation_threshold ||
          assoc(vals, o_vals) >= options_.fd_correlation_threshold) {
        drop = true;
      }
    } else if (col->type() == table::DataType::kString &&
               options_.drop_string_fds) {
      // A string attribute whose values pin down the exposure violates
      // strict positivity (conditioning on it fixes T).
      CDI_ASSIGN_OR_RETURN(bool fd_to_t, HoldsFd(t, name, exposure));
      if (fd_to_t) drop = true;
    }
    if (drop) {
      result.dropped_fd_attributes.push_back(name);
    }
  }
  for (const auto& name : result.dropped_fd_attributes) {
    CDI_RETURN_IF_ERROR(t.DropColumn(name));
  }

  // ---- 3. Outlier winsorization (robust z via median/MAD). ------------------
  if (options_.outlier_robust_z > 0) {
    for (const auto& name : t.ColumnNames()) {
      if (name == entity_column || name == exposure) continue;
      CDI_ASSIGN_OR_RETURN(table::Column * col, t.MutableColumn(name));
      if (!table::IsNumeric(col->type())) continue;
      // A borrowed view is safe here: every read of row r happens before
      // the in-place Set of row r, and the median/MAD pass completes
      // before any write.
      const cdi::DoubleSpan vals = col->View();
      const double med = stats::Median(vals);
      std::vector<double> absdev;
      absdev.reserve(vals.size());
      for (double v : vals) {
        if (!std::isnan(v)) absdev.push_back(std::fabs(v - med));
      }
      const double mad = stats::Median(absdev);
      const double scale = 1.4826 * mad;  // consistent with sigma for normals
      if (!(scale > 0)) continue;
      const double fence = options_.outlier_robust_z * scale;
      std::size_t count = 0;
      for (std::size_t r = 0; r < vals.size(); ++r) {
        if (std::isnan(vals[r])) continue;
        if (vals[r] > med + fence) {
          CDI_RETURN_IF_ERROR(col->Set(r, table::Value(med + fence)));
          ++count;
        } else if (vals[r] < med - fence) {
          CDI_RETURN_IF_ERROR(col->Set(r, table::Value(med - fence)));
          ++count;
        }
      }
      if (count > 0) result.winsorized_cells[name] = count;
    }
  }

  // ---- 4. Missingness diagnosis + IPW. ---------------------------------------
  result.row_weights.assign(t.num_rows(), 1.0);
  bool any_bias = false;
  std::vector<double> complete_indicator(t.num_rows(), 1.0);
  for (const auto& name : t.ColumnNames()) {
    if (name == entity_column) continue;
    CDI_ASSIGN_OR_RETURN(const table::Column* col, t.GetColumn(name));
    const std::size_t nulls = col->NullCount();
    if (nulls == 0) continue;
    MissingnessReport report;
    report.attribute = name;
    report.missing_fraction = col->NullFraction();
    std::vector<double> indicator(t.num_rows());
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      indicator[r] = col->IsNull(r) ? 1.0 : 0.0;
      if (col->IsNull(r)) complete_indicator[r] = 0.0;
    }
    report.p_vs_exposure = IndicatorAssociationPValue(indicator, t_vals);
    report.p_vs_outcome = IndicatorAssociationPValue(indicator, o_vals);
    report.selection_bias_risk =
        report.p_vs_exposure < options_.selection_bias_alpha ||
        report.p_vs_outcome < options_.selection_bias_alpha;
    any_bias |= report.selection_bias_risk;
    result.missingness.push_back(report);
  }

  if (any_bias && options_.enable_ipw) {
    // Propensity of a row being complete, modelled on the always-observed
    // exposure and outcome; IPW weight = 1 / P(complete) for complete rows.
    auto fit = stats::FitLogistic({t_vals, o_vals}, complete_indicator);
    if (fit.ok()) {
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        if (complete_indicator[r] < 0.5) continue;  // incomplete rows keep 1.0
        if (std::isnan(t_vals[r]) || std::isnan(o_vals[r])) continue;
        const double p = fit->Predict({t_vals[r], o_vals[r]});
        const double w = 1.0 / std::max(p, 1e-3);
        result.row_weights[r] =
            std::clamp(w, 1.0, options_.max_ipw_weight);
      }
    }
  }

  result.organized = std::move(t);
  return result;
}

}  // namespace cdi::core
