#include "core/data_organizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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

/// stats::Median(*values) bit for bit for NaN-free values, by selection
/// instead of a sort. Reorders `values`.
double MedianBySelection(std::vector<double>* values) {
  if (values->empty()) return std::numeric_limits<double>::quiet_NaN();
  const stats::QuantilePosition m = stats::QuantileAt(values->size(), 0.5);
  const auto lo = values->begin() + static_cast<std::ptrdiff_t>(m.lo);
  std::nth_element(values->begin(), lo, values->end());
  const double v_lo = *lo;
  const double v_hi =
      m.hi == m.lo ? v_lo : *std::min_element(lo + 1, values->end());
  return v_lo * (1.0 - m.frac) + v_hi * m.frac;
}

}  // namespace

Result<bool> HoldsFd(const table::Table& t, const std::string& lhs,
                     const std::string& rhs) {
  CDI_ASSIGN_OR_RETURN(const table::Column* l, t.GetColumn(lhs));
  CDI_ASSIGN_OR_RETURN(const table::Column* r, t.GetColumn(rhs));
  // Exact typed keys, never a decimal rendering: two doubles that agree to
  // ten significant digits are still two values, and so are two int64
  // values above 2^53. A null rhs keys as its own tag.
  std::unordered_map<std::string, std::string> map;
  std::string lv, rv;
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    if (l->IsNull(row)) continue;
    lv.clear();
    rv.clear();
    l->AppendKeyBytes(row, &lv);
    r->AppendKeyBytes(row, &rv);
    auto [it, inserted] = map.try_emplace(lv, rv);
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
  // Every numeric column is sorted once: its rank order feeds both the
  // Spearman screen of step 2 and the median of step 3. orders[i] belongs
  // to column i of `t` before any drop.
  const std::vector<std::size_t> t_order = stats::RankOrder(t_vals);
  const std::vector<std::size_t> o_order = stats::RankOrder(o_vals);
  std::vector<std::vector<std::size_t>> orders(t.num_cols());
  std::vector<bool> dropped(t.num_cols(), false);

  // ---- 2. Functional dependencies with exposure/outcome. --------------------
  for (std::size_t i = 0; i < t.num_cols(); ++i) {
    const table::Column& col = t.ColumnAt(i);
    const std::string& name = col.name();
    if (name == exposure || name == outcome || name == entity_column) continue;
    bool drop = false;
    if (table::IsNumeric(col.type())) {
      // Spearman catches monotone-but-nonlinear deterministic relations
      // (e.g. a calling code that is a monotone function of the exposure).
      const cdi::DoubleSpan vals = col.View();
      orders[i] = stats::RankOrder(vals);
      auto assoc = [&](cdi::DoubleSpan other,
                       const std::vector<std::size_t>& other_order) {
        const double rp = stats::PearsonCorrelation(vals, other);
        const double rs =
            stats::SpearmanFromOrders(vals, orders[i], other, other_order);
        return std::max(std::isnan(rp) ? 0.0 : std::fabs(rp),
                        std::isnan(rs) ? 0.0 : std::fabs(rs));
      };
      if (assoc(t_vals, t_order) >= options_.fd_correlation_threshold ||
          assoc(o_vals, o_order) >= options_.fd_correlation_threshold) {
        drop = true;
      }
    } else if (col.type() == table::DataType::kString &&
               options_.drop_string_fds) {
      // A string attribute whose values pin down the exposure violates
      // strict positivity (conditioning on it fixes T).
      CDI_ASSIGN_OR_RETURN(bool fd_to_t, HoldsFd(t, name, exposure));
      if (fd_to_t) drop = true;
    }
    if (drop) {
      result.dropped_fd_attributes.push_back(name);
      dropped[i] = true;
    }
  }
  for (const auto& name : result.dropped_fd_attributes) {
    CDI_RETURN_IF_ERROR(t.DropColumn(name));
  }

  // ---- 3. Outlier winsorization (robust z via median/MAD). ------------------
  if (options_.outlier_robust_z > 0) {
    std::vector<double> absdev;  // one buffer for every column's MAD
    std::size_t j = 0;           // column i's index in `t` after the drops
    for (std::size_t i = 0; i < orders.size(); ++i) {
      if (dropped[i]) continue;
      table::Column& col = t.MutableColumnAt(j++);
      const std::string& name = col.name();
      if (name == entity_column || name == exposure) continue;
      if (!table::IsNumeric(col.type())) continue;
      // A borrowed view is safe here: every read of row r happens before
      // the in-place Set of row r, and the median/MAD pass completes
      // before any write. The rank order is still the column's: only
      // other columns were written since step 2 ranked it.
      const cdi::DoubleSpan vals = col.View();
      const double med = stats::QuantileFromOrder(
          vals, name == outcome ? o_order : orders[i], 0.5);
      absdev.clear();
      for (double v : vals) {
        if (!std::isnan(v)) absdev.push_back(std::fabs(v - med));
      }
      const double mad = MedianBySelection(&absdev);
      const double scale = 1.4826 * mad;  // consistent with sigma for normals
      if (!(scale > 0)) continue;
      const double fence = options_.outlier_robust_z * scale;
      std::size_t count = 0;
      for (std::size_t r = 0; r < vals.size(); ++r) {
        if (std::isnan(vals[r])) continue;
        if (vals[r] > med + fence) {
          CDI_RETURN_IF_ERROR(col.Set(r, table::Value(med + fence)));
          ++count;
        } else if (vals[r] < med - fence) {
          CDI_RETURN_IF_ERROR(col.Set(r, table::Value(med - fence)));
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
  std::vector<double> indicator(t.num_rows());  // reused per attribute
  for (std::size_t i = 0; i < t.num_cols(); ++i) {
    const table::Column& col = t.ColumnAt(i);
    if (col.name() == entity_column) continue;
    if (col.NullCount() == 0) continue;
    MissingnessReport report;
    report.attribute = col.name();
    report.missing_fraction = col.NullFraction();
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const bool null = col.IsNull(r);
      indicator[r] = null ? 1.0 : 0.0;
      if (null) complete_indicator[r] = 0.0;
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
      std::vector<double> features(2);
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        if (complete_indicator[r] < 0.5) continue;  // incomplete rows keep 1.0
        if (std::isnan(t_vals[r]) || std::isnan(o_vals[r])) continue;
        features[0] = t_vals[r];
        features[1] = o_vals[r];
        const double p = fit->Predict(features);
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
