#include "testing/reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/linalg.h"
#include "stats/logistic.h"

namespace cdi::testing {

Result<double> ReferencePartialCorrelation(
    const stats::Matrix& corr, std::size_t i, std::size_t j,
    const std::vector<std::size_t>& given) {
  if (given.size() < 2) return stats::PartialCorrelation(corr, i, j, given);
  if (i >= corr.rows() || j >= corr.rows() || i == j) {
    return Status::InvalidArgument("bad variable indices");
  }
  // Cholesky of the submatrix ordered (given..., i, j) + 1e-10·I; the
  // trailing 2x2 block [[a, 0], [b, c]] of the factor gives
  // rho = b / sqrt(b^2 + c^2).
  std::vector<std::size_t> idx(given);
  idx.push_back(i);
  idx.push_back(j);
  stats::Matrix sub = corr.Submatrix(idx);
  for (std::size_t d = 0; d < sub.rows(); ++d) sub(d, d) += 1e-10;
  auto chol = stats::Cholesky(sub);
  if (chol.ok()) {
    const std::size_t m = sub.rows();
    const double b = (*chol)(m - 1, m - 2);
    const double c = (*chol)(m - 1, m - 1);
    const double den = std::sqrt(b * b + c * c);
    if (den <= 1e-12 || !std::isfinite(den)) return 0.0;
    return std::clamp(b / den, -1.0, 1.0);
  }
  return stats::PartialCorrelationPrecisionFallback(corr, i, j, given);
}

namespace {

/// Maps arbitrary codes to a dense 0..k-1 range; -1 stays -1.
std::vector<int> Densify(const std::vector<int>& x, int* cardinality) {
  std::map<int, int> remap;
  std::vector<int> out(x.size(), -1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0) continue;
    auto [it, _] = remap.emplace(x[i], static_cast<int>(remap.size()));
    out[i] = it->second;
  }
  *cardinality = static_cast<int>(remap.size());
  return out;
}

/// Chi-square statistic and dof of an r x c contingency table.
void TableChiSquare(const std::vector<std::vector<double>>& counts,
                    double* stat, double* dof, double* cramers_v) {
  const std::size_t r = counts.size();
  const std::size_t c = r == 0 ? 0 : counts[0].size();
  std::vector<double> row_sum(r, 0.0), col_sum(c, 0.0);
  double total = 0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      row_sum[i] += counts[i][j];
      col_sum[j] += counts[i][j];
      total += counts[i][j];
    }
  }
  *stat = 0;
  if (total <= 0) {
    *dof = 0;
    *cramers_v = 0;
    return;
  }
  std::size_t nonzero_rows = 0, nonzero_cols = 0;
  for (double s : row_sum) nonzero_rows += s > 0 ? 1 : 0;
  for (double s : col_sum) nonzero_cols += s > 0 ? 1 : 0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const double expected = row_sum[i] * col_sum[j] / total;
      if (expected > 0) {
        const double d = counts[i][j] - expected;
        *stat += d * d / expected;
      }
    }
  }
  *dof = nonzero_rows >= 1 && nonzero_cols >= 1
             ? static_cast<double>((nonzero_rows - 1) * (nonzero_cols - 1))
             : 0.0;
  const double k = static_cast<double>(std::min(nonzero_rows, nonzero_cols));
  *cramers_v =
      (k > 1 && total > 0) ? std::sqrt(*stat / (total * (k - 1.0))) : 0.0;
}

/// TableChiSquare of x against y after densifying both; false when either
/// side has fewer than two distinct codes.
bool DenseChiSquare(std::vector<int> x, std::vector<int> y, double* stat,
                    double* dof, double* cramers_v) {
  int kx = 0, ky = 0;
  x = Densify(x, &kx);
  y = Densify(y, &ky);
  if (kx < 2 || ky < 2) return false;
  std::vector<std::vector<double>> counts(kx, std::vector<double>(ky, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i) counts[x[i]][y[i]] += 1.0;
  TableChiSquare(counts, stat, dof, cramers_v);
  return true;
}

}  // namespace

Result<stats::IndependenceResult> ReferenceChiSquareIndependence(
    const std::vector<int>& x, const std::vector<int>& y) {
  if (x.size() != y.size()) return Status::InvalidArgument("size mismatch");
  std::vector<int> xv, yv;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    xv.push_back(x[i]);
    yv.push_back(y[i]);
  }
  if (xv.size() < 2) return Status::FailedPrecondition("too few rows");
  stats::IndependenceResult r;
  double dof = 0;
  if (!DenseChiSquare(xv, yv, &r.statistic, &dof, &r.strength)) return r;
  r.p_value = dof > 0 ? stats::ChiSquareSf(r.statistic, dof) : 1.0;
  return r;
}

std::vector<int> ReferenceQuantileBin(DoubleSpan x, int bins) {
  std::vector<double> edges;
  for (int b = 1; b < bins; ++b) {
    edges.push_back(stats::Quantile(x, static_cast<double>(b) / bins));
  }
  std::vector<int> out(x.size(), -1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) continue;
    int code = 0;
    for (double e : edges) {
      if (x[i] > e) ++code;
    }
    out[i] = code;
  }
  return out;
}

namespace {

using knowledge::DataLake;

std::set<std::string> NormalizedValueSet(const table::Column& col) {
  std::set<std::string> out;
  for (std::size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) continue;
    std::string key = NormalizeEntityName(col.Get(r).ToString());
    if (!key.empty()) out.insert(std::move(key));
  }
  return out;
}

/// A string column of a lake table that joins the input keys.
struct JoinCandidate {
  std::size_t table_index = 0;
  std::string key_column;
  double containment = 0.0;
};

/// Every string column whose normalized value set contains at least
/// `min_containment` of the distinct normalized keys, by descending
/// containment.
std::vector<JoinCandidate> ReferenceFindJoinable(
    const DataLake& lake, const std::vector<std::string>& keys,
    double min_containment) {
  std::set<std::string> key_set;
  for (const auto& k : keys) {
    std::string key = NormalizeEntityName(k);
    if (!key.empty()) key_set.insert(std::move(key));
  }
  std::vector<JoinCandidate> out;
  if (key_set.empty()) return out;
  for (std::size_t t = 0; t < lake.num_tables(); ++t) {
    const table::Table& table = lake.tables()[t];
    for (std::size_t c = 0; c < table.num_cols(); ++c) {
      const table::Column& col = table.ColumnAt(c);
      if (col.type() != table::DataType::kString) continue;
      const auto values = NormalizedValueSet(col);
      std::size_t hits = 0;
      for (const auto& k : key_set) hits += values.count(k);
      const double containment =
          static_cast<double>(hits) / static_cast<double>(key_set.size());
      if (containment >= min_containment) {
        out.push_back({t, col.name(), containment});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const JoinCandidate& a, const JoinCandidate& b) {
                     return a.containment > b.containment;
                   });
  return out;
}

}  // namespace

std::vector<DataLake::JoinedColumn> ReferenceJoinColumns(
    const DataLake& lake, const std::vector<std::string>& keys,
    double min_containment) {
  std::vector<DataLake::JoinedColumn> out;
  for (const auto& jc : ReferenceFindJoinable(lake, keys, min_containment)) {
    const table::Table& t = lake.tables()[jc.table_index];
    const table::Column* key_col = *t.GetColumn(jc.key_column);
    // Mean of each numeric column per normalized key value.
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      const table::Column& col = t.ColumnAt(c);
      if (!table::IsNumeric(col.type())) continue;
      std::unordered_map<std::string, std::pair<double, double>> agg;
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        if (key_col->IsNull(r) || col.IsNull(r)) continue;
        std::string key = NormalizeEntityName(key_col->Get(r).ToString());
        if (key.empty()) continue;
        auto& [sum, count] = agg[key];
        sum += col.NumericAt(r);
        count += 1;
      }
      // Align with the input keys.
      std::vector<double> aligned(keys.size(), std::nan(""));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::string key = NormalizeEntityName(keys[i]);
        auto it = key.empty() ? agg.end() : agg.find(key);
        if (it != agg.end() && it->second.second > 0) {
          aligned[i] = it->second.first / it->second.second;
        }
      }
      out.push_back({jc.table_index, jc.key_column, col.name(),
                     jc.containment, std::move(aligned)});
    }
  }
  return out;
}

table::Table ReferenceDistinctRows(const table::Table& t) {
  std::unordered_set<std::string> seen;
  std::vector<std::size_t> keep;
  std::string key;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    key.clear();
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      t.ColumnAt(c).AppendKeyBytes(r, &key);
    }
    if (seen.insert(key).second) keep.push_back(r);
  }
  return t.TakeRows(keep);
}

namespace {

double ReferenceIndicatorPValue(DoubleSpan indicator, DoubleSpan values) {
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

Result<core::OrganizerResult> ReferenceOrganize(
    const core::OrganizerOptions& options, const table::Table& augmented,
    const std::string& entity_column, const std::string& exposure,
    const std::string& outcome) {
  core::OrganizerResult result;

  table::Table t = ReferenceDistinctRows(augmented);
  result.duplicate_rows_removed = augmented.num_rows() - t.num_rows();

  CDI_ASSIGN_OR_RETURN(const table::Column* tcol, t.GetColumn(exposure));
  CDI_ASSIGN_OR_RETURN(const table::Column* ocol, t.GetColumn(outcome));
  const std::vector<double> t_vals = tcol->ToDoubles();
  const std::vector<double> o_vals = ocol->ToDoubles();

  for (const auto& name : t.ColumnNames()) {
    if (name == exposure || name == outcome || name == entity_column) continue;
    CDI_ASSIGN_OR_RETURN(const table::Column* col, t.GetColumn(name));
    bool drop = false;
    if (table::IsNumeric(col->type())) {
      const DoubleSpan vals = col->View();
      auto assoc = [](DoubleSpan a, DoubleSpan b) {
        const double rp = stats::PearsonCorrelation(a, b);
        const double rs = stats::SpearmanCorrelation(a, b);
        return std::max(std::isnan(rp) ? 0.0 : std::fabs(rp),
                        std::isnan(rs) ? 0.0 : std::fabs(rs));
      };
      if (assoc(vals, t_vals) >= options.fd_correlation_threshold ||
          assoc(vals, o_vals) >= options.fd_correlation_threshold) {
        drop = true;
      }
    } else if (col->type() == table::DataType::kString &&
               options.drop_string_fds) {
      CDI_ASSIGN_OR_RETURN(bool fd_to_t, core::HoldsFd(t, name, exposure));
      if (fd_to_t) drop = true;
    }
    if (drop) result.dropped_fd_attributes.push_back(name);
  }
  for (const auto& name : result.dropped_fd_attributes) {
    CDI_RETURN_IF_ERROR(t.DropColumn(name));
  }

  if (options.outlier_robust_z > 0) {
    for (const auto& name : t.ColumnNames()) {
      if (name == entity_column || name == exposure) continue;
      CDI_ASSIGN_OR_RETURN(table::Column * col, t.MutableColumn(name));
      if (!table::IsNumeric(col->type())) continue;
      const DoubleSpan vals = col->View();
      const double med = stats::Median(vals);
      std::vector<double> absdev;
      absdev.reserve(vals.size());
      for (double v : vals) {
        if (!std::isnan(v)) absdev.push_back(std::fabs(v - med));
      }
      const double mad = stats::Median(absdev);
      const double scale = 1.4826 * mad;
      if (!(scale > 0)) continue;
      const double fence = options.outlier_robust_z * scale;
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

  result.row_weights.assign(t.num_rows(), 1.0);
  bool any_bias = false;
  std::vector<double> complete_indicator(t.num_rows(), 1.0);
  for (const auto& name : t.ColumnNames()) {
    if (name == entity_column) continue;
    CDI_ASSIGN_OR_RETURN(const table::Column* col, t.GetColumn(name));
    if (col->NullCount() == 0) continue;
    core::MissingnessReport report;
    report.attribute = name;
    report.missing_fraction = col->NullFraction();
    std::vector<double> indicator(t.num_rows());
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      indicator[r] = col->IsNull(r) ? 1.0 : 0.0;
      if (col->IsNull(r)) complete_indicator[r] = 0.0;
    }
    report.p_vs_exposure = ReferenceIndicatorPValue(indicator, t_vals);
    report.p_vs_outcome = ReferenceIndicatorPValue(indicator, o_vals);
    report.selection_bias_risk =
        report.p_vs_exposure < options.selection_bias_alpha ||
        report.p_vs_outcome < options.selection_bias_alpha;
    any_bias |= report.selection_bias_risk;
    result.missingness.push_back(report);
  }

  if (any_bias && options.enable_ipw) {
    auto fit = stats::FitLogistic({t_vals, o_vals}, complete_indicator);
    if (fit.ok()) {
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        if (complete_indicator[r] < 0.5) continue;
        if (std::isnan(t_vals[r]) || std::isnan(o_vals[r])) continue;
        const double p = fit->Predict({t_vals[r], o_vals[r]});
        const double w = 1.0 / std::max(p, 1e-3);
        result.row_weights[r] = std::clamp(w, 1.0, options.max_ipw_weight);
      }
    }
  }

  result.organized = std::move(t);
  return result;
}

}  // namespace cdi::testing
