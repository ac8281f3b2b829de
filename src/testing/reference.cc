#include "testing/reference.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/linalg.h"

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

}  // namespace

std::vector<DataLake::JoinCandidate> ReferenceFindJoinable(
    const DataLake& lake, const std::vector<std::string>& keys,
    double min_containment) {
  std::set<std::string> key_set;
  for (const auto& k : keys) {
    std::string key = NormalizeEntityName(k);
    if (!key.empty()) key_set.insert(std::move(key));
  }
  std::vector<DataLake::JoinCandidate> out;
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
                   [](const DataLake::JoinCandidate& a,
                      const DataLake::JoinCandidate& b) {
                     return a.containment > b.containment;
                   });
  return out;
}

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

Result<std::vector<DataLake::AugmentationCandidate>>
ReferenceFindCorrelatedColumns(const DataLake& lake,
                               const std::vector<std::string>& keys,
                               DoubleSpan target, double min_containment) {
  if (keys.size() != target.size()) {
    return Status::InvalidArgument("keys/target size mismatch");
  }
  std::vector<DataLake::AugmentationCandidate> out;
  for (const auto& jc : ReferenceJoinColumns(lake, keys, min_containment)) {
    const double r = stats::PearsonCorrelation(jc.values, target);
    if (std::isnan(r)) continue;
    out.push_back({jc.table_index, jc.key_column, jc.value_column,
                   jc.containment, std::fabs(r)});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DataLake::AugmentationCandidate& a,
                      const DataLake::AugmentationCandidate& b) {
                     return a.abs_correlation > b.abs_correlation;
                   });
  return out;
}

}  // namespace cdi::testing
