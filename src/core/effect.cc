#include "core/effect.h"

#include <algorithm>
#include <cmath>

#include "common/span.h"
#include "stats/distributions.h"
#include "stats/linalg.h"
#include "stats/regression.h"

namespace cdi::core {

Result<EffectEstimate> EstimateEffect(const table::Table& t,
                                      const std::string& exposure,
                                      const std::string& outcome,
                                      const std::vector<std::string>& adjustment,
                                      const std::vector<double>& weights) {
  CDI_ASSIGN_OR_RETURN(const table::Column* tcol, t.GetColumn(exposure));
  CDI_ASSIGN_OR_RETURN(const table::Column* ocol, t.GetColumn(outcome));
  if (!table::IsNumeric(tcol->type()) && tcol->type() != table::DataType::kBool) {
    return Status::InvalidArgument("exposure must be numeric");
  }
  if (!table::IsNumeric(ocol->type()) && ocol->type() != table::DataType::kBool) {
    return Status::InvalidArgument("outcome must be numeric");
  }

  // Zero-copy views over `t`, which outlives the fit below.
  std::vector<cdi::DoubleSpan> xs;
  xs.push_back(tcol->View());
  EffectEstimate est;
  for (const auto& name : adjustment) {
    if (name == exposure || name == outcome) continue;
    auto col = t.GetColumn(name);
    if (!col.ok()) continue;  // adjustment attr not materialized — skip
    if ((*col)->type() == table::DataType::kString) continue;
    xs.push_back((*col)->View());
    est.adjusted_for.push_back(name);
  }

  CDI_ASSIGN_OR_RETURN(stats::OlsFit fit,
                       stats::FitStandardizedOls(xs, ocol->View(),
                                                 weights));
  est.effect = fit.beta(0);
  est.abs_effect = std::fabs(est.effect);
  est.std_error = fit.std_errors[1];
  est.p_value = fit.p_values[1];
  est.n_used = fit.n_used;
  return est;
}

Result<EffectEstimate> EstimateEffectFromStats(
    const stats::SufficientStats& stats,
    const std::vector<std::string>& names, const std::string& exposure,
    const std::string& outcome, const std::vector<std::string>& adjustment,
    const stats::Matrix* corr) {
  if (names.size() != stats.num_vars()) {
    return Status::InvalidArgument(
        "names/statistics size mismatch: " + std::to_string(names.size()) +
        " names vs " + std::to_string(stats.num_vars()) + " variables");
  }
  const auto index_of = [&names](const std::string& name) -> std::size_t {
    const auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? names.size()
                             : static_cast<std::size_t>(it - names.begin());
  };
  const std::size_t t_idx = index_of(exposure);
  if (t_idx == names.size()) {
    return Status::InvalidArgument("exposure '" + exposure +
                                   "' is not a statistics column");
  }
  const std::size_t o_idx = index_of(outcome);
  if (o_idx == names.size()) {
    return Status::InvalidArgument("outcome '" + outcome +
                                   "' is not a statistics column");
  }
  if (t_idx == o_idx) {
    return Status::InvalidArgument(
        "exposure and outcome must be distinct (both '" + exposure + "')");
  }

  EffectEstimate est;
  // Predictor index set: exposure first, then each usable adjustment
  // attribute (same skip rules as the table-based path).
  std::vector<std::size_t> xs{t_idx};
  for (const auto& name : adjustment) {
    if (name == exposure || name == outcome) continue;
    const std::size_t idx = index_of(name);
    if (idx == names.size()) continue;  // not materialized — skip
    xs.push_back(idx);
    est.adjusted_for.push_back(name);
  }

  const std::size_t n = stats.complete_rows();
  const std::size_t p = xs.size();
  if (n < p + 2) {
    return Status::InvalidArgument(
        "not enough complete rows (" + std::to_string(n) + ") for " +
        std::to_string(p) + " predictors");
  }

  // Standardized slopes from the correlation submatrix: R_xx b = R_xy.
  stats::Matrix local_corr;
  if (corr == nullptr) {
    local_corr = stats.Correlation();
    corr = &local_corr;
  }
  stats::Matrix rxx(p, p);
  std::vector<double> rxy(p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) rxx(i, j) = (*corr)(xs[i], xs[j]);
    rxy[i] = (*corr)(xs[i], o_idx);
  }
  CDI_ASSIGN_OR_RETURN(std::vector<double> beta,
                       stats::SolveNormalEquations(rxx, rxy, 1e-9));

  // rss on the standardized scale: total SS is W - 1 by construction.
  const double wsum = stats.weight_sum();
  double explained = 0.0;
  for (std::size_t i = 0; i < p; ++i) explained += beta[i] * rxy[i];
  const double rss = std::max(0.0, (wsum - 1.0) * (1.0 - explained));
  const double dof = static_cast<double>(n) - static_cast<double>(p) - 1.0;
  const double sigma2 = rss / dof;

  // Var(b) = sigma^2 R_xx^{-1} / (W - 1); mirror FitOls's diagonal guard
  // so collinear submatrices degrade to huge-but-finite standard errors.
  stats::Matrix guarded = rxx;
  for (std::size_t i = 0; i < p; ++i) guarded(i, i) += 1e-10;
  CDI_ASSIGN_OR_RETURN(stats::Matrix rxx_inv, stats::Inverse(guarded));
  const double denom = std::max(1.0, wsum - 1.0);
  const double var0 = sigma2 * rxx_inv(0, 0) / denom;
  est.std_error = var0 > 0.0 ? std::sqrt(var0) : 0.0;

  est.effect = beta[0];
  est.abs_effect = std::fabs(est.effect);
  if (est.std_error > 0.0) {
    est.p_value =
        stats::StudentTTwoSidedPValue(est.effect / est.std_error, dof);
  } else {
    est.p_value = 1.0;
  }
  est.n_used = n;
  return est;
}

}  // namespace cdi::core
