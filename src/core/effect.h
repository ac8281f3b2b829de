#ifndef CDI_CORE_EFFECT_H_
#define CDI_CORE_EFFECT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "stats/sufficient_stats.h"
#include "table/table.h"

namespace cdi::core {

/// Result of a regression-adjustment effect estimate on standardized data.
struct EffectEstimate {
  /// Standardized coefficient of the exposure (can be negative).
  double effect = 0.0;
  /// |effect| — what Table 3's "Direct Effect" column reports.
  double abs_effect = 0.0;
  double std_error = 0.0;
  double p_value = 1.0;
  /// Attributes actually adjusted for (requested minus unusable columns).
  std::vector<std::string> adjusted_for;
  std::size_t n_used = 0;
};

/// Estimates the effect of `exposure` on `outcome` by weighted standardized
/// OLS, adjusting for `adjustment` attributes (numeric columns of `t`;
/// string columns are skipped with a note in `adjusted_for` semantics —
/// they simply do not appear there). Empty `weights` means unweighted.
///
/// With the mediators of exposure -> outcome in the adjustment set this
/// estimates the *controlled direct effect*; with only confounders it
/// estimates the total effect (backdoor adjustment). Ground truth for both
/// scenarios: the direct effect is 0.
Result<EffectEstimate> EstimateEffect(
    const table::Table& t, const std::string& exposure,
    const std::string& outcome, const std::vector<std::string>& adjustment,
    const std::vector<double>& weights = {});

/// Standardized-OLS effect estimate computed *entirely from shared
/// sufficient statistics* — normal equations on the correlation submatrix
/// over [exposure, adjustment..., outcome], no pass over raw rows. This is
/// the serving planner's effect path: once a scenario's statistics are
/// built, every (exposure, outcome, adjustment) estimate is O(p^3) linear
/// algebra on submatrices of S.
///
/// `names` maps statistics column indices to attribute names (index i of
/// `stats` is `names[i]`). Adjustment attributes equal to the exposure or
/// outcome, or absent from `names`, are skipped — mirroring
/// EstimateEffect's column-skipping semantics.
///
/// Semantics: slopes b solve R_xx b = R_xy (tiny ridge, as FitOls);
/// rss = (W - 1)(1 - b'R_xy) on the standardized scale with W the weight
/// sum; sigma^2 = rss / (n - p - 1) with n the complete-row count; SE from
/// sigma^2 R_xx^{-1} / (W - 1). The rows entering the estimate are the
/// statistics' listwise-complete rows over *all* of its columns, so the
/// result is a deterministic function of `stats` alone — bitwise
/// reproducible across calls, threads, and processes, though not defined
/// to be bitwise-equal to the per-query FitStandardizedOls path (which
/// deletes listwise over only the involved columns).
///
/// `corr` is an optional precomputed correlation matrix of `stats` (the
/// serving planner derives it once per plan); null derives it here.
Result<EffectEstimate> EstimateEffectFromStats(
    const stats::SufficientStats& stats,
    const std::vector<std::string>& names, const std::string& exposure,
    const std::string& outcome, const std::vector<std::string>& adjustment,
    const stats::Matrix* corr = nullptr);

}  // namespace cdi::core

#endif  // CDI_CORE_EFFECT_H_
