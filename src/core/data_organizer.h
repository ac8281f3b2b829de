#ifndef CDI_CORE_DATA_ORGANIZER_H_
#define CDI_CORE_DATA_ORGANIZER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace cdi::core {

struct OrganizerOptions {
  /// Numeric attributes whose |correlation| with the exposure or outcome
  /// reaches this are treated as functionally dependent (they violate the
  /// strict-positivity assumption) and discarded, following Salimi et al.
  double fd_correlation_threshold = 0.995;
  /// Drop string attributes that functionally determine the exposure
  /// (each value maps to a single exposure value).
  bool drop_string_fds = true;
  /// Winsorize numeric cells whose robust z-score (median/MAD) exceeds
  /// this; <= 0 disables outlier handling.
  double outlier_robust_z = 4.0;
  /// Significance level for the missingness–exposure/outcome association
  /// test that flags selection-bias risk.
  double selection_bias_alpha = 0.05;
  /// Compute inverse-probability weights for rows when selection bias is
  /// detected.
  bool enable_ipw = true;
  /// IPW weights are clipped to [1, max_ipw_weight].
  double max_ipw_weight = 10.0;
};

/// Missingness diagnosis for one attribute.
struct MissingnessReport {
  std::string attribute;
  double missing_fraction = 0.0;
  /// p-value of association between the missingness indicator and the
  /// exposure (smaller = more worrying).
  double p_vs_exposure = 1.0;
  double p_vs_outcome = 1.0;
  bool selection_bias_risk = false;
};

struct OrganizerResult {
  /// The cleaned, augmented table.
  table::Table organized;
  /// Attributes discarded for functional dependencies.
  std::vector<std::string> dropped_fd_attributes;
  /// Attributes whose outliers were winsorized (with cell counts).
  std::map<std::string, std::size_t> winsorized_cells;
  std::vector<MissingnessReport> missingness;
  /// Per-row IPW weights (all 1.0 when no selection bias was detected or
  /// IPW is disabled). Length == organized.num_rows().
  std::vector<double> row_weights;
  std::size_t duplicate_rows_removed = 0;
};

/// §3.2 — The Data Organizer. Takes the extractor's augmented table and
/// repairs the quality issues that would bias causal inference:
/// functional dependencies with the exposure/outcome (positivity
/// violations), duplicate rows, gross outliers, and
/// missing-not-at-random extraction (selection bias), for which it fits a
/// logistic propensity model of row completeness and emits
/// inverse-probability weights.
class DataOrganizer {
 public:
  explicit DataOrganizer(OrganizerOptions options = OrganizerOptions())
      : options_(options) {}

  Result<OrganizerResult> Organize(const table::Table& augmented,
                                   const std::string& entity_column,
                                   const std::string& exposure,
                                   const std::string& outcome) const;

 private:
  OrganizerOptions options_;
};

/// Exact functional dependency check: does every distinct value of `lhs`
/// map to at most one value of `rhs`? Null lhs values are ignored.
Result<bool> HoldsFd(const table::Table& t, const std::string& lhs,
                     const std::string& rhs);

}  // namespace cdi::core

#endif  // CDI_CORE_DATA_ORGANIZER_H_
