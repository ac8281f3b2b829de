#ifndef CDI_TESTING_REFERENCE_H_
#define CDI_TESTING_REFERENCE_H_

#include <vector>

#include "common/status.h"
#include "stats/matrix.h"

namespace cdi::testing {

/// Bitwise reference for stats::PartialCorrelation: the straightforward
/// Submatrix + Cholesky formulation, allocating a fresh submatrix and
/// factor per query. stats::PartialCorrelation must agree with it to the
/// bit for every conditioning-set size, fallback included.
Result<double> ReferencePartialCorrelation(
    const stats::Matrix& corr, std::size_t i, std::size_t j,
    const std::vector<std::size_t>& given);

}  // namespace cdi::testing

#endif  // CDI_TESTING_REFERENCE_H_
