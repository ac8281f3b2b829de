#ifndef CDI_TESTING_METAMORPHIC_H_
#define CDI_TESTING_METAMORPHIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "discovery/discovery.h"
#include "testing/checks.h"

namespace cdi::testing {

/// Knobs for the discovery-layer metamorphic relations.
struct MetamorphicOptions {
  discovery::Algorithm algorithm = discovery::Algorithm::kPc;
  /// Base discovery configuration (threads = 1).
  discovery::DiscoveryOptions discovery;
  /// Thread count of the parallel run compared against the serial one.
  int alt_threads = 8;
  /// Affine transform ranges: x -> scale * x + shift, scale > 0.
  double scale_lo = 0.5;
  double scale_hi = 3.0;
  double shift_lo = -2.0;
  double shift_hi = 2.0;

  MetamorphicOptions() {
    discovery.num_threads = 1;
    discovery.max_cond_size = 2;
  }
};

/// Runs the discovery algorithm on `columns` and verifies the metamorphic
/// and differential relations the engine documents:
///
///  * column-permutation invariance — relabeled inputs give the same
///    *skeleton* (adjacency set mapped back through the permutation; the
///    orientation phase of PC is order-dependent by design, so directed
///    claims are not compared here);
///  * row-permutation invariance — reordered samples give the same claim
///    set (sufficient statistics are permutation-invariant up to FP
///    summation order, far below any decision threshold);
///  * affine-rescaling invariance — x -> a*x + b (a > 0) per column leaves
///    the discovered structure unchanged (correlation is scale-free);
///  * thread-count identity — 1-thread and alt_threads runs yield bitwise
///    identical claim lists (the engine's determinism guarantee);
///  * rerun identity — running twice on the same data is bitwise stable.
///
/// `seed` drives the permutations/transforms. Returns all violated
/// relations (empty = all hold).
std::vector<CheckFailure> CheckDiscoveryInvariances(
    const std::vector<std::vector<double>>& columns,
    const std::vector<std::string>& names, uint64_t seed,
    const MetamorphicOptions& options = {});

}  // namespace cdi::testing

#endif  // CDI_TESTING_METAMORPHIC_H_
