#ifndef CDI_STATS_FACTOR_CACHE_H_
#define CDI_STATS_FACTOR_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "stats/matrix.h"

namespace cdi::stats {

/// Shared Cholesky factorizations for the batched CI engine.
///
/// A PC skeleton level issues thousands of CI queries (x, y | S) whose
/// conditioning sets overlap heavily — lexicographic subset enumeration
/// walks S = {c0,c1,c2}, {c0,c1,c3}, ... — and GES rescoring grows a
/// sorted parent set one variable at a time. Every such query factors
/// base[S, S] + ridge·I. Because Cholesky is computed row by row, the
/// factor of any *prefix* of S is exactly the leading principal block of
/// S's factor, so a cached factor for a prefix extends to S by computing
/// only the new rows — and the extension is bitwise identical to
/// factoring from scratch (same subtractions, same order, same
/// operands). This cache keys factors by the exact ordered index
/// sequence S, probes progressively shorter prefixes on a miss, and
/// extends the longest hit.
///
/// Failed factorizations are cached too: a pivot failure at row t is a
/// deterministic property of the leading (t+1)-block, so any sequence
/// extending that prefix fails identically, and callers take the same
/// fallback they would have taken from scratch.
///
/// Thread-safe (shared_mutex around the map; counters are relaxed
/// atomics). Cache *content* is a pure function of the key — no entry is
/// ever derived via downdating or any arithmetic that depends on cache
/// history — so concurrent interleavings and evictions can only change
/// speed, never a value.
class FactorCache {
 public:
  /// A cached lower-triangular factor of base[s, s] + ridge·I, stored
  /// packed (row i starts at i(i+1)/2 and has i+1 entries) so that a
  /// prefix factor is a *prefix of the array* and extension is a pure
  /// append. When `failed` is set the factorization hit a non-positive
  /// pivot at row `l.size()` rows in; `l` holds the valid prefix.
  struct Factor {
    std::size_t n = 0;  // number of variables the key covers
    bool failed = false;
    std::vector<double> l;  // packed lower triangle, n(n+1)/2 when !failed
  };

  /// Borrows `base` (typically a correlation or cross-product matrix),
  /// which must outlive the cache and stay at a stable address — hold it
  /// behind a unique_ptr/shared_ptr in movable owners. `ridge` is the
  /// diagonal regularizer the mirrored from-scratch path adds (1e-10 for
  /// PartialCorrelation, 1e-9 for SolveNormalEquations-style solves).
  FactorCache(const Matrix* base, double ridge);

  FactorCache(const FactorCache&) = delete;
  FactorCache& operator=(const FactorCache&) = delete;

  /// Factor of base[s, s] + ridge·I for |s| >= 2, reusing the longest
  /// cached prefix of `s`. Never returns null; inspect `failed`.
  std::shared_ptr<const Factor> FactorFor(const std::vector<std::size_t>& s);

  /// Partial correlation rho(i, j | given) — bitwise identical to
  /// stats::PartialCorrelation(*base, i, j, given) when the cache ridge
  /// is the 1e-10 that function applies — but the conditioning-set
  /// factor comes from the cache and only the two query rows are
  /// computed (on the stack, never cached). Small conditioning sets
  /// (|given| <= 3) skip the map and factor inline into a thread-local
  /// buffer: the map round trip costs more than redoing a factor that
  /// small, and the inline factor replays the same row arithmetic, so
  /// the answer is unchanged bit for bit.
  Result<double> PartialCorrelation(std::size_t i, std::size_t j,
                                    const std::vector<std::size_t>& given);

  /// Solves (base[s, s] + ridge·I) x = rhs with the cached factor;
  /// bitwise identical to CholeskySolve on the ridged submatrix. Fails
  /// when the factorization is degenerate — callers then run their own
  /// retry policy (e.g. the +1e-6 re-ridge of SolveNormalEquations).
  Result<std::vector<double>> Solve(const std::vector<std::size_t>& s,
                                    const std::vector<double>& rhs);

  /// Drops every factor covering fewer than `min_vars` variables. PC
  /// calls this as its level advances: level ℓ only extends prefixes of
  /// size ℓ-1 and up, so smaller factors are dead weight. Purely a
  /// memory/speed knob — a dropped factor is recomputed to the same bits.
  void EvictSmallerThan(std::size_t min_vars);

  std::size_t size() const;
  /// Monotonic counters (relaxed; for benchmarks and EXPERIMENTS.md).
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Rows computed via prefix extension (vs. `rows_from_scratch()` for
  /// rows computed with no usable prefix) — the factor-reuse win is
  /// roughly quadratic in the rows *not* recomputed.
  std::size_t rows_extended() const {
    return rows_extended_.load(std::memory_order_relaxed);
  }
  std::size_t rows_from_scratch() const {
    return rows_from_scratch_.load(std::memory_order_relaxed);
  }
  /// PartialCorrelation queries answered by the inline small-set path
  /// (no map access; not counted in hits/misses).
  std::size_t inline_factors() const {
    return inline_factors_.load(std::memory_order_relaxed);
  }

  double ridge() const { return ridge_; }

 private:
  std::shared_ptr<const Factor> Lookup(const std::string& key) const;

  const Matrix* base_;
  const double ridge_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Factor>> map_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> rows_extended_{0};
  std::atomic<std::size_t> rows_from_scratch_{0};
  std::atomic<std::size_t> inline_factors_{0};
};

}  // namespace cdi::stats

#endif  // CDI_STATS_FACTOR_CACHE_H_
