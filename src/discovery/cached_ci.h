#ifndef CDI_DISCOVERY_CACHED_CI_H_
#define CDI_DISCOVERY_CACHED_CI_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "discovery/ci_test.h"
#include "stats/correlation.h"

namespace cdi::discovery {

/// Memoizing decorator around any CiTest.
///
/// Every (x, y, S) query is canonicalized — the pair ordered, the
/// conditioning set sorted — before lookup, which is sound because
/// "X ⟂ Y | S" is symmetric in X and Y and invariant to the order of S.
/// Both the p-value and the strength are cached under the same key, so a
/// PValue query warms the Strength cache's key slot and vice versa.
///
/// Thread safety: the cache is sharded, each shard behind its own mutex,
/// and the wrapped test is only required to be safe for concurrent reads
/// (every CiTest is). Two threads racing on the same uncached key may
/// both evaluate the base test; they compute the same deterministic value,
/// so the cache content — and therefore every answer — is independent of
/// thread count and interleaving.
///
/// `calls` counts *queries* (hits and misses alike), matching the serial
/// uncached accounting that PC/FCI report as `ci_tests`; the wrapped
/// test's own `calls` counts actual evaluations (misses).
class CachedCiTest : public CiTest {
 public:
  /// Borrows `base`, which must outlive this object.
  explicit CachedCiTest(const CiTest* base) : base_(base) {}

  /// Takes ownership of `base`.
  explicit CachedCiTest(std::unique_ptr<CiTest> base)
      : owned_(std::move(base)), base_(owned_.get()) {}

  /// Convenience: a Fisher-z test over `data` (the correlation matrix is
  /// the shared sufficient statistic, computed once here) wrapped in a
  /// cache. `pool` parallelizes the statistics pass
  /// (bitwise-deterministic; null = serial).
  static Result<std::unique_ptr<CachedCiTest>> ForGaussian(
      const stats::NumericDataset& data, ThreadPool* pool = nullptr);

  /// Same, from an already-computed sufficient-statistics instance — no
  /// pass over the raw rows.
  static Result<std::unique_ptr<CachedCiTest>> ForGaussian(
      const stats::SufficientStats& stats);

  std::size_t num_vars() const override { return base_->num_vars(); }
  double PValue(std::size_t x, std::size_t y,
                const std::vector<std::size_t>& s) const override;
  double Strength(std::size_t x, std::size_t y,
                  const std::vector<std::size_t>& s) const override;

  const CiTest& base() const { return *base_; }
  std::size_t cache_hits() const { return hits_.load(); }
  std::size_t cache_misses() const { return misses_.load(); }

 private:
  struct Entry {
    double p = 0.0;
    double strength = 0.0;
    bool has_p = false;
    bool has_strength = false;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> map;
  };

  /// Writes the canonical byte key — (min, max, sorted S) as raw 32-bit
  /// values — into `key`. Takes a caller-owned buffer (in practice a
  /// thread-local one) so the hit path performs no heap allocation: keys
  /// with |S| >= 2 exceed std::string's small-buffer capacity, and the
  /// query rate makes a fresh string per lookup measurable.
  static void EncodeKey(std::size_t x, std::size_t y,
                        const std::vector<std::size_t>& s, std::string* key);
  Shard& ShardFor(const std::string& key) const;

  static constexpr std::size_t kNumShards = 16;
  std::unique_ptr<CiTest> owned_;
  const CiTest* base_;
  mutable std::array<Shard, kNumShards> shards_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

}  // namespace cdi::discovery

#endif  // CDI_DISCOVERY_CACHED_CI_H_
