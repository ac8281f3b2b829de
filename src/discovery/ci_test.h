#ifndef CDI_DISCOVERY_CI_TEST_H_
#define CDI_DISCOVERY_CI_TEST_H_

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "graph/digraph.h"
#include "stats/correlation.h"
#include "stats/matrix.h"
#include "stats/sufficient_stats.h"

namespace cdi::discovery {

/// Interface for conditional-independence tests used by the constraint-based
/// discovery algorithms (PC, FCI) and CATER's pruning stage. Implementations
/// are deterministic, and PValue/Strength must be safe to call from several
/// threads at once (the parallel skeleton phases do exactly that).
class CiTest {
 public:
  virtual ~CiTest() = default;

  /// Number of variables the test knows about.
  virtual std::size_t num_vars() const = 0;

  /// Two-sided p-value of H0: X ⟂ Y | S.
  virtual double PValue(std::size_t x, std::size_t y,
                        const std::vector<std::size_t>& s) const = 0;

  /// Effect-size proxy for the dependence (|partial correlation| or
  /// equivalent); used for tie-breaking and cycle repair.
  virtual double Strength(std::size_t x, std::size_t y,
                          const std::vector<std::size_t>& s) const = 0;

  /// Decision at significance level `alpha`: independent iff p >= alpha.
  bool Independent(std::size_t x, std::size_t y,
                   const std::vector<std::size_t>& s, double alpha) const {
    return PValue(x, y, s) >= alpha;
  }

  /// Number of PValue evaluations performed (statistics/benchmarks).
  /// Atomic: evaluations may run concurrently.
  mutable std::atomic<std::size_t> calls{0};
};

/// Gaussian (Fisher-z) partial-correlation test. Precomputes the
/// correlation matrix over complete rows once; each query is one
/// allocation-free stats::PartialCorrelation on it.
class FisherZTest : public CiTest {
 public:
  /// Fails when fewer than 5 complete rows exist. `pool` parallelizes the
  /// sufficient-statistics pass (bitwise-deterministic; null = serial).
  static Result<std::unique_ptr<FisherZTest>> Create(
      const stats::NumericDataset& data, ThreadPool* pool = nullptr);

  /// Builds the test from an already-computed sufficient-statistics
  /// instance — no pass over the raw rows.
  static Result<std::unique_ptr<FisherZTest>> Create(
      const stats::SufficientStats& stats);

  std::size_t num_vars() const override { return corr_.rows(); }
  double PValue(std::size_t x, std::size_t y,
                const std::vector<std::size_t>& s) const override;
  double Strength(std::size_t x, std::size_t y,
                  const std::vector<std::size_t>& s) const override;

  const stats::Matrix& correlation() const { return corr_; }
  std::size_t sample_size() const { return n_; }

 private:
  FisherZTest(stats::Matrix corr, std::size_t n)
      : corr_(std::move(corr)), n_(n) {}

  stats::Matrix corr_;
  std::size_t n_;
};

/// Exact d-separation oracle over a known DAG. Property tests use it to
/// check that PC/FCI recover the right equivalence class when the test is
/// perfect.
class DSeparationOracle : public CiTest {
 public:
  /// `dag` must be acyclic.
  static Result<std::unique_ptr<DSeparationOracle>> Create(
      const graph::Digraph& dag);

  std::size_t num_vars() const override { return dag_.num_nodes(); }

  /// 1.0 when d-separated (independent), 0.0 otherwise.
  double PValue(std::size_t x, std::size_t y,
                const std::vector<std::size_t>& s) const override;
  double Strength(std::size_t x, std::size_t y,
                  const std::vector<std::size_t>& s) const override;

 private:
  explicit DSeparationOracle(graph::Digraph dag) : dag_(std::move(dag)) {}
  graph::Digraph dag_;
};

}  // namespace cdi::discovery

#endif  // CDI_DISCOVERY_CI_TEST_H_
