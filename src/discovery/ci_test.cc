#include "discovery/ci_test.h"

#include <cmath>

#include "graph/dsep.h"

namespace cdi::discovery {

Result<std::unique_ptr<FisherZTest>> FisherZTest::Create(
    const stats::NumericDataset& data, ThreadPool* pool) {
  const std::size_t n = stats::CompleteRowCount(data);
  if (n < 5) {
    return Status::FailedPrecondition(
        "FisherZTest needs at least 5 complete rows, got " +
        std::to_string(n));
  }
  CDI_ASSIGN_OR_RETURN(stats::Matrix corr,
                       stats::CorrelationMatrix(data, pool));
  return std::unique_ptr<FisherZTest>(new FisherZTest(std::move(corr), n));
}

Result<std::unique_ptr<FisherZTest>> FisherZTest::Create(
    const stats::SufficientStats& stats) {
  const std::size_t n = stats.complete_rows();
  if (n < 5) {
    return Status::FailedPrecondition(
        "FisherZTest needs at least 5 complete rows, got " +
        std::to_string(n));
  }
  return std::unique_ptr<FisherZTest>(new FisherZTest(stats.Correlation(), n));
}

double FisherZTest::PValue(std::size_t x, std::size_t y,
                           const std::vector<std::size_t>& s) const {
  ++calls;
  auto r = stats::PartialCorrelation(corr_, x, y, s);
  if (!r.ok()) return 1.0;
  return stats::FisherZPValue(*r, n_, s.size());
}

double FisherZTest::Strength(std::size_t x, std::size_t y,
                             const std::vector<std::size_t>& s) const {
  auto r = stats::PartialCorrelation(corr_, x, y, s);
  return r.ok() ? std::fabs(*r) : 0.0;
}

Result<std::unique_ptr<DSeparationOracle>> DSeparationOracle::Create(
    const graph::Digraph& dag) {
  if (!dag.IsAcyclic()) {
    return Status::InvalidArgument("oracle requires a DAG");
  }
  return std::unique_ptr<DSeparationOracle>(new DSeparationOracle(dag));
}

double DSeparationOracle::PValue(std::size_t x, std::size_t y,
                                 const std::vector<std::size_t>& s) const {
  ++calls;
  std::set<graph::NodeId> given(s.begin(), s.end());
  auto sep = graph::DSeparated(dag_, x, y, given);
  if (!sep.ok()) return 1.0;
  return *sep ? 1.0 : 0.0;
}

double DSeparationOracle::Strength(std::size_t x, std::size_t y,
                                   const std::vector<std::size_t>& s) const {
  return 1.0 - PValue(x, y, s);
}

}  // namespace cdi::discovery
