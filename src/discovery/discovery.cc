#include "discovery/discovery.h"

#include "common/thread_pool.h"
#include "discovery/ci_test.h"
#include "discovery/fci.h"
#include "discovery/pc.h"

namespace cdi::discovery {

namespace {

/// Gaussian CI test for the constraint-based baselines. The
/// sufficient-statistics pass runs on a transient pool sized by
/// options.num_threads (deterministic: same bits at any thread count).
Result<std::unique_ptr<FisherZTest>> MakeGaussianTest(
    const std::vector<DoubleSpan>& data,
    const DiscoveryOptions& options) {
  stats::NumericDataset ds;
  ds.columns = data;
  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(options.num_threads);
  }
  return FisherZTest::Create(ds, pool.get());
}

}  // namespace

Result<DiscoverySummary> RunDiscovery(
    const std::vector<DoubleSpan>& data,
    const std::vector<std::string>& names, Algorithm algorithm,
    const DiscoveryOptions& options) {
  DiscoverySummary out;
  out.algorithm = algorithm;
  switch (algorithm) {
    case Algorithm::kPc: {
      CDI_ASSIGN_OR_RETURN(auto test, MakeGaussianTest(data, options));
      PcOptions pc;
      pc.alpha = options.alpha;
      pc.max_cond_size = options.max_cond_size;
      pc.num_threads = options.num_threads;
      CDI_ASSIGN_OR_RETURN(PcResult r, RunPc(*test, names, pc));
      out.claims = r.graph.ToDirectedClaims();
      out.definite = r.graph.DirectedEdges();
      out.ci_tests = r.ci_tests;
      return out;
    }
    case Algorithm::kFci: {
      CDI_ASSIGN_OR_RETURN(auto test, MakeGaussianTest(data, options));
      FciOptions fci;
      fci.alpha = options.alpha;
      fci.max_cond_size = options.max_cond_size;
      fci.num_threads = options.num_threads;
      CDI_ASSIGN_OR_RETURN(FciResult r, RunFci(*test, names, fci));
      out.claims = r.graph.ToDirectedClaims();
      for (const auto& [u, v] : r.graph.EdgePairs()) {
        auto mu = r.graph.MarkAt(u, v, u);
        auto mv = r.graph.MarkAt(u, v, v);
        if (mu.ok() && mv.ok() && *mu == graph::EndMark::kTail &&
            *mv == graph::EndMark::kArrow) {
          out.definite.emplace_back(u, v);
        }
        if (mu.ok() && mv.ok() && *mv == graph::EndMark::kTail &&
            *mu == graph::EndMark::kArrow) {
          out.definite.emplace_back(v, u);
        }
      }
      out.ci_tests = r.ci_tests;
      return out;
    }
    case Algorithm::kGes: {
      GesOptions ges = options.ges;
      ges.num_threads = options.num_threads;
      CDI_ASSIGN_OR_RETURN(GesResult r, RunGes(data, names, ges));
      out.claims = r.cpdag.ToDirectedClaims();
      out.definite = r.cpdag.DirectedEdges();
      return out;
    }
    case Algorithm::kLingam: {
      CDI_ASSIGN_OR_RETURN(LingamResult r,
                           RunDirectLingam(data, names, options.lingam));
      out.claims = r.dag.Edges();
      out.definite = r.dag.Edges();
      return out;
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace cdi::discovery
