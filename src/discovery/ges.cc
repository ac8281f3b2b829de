#include "discovery/ges.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/span.h"
#include "common/thread_pool.h"
#include "stats/sufficient_stats.h"

namespace cdi::discovery {

namespace {

/// Memoizing wrapper around the Gaussian BIC local score, computed from
/// the dataset's shared sufficient statistics (Cholesky on a covariance
/// submatrix — no pass over raw rows per score). Thread-safe: concurrent
/// misses on the same key both compute the same deterministic value, so
/// cache content is independent of interleaving.
class ScoreCache {
 public:
  /// Borrows `stats`, which must outlive the cache.
  ScoreCache(const stats::SufficientStats& stats, double penalty)
      : stats_(stats), penalty_(penalty) {}

  /// BIC contribution of `target` with the given parent set (lower is
  /// better). Returns +inf when the regression is degenerate.
  double Local(std::size_t target, const std::vector<std::size_t>& parents) {
    std::string key = std::to_string(target) + ":";
    std::vector<std::size_t> sorted = parents;
    std::sort(sorted.begin(), sorted.end());
    for (auto p : sorted) key += std::to_string(p) + ",";
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    auto s = stats_.GaussianBicLocal(target, sorted);
    double value;
    if (!s.ok()) {
      value = std::numeric_limits<double>::infinity();
    } else {
      // Re-weight just the penalty part.
      const double n = static_cast<double>(stats_.complete_rows());
      const double base_penalty =
          std::log(n) * (static_cast<double>(sorted.size()) + 2.0);
      value = *s - base_penalty + penalty_ * base_penalty;
    }
    std::lock_guard<std::mutex> lock(mu_);
    cache_.emplace(key, value);
    return value;
  }

 private:
  const stats::SufficientStats& stats_;
  double penalty_;
  std::mutex mu_;
  std::map<std::string, double> cache_;
};

/// A candidate move: score `target` with `parents`, delta vs. its current
/// local score.
struct Move {
  std::size_t u = 0;
  std::size_t v = 0;
  std::vector<std::size_t> parents;
  double delta = 0.0;
};

std::vector<std::size_t> ParentsOf(const graph::Digraph& g,
                                   std::size_t node) {
  const auto& p = g.Parents(node);
  return std::vector<std::size_t>(p.begin(), p.end());
}

}  // namespace

Result<GesResult> RunGes(const std::vector<DoubleSpan>& data,
                         const std::vector<std::string>& names,
                         const GesOptions& options) {
  const std::size_t p = data.size();
  if (p != names.size()) {
    return Status::InvalidArgument("data/names size mismatch");
  }
  if (p < 2) return Status::InvalidArgument("need at least 2 variables");

  const std::size_t n = data[0].size();
  for (const auto& col : data) {
    if (col.size() != n) return Status::InvalidArgument("ragged data");
  }

  std::unique_ptr<ThreadPool> pool;
  if (options.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options.num_threads));
  }

  // One blocked sufficient-statistics pass replaces the listwise-complete
  // copy; every local score below is linear algebra on its covariance
  // submatrices. A dataset with under 2 complete rows fails inside
  // Compute, which the p + 3 floor below subsumes.
  stats::NumericDataset ds;
  ds.columns = data;
  auto stats = stats::SufficientStats::Compute(ds, pool.get());
  if (!stats.ok() && stats.status().code() == StatusCode::kFailedPrecondition) {
    return Status::FailedPrecondition("too few complete rows for GES");
  }
  CDI_RETURN_IF_ERROR(stats.status());
  if (stats->complete_rows() < p + 3) {
    return Status::FailedPrecondition("too few complete rows for GES");
  }

  ScoreCache score(*stats, options.penalty_discount);
  graph::Digraph g(names);
  GesResult result;

  const std::size_t max_parents =
      options.max_parents < 0 ? p : static_cast<std::size_t>(
                                        options.max_parents);

  // Current local score per node.
  std::vector<double> local(p);
  for (std::size_t v = 0; v < p; ++v) {
    local[v] = score.Local(v, ParentsOf(g, v));
  }

  // Each greedy step first collects the legal moves (cheap graph checks,
  // serial), scores them in parallel (each score is a pure function of the
  // data and the proposed parent set), then picks the winner by scanning in
  // the original candidate order with the original strict-< tie-break — so
  // the trajectory matches the serial search exactly.
  auto best_move = [&](std::vector<Move>& moves) -> const Move* {
    ParallelFor(pool.get(), moves.size(), [&](std::size_t i) {
      moves[i].delta =
          score.Local(moves[i].v, moves[i].parents) - local[moves[i].v];
    });
    // Moves whose deltas are equal in exact arithmetic (e.g. the two
    // directions of the first edge into an empty graph) can differ in the
    // last bits depending on how the score kernel rounded; resolve such
    // ties toward the earliest candidate so the greedy trajectory does not
    // hinge on floating-point noise.
    const Move* best = nullptr;
    for (const Move& m : moves) {
      if (m.delta >= -1e-9) continue;  // not an improvement
      if (best == nullptr || m.delta < best->delta - 1e-6) best = &m;
    }
    return best;
  };

  // Forward phase: best single-edge addition while it improves BIC.
  for (;;) {
    std::vector<Move> moves;
    for (std::size_t u = 0; u < p; ++u) {
      for (std::size_t v = 0; v < p; ++v) {
        if (u == v || g.Adjacent(u, v)) continue;
        if (g.Parents(v).size() >= max_parents) continue;
        if (g.HasDirectedPath(v, u)) continue;  // would create a cycle
        auto parents = ParentsOf(g, v);
        parents.push_back(u);
        moves.push_back({u, v, std::move(parents), 0.0});
      }
    }
    const Move* best = best_move(moves);
    if (best == nullptr) break;
    CDI_RETURN_IF_ERROR(g.AddEdge(best->u, best->v));
    local[best->v] = score.Local(best->v, ParentsOf(g, best->v));
    ++result.forward_steps;
  }

  // Backward phase: best single-edge deletion while it improves BIC.
  for (;;) {
    std::vector<Move> moves;
    for (const auto& [u, v] : g.Edges()) {
      std::vector<std::size_t> parents;
      for (auto q : g.Parents(v)) {
        if (q != u) parents.push_back(q);
      }
      moves.push_back({u, v, std::move(parents), 0.0});
    }
    const Move* best = best_move(moves);
    if (best == nullptr) break;
    g.RemoveEdge(best->u, best->v);
    local[best->v] = score.Local(best->v, ParentsOf(g, best->v));
    ++result.backward_steps;
  }

  result.bic = 0;
  for (std::size_t v = 0; v < p; ++v) result.bic += local[v];
  CDI_ASSIGN_OR_RETURN(result.cpdag, graph::Pdag::CpdagOf(g));
  result.dag = std::move(g);
  return result;
}

}  // namespace cdi::discovery
