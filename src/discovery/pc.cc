#include "discovery/pc.h"

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "discovery/subsets.h"

namespace cdi::discovery {

namespace {

std::pair<std::size_t, std::size_t> Key(std::size_t a, std::size_t b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// Outcome of testing one skeleton edge at one level.
struct EdgeDecision {
  bool removed = false;
  std::vector<std::size_t> sepset;
};

/// Removes `x` from the sorted neighbour vector, if present.
void EraseSorted(std::vector<std::size_t>* v, std::size_t x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) v->erase(it);
}

/// Tests edge {a, b} at `level` against the snapshot adjacencies, first
/// from a's side then from b's — exactly the order the serial loop visits
/// the two orientations of an edge. Pure function of the snapshot, so
/// edges can be tested concurrently.
EdgeDecision TestEdgeAtLevel(
    const CiTest& test, const PcOptions& options,
    const std::vector<std::vector<std::size_t>>& adj_view, std::size_t a,
    std::size_t b, std::size_t level) {
  EdgeDecision decision;
  // Per-worker scratch: TestEdgeAtLevel runs once per edge orientation per
  // level, and a fresh vector each time would spend more on allocation than
  // on the (cached) CI tests themselves.
  thread_local std::vector<std::size_t> candidates;
  for (const auto& [x, y] : {std::make_pair(a, b), std::make_pair(b, a)}) {
    candidates.clear();
    for (std::size_t z : adj_view[x]) {
      if (z != y) candidates.push_back(z);
    }
    if (candidates.size() < level) continue;
    const bool removed = ForEachSubset<std::size_t>(
        candidates, level, [&](const std::vector<std::size_t>& s) {
          if (test.Independent(x, y, s, options.alpha)) {
            decision.removed = true;
            decision.sepset = s;
            return true;
          }
          return false;
        });
    if (removed) break;
  }
  return decision;
}

}  // namespace

Status PcSkeleton(const CiTest& test, const PcOptions& options,
                  std::vector<std::set<std::size_t>>* adjacency,
                  SepsetMap* sepsets) {
  const std::size_t p = test.num_vars();
  if (p < 2) return Status::InvalidArgument("need at least 2 variables");
  sepsets->clear();
  // Adjacency is kept as sorted neighbour vectors while the skeleton runs:
  // the per-level snapshot of the stable variant is then a handful of
  // contiguous copies instead of p red-black trees, which dominates the
  // runtime once the CI tests themselves are cached. Converted to the
  // API's set form at the end.
  std::vector<std::vector<std::size_t>> adj(p);
  for (std::size_t i = 0; i < p; ++i) {
    adj[i].reserve(p - 1);
    for (std::size_t j = 0; j < p; ++j) {
      if (i != j) adj[i].push_back(j);
    }
  }

  const std::size_t max_level =
      options.max_cond_size < 0
          ? p
          : static_cast<std::size_t>(options.max_cond_size);

  // Parallelism is only sound for the stable variant: every edge decision
  // at a level is a pure function of the level-start snapshot.
  ThreadPool* pool = options.stable ? options.pool : nullptr;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && options.stable && options.num_threads > 1) {
    owned_pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options.num_threads));
    pool = owned_pool.get();
  }

  for (std::size_t level = 0; level <= max_level; ++level) {
    // Stop when no node has enough neighbours to condition on.
    bool any_candidate = false;
    for (std::size_t i = 0; i < p; ++i) {
      if (adj[i].size() > level) {
        any_candidate = true;
        break;
      }
    }
    if (!any_candidate) break;

    if (options.stable) {
      // PC-stable: every edge present at level start is tested against a
      // snapshot of the adjacencies, so decisions are independent of each
      // other and of thread count; removals apply afterwards.
      const std::vector<std::vector<std::size_t>> snapshot = adj;
      std::vector<std::pair<std::size_t, std::size_t>> edges;
      for (std::size_t a = 0; a < p; ++a) {
        for (std::size_t b : snapshot[a]) {
          if (a < b) edges.emplace_back(a, b);
        }
      }
      std::vector<EdgeDecision> decisions(edges.size());
      ParallelFor(pool, edges.size(), [&](std::size_t e) {
        decisions[e] = TestEdgeAtLevel(test, options, snapshot,
                                       edges[e].first, edges[e].second,
                                       level);
      });
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (!decisions[e].removed) continue;
        const auto [a, b] = edges[e];
        EraseSorted(&adj[a], b);
        EraseSorted(&adj[b], a);
        (*sepsets)[Key(a, b)] = decisions[e].sepset;
      }
      continue;
    }

    // Order-dependent classic PC: removals take effect immediately.
    for (std::size_t x = 0; x < p; ++x) {
      // Copy: we mutate adjacency during iteration.
      const std::vector<std::size_t> neighbours = adj[x];
      for (std::size_t y : neighbours) {
        if (!std::binary_search(adj[x].begin(), adj[x].end(), y)) {
          continue;  // already removed
        }
        // Candidate conditioning variables: adj(x) \ {y}.
        std::vector<std::size_t> candidates;
        for (std::size_t z : adj[x]) {
          if (z != y) candidates.push_back(z);
        }
        if (candidates.size() < level) continue;
        const bool removed = ForEachSubset<std::size_t>(
            candidates, level, [&](const std::vector<std::size_t>& s) {
              if (test.Independent(x, y, s, options.alpha)) {
                EraseSorted(&adj[x], y);
                EraseSorted(&adj[y], x);
                (*sepsets)[Key(x, y)] = s;
                return true;
              }
              return false;
            });
        (void)removed;
      }
    }
  }

  adjacency->assign(p, {});
  for (std::size_t i = 0; i < p; ++i) {
    (*adjacency)[i].insert(adj[i].begin(), adj[i].end());
  }
  return Status::OK();
}

Result<PcResult> RunPc(const CiTest& test,
                       const std::vector<std::string>& names,
                       const PcOptions& options) {
  if (names.size() != test.num_vars()) {
    return Status::InvalidArgument("names/test size mismatch");
  }
  PcResult result;
  std::vector<std::set<std::size_t>> adjacency;
  const std::size_t calls_before = test.calls;
  CDI_RETURN_IF_ERROR(PcSkeleton(test, options, &adjacency, &result.sepsets));

  graph::Pdag g(names);
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    for (std::size_t j : adjacency[i]) {
      if (i < j) CDI_RETURN_IF_ERROR(g.AddUndirected(i, j));
    }
  }

  // Orient v-structures x -> z <- y for nonadjacent x, y with common
  // neighbour z not in sepset(x, y).
  const std::size_t p = test.num_vars();
  for (std::size_t z = 0; z < p; ++z) {
    for (std::size_t x = 0; x < p; ++x) {
      if (x == z || !g.Adjacent(x, z)) continue;
      for (std::size_t y = x + 1; y < p; ++y) {
        if (y == z || y == x || !g.Adjacent(y, z)) continue;
        if (g.Adjacent(x, y)) continue;
        const auto it = result.sepsets.find(Key(x, y));
        const bool z_in_sepset =
            it != result.sepsets.end() &&
            std::find(it->second.begin(), it->second.end(), z) !=
                it->second.end();
        if (!z_in_sepset) {
          // Only orient if both edges are still (at least partly)
          // undirected; conflicting v-structures resolve first-wins.
          if (g.HasUndirected(x, z)) CDI_RETURN_IF_ERROR(g.Orient(x, z));
          if (g.HasUndirected(y, z)) CDI_RETURN_IF_ERROR(g.Orient(y, z));
        }
      }
    }
  }
  g.ApplyMeekRules();
  result.graph = std::move(g);
  result.ci_tests = test.calls - calls_before;
  return result;
}

}  // namespace cdi::discovery
