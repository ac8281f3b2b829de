#include "testing/metamorphic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/span.h"

namespace cdi::testing {

namespace {

using NamedEdge = std::pair<std::string, std::string>;

/// Claims as a canonical sorted set of (from, to) name pairs — the
/// representation that survives column relabeling.
std::set<NamedEdge> NamedClaims(const discovery::DiscoverySummary& summary,
                                const std::vector<std::string>& names) {
  std::set<NamedEdge> out;
  for (const auto& [from, to] : summary.claims) {
    out.insert({names[from], names[to]});
  }
  return out;
}

/// Unordered adjacency pairs (the skeleton). PC-stable's skeleton is
/// invariant under variable relabeling, but its *orientation* phase (like
/// every PC implementation's) is order-dependent, so the
/// column-permutation relation compares skeletons only.
std::set<NamedEdge> SkeletonOf(const std::set<NamedEdge>& claims) {
  std::set<NamedEdge> out;
  for (const auto& [a, b] : claims) {
    out.insert(a < b ? NamedEdge{a, b} : NamedEdge{b, a});
  }
  return out;
}

std::string DescribeDiff(const std::set<NamedEdge>& base,
                         const std::set<NamedEdge>& variant) {
  std::ostringstream os;
  for (const auto& e : base) {
    if (!variant.count(e)) os << " -" << e.first << "->" << e.second;
  }
  for (const auto& e : variant) {
    if (!base.count(e)) os << " +" << e.first << "->" << e.second;
  }
  return os.str();
}

}  // namespace

std::vector<CheckFailure> CheckDiscoveryInvariances(
    const std::vector<std::vector<double>>& columns,
    const std::vector<std::string>& names, uint64_t seed,
    const MetamorphicOptions& options) {
  std::vector<CheckFailure> failures;
  CDI_CHECK(columns.size() == names.size());
  Rng rng(seed ^ 0xC0FFEEULL);

  auto run = [&](const std::vector<std::vector<double>>& cols,
                 const std::vector<std::string>& col_names,
                 const discovery::DiscoveryOptions& d)
      -> Result<discovery::DiscoverySummary> {
    return discovery::RunDiscovery(SpansOf(cols), col_names,
                                   options.algorithm, d);
  };

  auto base = run(columns, names, options.discovery);
  if (!base.ok()) {
    failures.push_back(
        {"metamorphic-base", base.status().ToString()});
    return failures;
  }
  const std::set<NamedEdge> base_claims = NamedClaims(*base, names);

  // ---- rerun identity (seed/state stability). -----------------------------
  {
    auto again = run(columns, names, options.discovery);
    if (!again.ok() || again->claims != base->claims) {
      failures.push_back({"metamorphic-rerun",
                          "identical rerun produced different claims"});
    }
  }

  // ---- column-permutation invariance. -------------------------------------
  {
    std::vector<std::size_t> perm(columns.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.Shuffle(&perm);
    std::vector<std::vector<double>> cols;
    std::vector<std::string> col_names;
    for (std::size_t i : perm) {
      cols.push_back(columns[i]);
      col_names.push_back(names[i]);
    }
    auto variant = run(cols, col_names, options.discovery);
    if (!variant.ok()) {
      failures.push_back(
          {"metamorphic-column-permutation", variant.status().ToString()});
    } else if (auto skeleton =
                   SkeletonOf(NamedClaims(*variant, col_names));
               skeleton != SkeletonOf(base_claims)) {
      failures.push_back(
          {"metamorphic-column-permutation",
           "skeleton changed under column relabeling:" +
               DescribeDiff(SkeletonOf(base_claims), skeleton)});
    }
  }

  // ---- row-permutation invariance. ----------------------------------------
  {
    const std::size_t n = columns.empty() ? 0 : columns[0].size();
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    rng.Shuffle(&perm);
    std::vector<std::vector<double>> cols(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      cols[c].reserve(n);
      for (std::size_t i : perm) cols[c].push_back(columns[c][i]);
    }
    auto variant = run(cols, names, options.discovery);
    if (!variant.ok()) {
      failures.push_back(
          {"metamorphic-row-permutation", variant.status().ToString()});
    } else if (auto claims = NamedClaims(*variant, names);
               claims != base_claims) {
      failures.push_back({"metamorphic-row-permutation",
                          "claims changed under row reordering:" +
                              DescribeDiff(base_claims, claims)});
    }
  }

  // ---- affine-rescaling invariance. ---------------------------------------
  {
    std::vector<std::vector<double>> cols = columns;
    for (auto& col : cols) {
      const double scale = rng.Uniform(options.scale_lo, options.scale_hi);
      const double shift = rng.Uniform(options.shift_lo, options.shift_hi);
      for (double& v : col) {
        if (!std::isnan(v)) v = scale * v + shift;
      }
    }
    auto variant = run(cols, names, options.discovery);
    if (!variant.ok()) {
      failures.push_back(
          {"metamorphic-affine", variant.status().ToString()});
    } else if (auto claims = NamedClaims(*variant, names);
               claims != base_claims) {
      failures.push_back({"metamorphic-affine",
                          "claims changed under positive affine rescaling:" +
                              DescribeDiff(base_claims, claims)});
    }
  }

  // ---- 1 vs N threads: bitwise-identical claim list. ----------------------
  {
    discovery::DiscoveryOptions d = options.discovery;
    d.num_threads = options.alt_threads;
    auto variant = run(columns, names, d);
    if (!variant.ok() || variant->claims != base->claims ||
        variant->definite != base->definite) {
      std::ostringstream os;
      os << options.discovery.num_threads << "-thread and "
         << options.alt_threads << "-thread runs disagree";
      failures.push_back({"differential-threads", os.str()});
    }
  }

  return failures;
}

}  // namespace cdi::testing
