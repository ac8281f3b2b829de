#include "core/cdag_builder.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>

#include "common/span.h"
#include "common/thread_pool.h"
#include "discovery/ci_test.h"
#include "discovery/subsets.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/independence.h"
#include "stats/sufficient_stats.h"

namespace cdi::core {

const char* EdgeInferenceName(EdgeInference mode) {
  switch (mode) {
    case EdgeInference::kHybrid:
      return "CATER";
    case EdgeInference::kOracleOnly:
      return "GPT-3 Only";
    case EdgeInference::kDataPc:
      return "PC";
    case EdgeInference::kDataFci:
      return "FCI";
    case EdgeInference::kDataGes:
      return "GES";
    case EdgeInference::kDataLingam:
      return "LiNGAM";
  }
  return "?";
}

namespace {

/// Representative series of a cluster: the sign-aligned mean of its
/// members' standardized columns — a first-principal-component proxy.
/// Members anti-correlated with the first member are flipped first, so a
/// cluster like {gdp_per_capita, poverty_rate} does not cancel itself out.
/// Pairwise-available: a row is NaN only when every member is missing.
std::vector<double> ClusterRepresentative(
    const std::vector<cdi::DoubleSpan>& member_columns) {
  CDI_CHECK(!member_columns.empty());
  const std::size_t n = member_columns[0].size();
  std::vector<std::vector<double>> z;
  z.reserve(member_columns.size());
  for (const auto& col : member_columns) z.push_back(stats::Standardize(col));
  for (std::size_t j = 1; j < z.size(); ++j) {
    if (stats::PearsonCorrelation(z[0], z[j]) < 0) {
      for (double& v : z[j]) v = -v;
    }
  }
  std::vector<double> rep(n, std::nan(""));
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0;
    std::size_t count = 0;
    for (const auto& col : z) {
      if (!std::isnan(col[r])) {
        sum += col[r];
        ++count;
      }
    }
    if (count > 0) rep[r] = sum / static_cast<double>(count);
  }
  return rep;
}

/// Finds one directed cycle; returns its edges, or empty when acyclic.
std::vector<graph::Edge> FindCycle(const graph::Digraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<int> state(n, 0);  // 0 unvisited, 1 on stack, 2 done
  std::vector<graph::NodeId> stack;
  std::vector<graph::Edge> cycle;

  std::function<bool(graph::NodeId)> dfs = [&](graph::NodeId u) -> bool {
    state[u] = 1;
    stack.push_back(u);
    for (graph::NodeId v : g.Children(u)) {
      if (state[v] == 1) {
        // Found a back edge; extract the cycle from the stack.
        auto it = std::find(stack.begin(), stack.end(), v);
        for (auto p = it; p + 1 != stack.end(); ++p) {
          cycle.emplace_back(*p, *(p + 1));
        }
        cycle.emplace_back(u, v);
        return true;
      }
      if (state[v] == 0 && dfs(v)) return true;
    }
    stack.pop_back();
    state[u] = 2;
    return false;
  };
  for (graph::NodeId u = 0; u < n; ++u) {
    if (state[u] == 0 && dfs(u)) break;
  }
  return cycle;
}

}  // namespace

Result<CdagBuildResult> CdagBuilder::Build(
    const table::Table& organized, const std::string& entity_column,
    const std::string& exposure, const std::string& outcome,
    const std::vector<double>& row_weights, LatencyMeter* meter) const {
  // ---- 1. Collect numeric attributes (exposure/outcome kept aside). ------
  std::vector<std::string> attr_names;
  std::vector<DoubleSpan> attr_columns;  // zero-copy views over `organized`
  for (const auto& name : organized.ColumnNames()) {
    if (name == entity_column || name == exposure || name == outcome) continue;
    CDI_ASSIGN_OR_RETURN(const table::Column* col, organized.GetColumn(name));
    if (!table::IsNumeric(col->type()) &&
        col->type() != table::DataType::kBool) {
      continue;
    }
    attr_names.push_back(name);
    attr_columns.push_back(col->View());
  }
  if (attr_names.empty()) {
    return Status::FailedPrecondition("no extracted numeric attributes");
  }

  // One pool serves every parallel stage below (sufficient statistics,
  // edge pruning); all of them are bitwise-deterministic in thread count.
  std::unique_ptr<ThreadPool> pool;
  if (options_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options_.num_threads));
  }

  // ---- 2. VARCLUS grouping. ------------------------------------------------
  // One blocked sufficient-statistics pass over the attribute columns;
  // VARCLUS runs entirely on its correlation matrix.
  stats::NumericDataset attr_ds;
  attr_ds.columns = attr_columns;
  CDI_ASSIGN_OR_RETURN(stats::SufficientStats attr_stats,
                       stats::SufficientStats::Compute(attr_ds, pool.get()));
  CDI_ASSIGN_OR_RETURN(VarClusResult vc,
                       RunVarClusOnCorrelation(attr_stats.Correlation(),
                                               attr_names, options_.varclus));

  // ---- 3. Topic assignment (exposure/outcome are singletons). --------------
  CdagBuildResult result;
  std::vector<std::vector<std::string>> clusters = vc.clusters;
  clusters.push_back({exposure});
  clusters.push_back({outcome});

  std::vector<std::string> topics;
  std::set<std::string> used;
  for (const auto& members : clusters) {
    std::string topic = topics_ != nullptr
                            ? topics_->AssignTopic(members, meter)
                            : members[0];
    std::string unique = topic;
    int suffix = 2;
    while (!used.insert(unique).second) {
      unique = topic + "_" + std::to_string(suffix++);
    }
    topics.push_back(unique);
  }
  result.cluster_topics = topics;
  const std::string exposure_topic = topics[topics.size() - 2];
  const std::string outcome_topic = topics[topics.size() - 1];

  // ---- 4. Cluster representatives + CI test. -------------------------------
  std::map<std::string, DoubleSpan> column_of;
  for (std::size_t i = 0; i < attr_names.size(); ++i) {
    column_of[attr_names[i]] = attr_columns[i];
  }
  CDI_ASSIGN_OR_RETURN(const table::Column* tcol,
                       organized.GetColumn(exposure));
  CDI_ASSIGN_OR_RETURN(const table::Column* ocol,
                       organized.GetColumn(outcome));
  column_of[exposure] = tcol->View();
  column_of[outcome] = ocol->View();

  std::vector<std::vector<double>> reps;
  for (const auto& members : clusters) {
    std::vector<DoubleSpan> cols;
    for (const auto& m : members) cols.push_back(column_of.at(m));
    reps.push_back(ClusterRepresentative(cols));
  }

  stats::NumericDataset rep_ds;
  rep_ds.columns = cdi::SpansOf(reps);  // `reps` outlives the CI engine
  rep_ds.weights = row_weights;
  const std::size_t rep_complete = stats::CompleteRowCount(rep_ds);
  if (rep_complete < 5) {
    return Status::FailedPrecondition(
        "FisherZTest needs at least 5 complete rows, got " +
        std::to_string(rep_complete));
  }
  // The correlation matrix is computed once (from the shared sufficient
  // statistics); each (x, y, S) query is then one allocation-free packed
  // factor of it, with no lock or memo shared between the pruning threads.
  CDI_ASSIGN_OR_RETURN(stats::SufficientStats rep_stats,
                       stats::SufficientStats::Compute(rep_ds, pool.get()));
  CDI_ASSIGN_OR_RETURN(auto ci_test,
                       discovery::FisherZTest::Create(rep_stats));
  const std::size_t k = clusters.size();

  // ---- 5. Edge inference. ----------------------------------------------------
  auto edge_name = [&](std::size_t u, std::size_t v) {
    return std::make_pair(topics[u], topics[v]);
  };

  graph::Digraph claim_graph(topics);
  switch (options_.inference) {
    case EdgeInference::kOracleOnly:
    case EdgeInference::kHybrid: {
      if (oracle_ == nullptr) {
        return Status::InvalidArgument("oracle required for this mode");
      }
      claim_graph = oracle_->QueryAllPairs(topics, meter);
      // QueryAllPairs asks every ordered pair exactly once. Count locally:
      // a query_count() delta on the shared oracle would also absorb the
      // queries of concurrent pipeline runs against the same scenario,
      // making this result field nondeterministic under serving load.
      result.oracle_queries = topics.size() * (topics.size() - 1);
      if (options_.inference == EdgeInference::kHybrid) {
        // PC-style redundant-edge pruning: remove a claimed edge when the
        // two clusters test conditionally independent given some subset of
        // clusters adjacent to either endpoint in the claim graph.
        const std::size_t calls_before = ci_test->calls;
        // Nonlinear marginal-dependence backstop: a quantile-binned
        // chi-square test sees (non-monotone) relations Fisher-z misses.
        auto nonlinear_dependent = [&](std::size_t u, std::size_t v) {
          const auto bu = stats::QuantileBin(reps[u], 3);
          const auto bv = stats::QuantileBin(reps[v], 3);
          auto r = stats::ChiSquareIndependence(bu, bv);
          return r.ok() && r->p_value < options_.alpha;
        };
        // Every prune decision is made against a snapshot of the oracle
        // claim graph (PC-stable style): decisions become pure functions
        // of the snapshot, independent of edge order and thread count.
        const std::vector<graph::Edge> claimed = claim_graph.Edges();
        std::vector<char> prune_edge(claimed.size(), 0);
        ParallelFor(pool.get(), claimed.size(), [&](std::size_t e) {
          const auto [u, v] = claimed[e];
          if (options_.prune_requires_marginal_dependence &&
              ci_test->Independent(u, v, {}, options_.alpha)) {
            // Fisher-z sees nothing. If the binned test also sees nothing,
            // the data positively contradicts the oracle claim — prune it.
            // If the binned test fires, the relation is real but nonlinear
            // ("not present in the data" for linear methods) — keep it.
            prune_edge[e] = nonlinear_dependent(u, v) ? 0 : 1;
            return;
          }
          // Redundancy is judged against the *claimed parents* of the two
          // endpoints: a direct edge u -> v is redundant iff u ⟂ v given
          // other causes of v (or of u). Conditioning on children would
          // both be un-causal and inflate the subset count (and with it
          // the chance of a spurious independence).
          std::vector<std::size_t> candidates;
          for (std::size_t w = 0; w < k; ++w) {
            if (w == u || w == v) continue;
            if (claim_graph.HasEdge(w, u) || claim_graph.HasEdge(w, v)) {
              candidates.push_back(w);
            }
          }
          bool pruned = false;
          const std::size_t max_level = static_cast<std::size_t>(
              std::max(0, options_.max_cond_size));
          const std::size_t min_level =
              options_.prune_requires_marginal_dependence ? 1 : 0;
          for (std::size_t level = min_level;
               level <= std::min(max_level, candidates.size()) && !pruned;
               ++level) {
            pruned = discovery::ForEachSubset<std::size_t>(
                candidates, level,
                [&](const std::vector<std::size_t>& s) {
                  return ci_test->PValue(u, v, s) >=
                         options_.prune_p_threshold;
                });
          }
          prune_edge[e] = pruned ? 1 : 0;
        });
        for (std::size_t e = 0; e < claimed.size(); ++e) {
          if (!prune_edge[e]) continue;
          claim_graph.RemoveEdge(claimed[e].first, claimed[e].second);
          result.pruned_edges.push_back(
              edge_name(claimed[e].first, claimed[e].second));
        }
        // Direction verification: for each surviving edge, re-prompt the
        // oracle for its preferred direction; a claim whose reverse the
        // oracle actually prefers gets flipped. (Catches "reversed" hits
        // from the yes/no template before they can block augmentation or
        // seed cycles.)
        for (const auto& [u, v] : claim_graph.Edges()) {
          const int pref =
              oracle_->PreferredDirection(topics[u], topics[v], meter);
          ++result.oracle_queries;
          if (pref < 0) {
            claim_graph.RemoveEdge(u, v);
            CDI_RETURN_IF_ERROR(claim_graph.AddEdge(v, u));
          }
        }
        // Data augmentation: connect cluster pairs the oracle missed when
        // they are dependent given *all* other clusters (a Markov-blanket
        // edge); the oracle's direction-preference query orients it.
        if (options_.augment_from_data) {
          for (std::size_t u = 0; u < k; ++u) {
            for (std::size_t v = u + 1; v < k; ++v) {
              if (claim_graph.Adjacent(u, v)) continue;
              std::vector<std::size_t> rest;
              for (std::size_t w = 0; w < k; ++w) {
                if (w != u && w != v) rest.push_back(w);
              }
              if (ci_test->PValue(u, v, rest) >= options_.augment_alpha) {
                continue;
              }
              const int pref =
                  oracle_->PreferredDirection(topics[u], topics[v], meter);
              ++result.oracle_queries;
              if (pref > 0) {
                CDI_RETURN_IF_ERROR(claim_graph.AddEdge(u, v));
              } else if (pref < 0) {
                CDI_RETURN_IF_ERROR(claim_graph.AddEdge(v, u));
              }
            }
          }
        }
        // Cycle repair, stage 1: resolve 2-cycles with a follow-up oracle
        // disambiguation query ("which direction is more likely?").
        for (const auto& [u, v] : claim_graph.TwoCycles()) {
          const int pref =
              oracle_->PreferredDirection(topics[u], topics[v], meter);
          ++result.oracle_queries;
          graph::Edge victim;
          if (pref > 0) {
            victim = {v, u};
          } else if (pref < 0) {
            victim = {u, v};
          } else {
            // Oracle shrugs: keep u -> v (TwoCycles reports u < v). The
            // data cannot break the tie, since a marginal correlation is
            // symmetric in (u, v).
            victim = {v, u};
          }
          claim_graph.RemoveEdge(victim.first, victim.second);
          result.cycle_repaired_edges.push_back(
              edge_name(victim.first, victim.second));
        }
        // Stage 2: drop the weakest-supported edge of each remaining
        // cycle until the graph is a DAG.
        while (true) {
          const auto cycle = FindCycle(claim_graph);
          if (cycle.empty()) break;
          double weakest = std::numeric_limits<double>::infinity();
          graph::Edge victim = cycle[0];
          for (const auto& e : cycle) {
            const double s = ci_test->Strength(e.first, e.second, {});
            if (s < weakest) {
              weakest = s;
              victim = e;
            }
          }
          claim_graph.RemoveEdge(victim.first, victim.second);
          result.cycle_repaired_edges.push_back(
              edge_name(victim.first, victim.second));
        }
        result.ci_tests = ci_test->calls - calls_before;
      }
      for (const auto& [u, v] : claim_graph.Edges()) {
        result.claims.push_back(edge_name(u, v));
      }
      result.definite = result.claims;
      break;
    }
    case EdgeInference::kDataPc:
    case EdgeInference::kDataFci:
    case EdgeInference::kDataGes:
    case EdgeInference::kDataLingam: {
      discovery::Algorithm alg = discovery::Algorithm::kPc;
      if (options_.inference == EdgeInference::kDataFci) {
        alg = discovery::Algorithm::kFci;
      } else if (options_.inference == EdgeInference::kDataGes) {
        alg = discovery::Algorithm::kGes;
      } else if (options_.inference == EdgeInference::kDataLingam) {
        alg = discovery::Algorithm::kLingam;
      }
      discovery::DiscoveryOptions dopt = options_.discovery;
      dopt.alpha = options_.alpha;
      dopt.num_threads = options_.num_threads;
      CDI_ASSIGN_OR_RETURN(discovery::DiscoverySummary summary,
                           discovery::RunDiscovery(cdi::SpansOf(reps), topics,
                                                   alg, dopt));
      result.ci_tests = summary.ci_tests;
      for (const auto& [u, v] : summary.claims) {
        result.claims.push_back(edge_name(u, v));
      }
      for (const auto& [u, v] : summary.definite) {
        result.definite.push_back(edge_name(u, v));
        CDI_RETURN_IF_ERROR(claim_graph.AddEdge(u, v));
      }
      break;
    }
  }

  // ---- 6. Assemble the ClusterDag (definite edges only). ---------------------
  std::map<std::string, std::vector<std::string>> members_by_topic;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    members_by_topic[topics[c]] = clusters[c];
  }
  CDI_ASSIGN_OR_RETURN(
      ClusterDag cdag,
      ClusterDag::Create(members_by_topic, exposure_topic, outcome_topic));
  for (const auto& [from, to] : result.definite) {
    CDI_RETURN_IF_ERROR(cdag.mutable_graph().AddEdge(from, to));
  }
  result.cdag = std::move(cdag);
  return result;
}

}  // namespace cdi::core
