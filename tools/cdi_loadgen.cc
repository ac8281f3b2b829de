// cdi_loadgen — seeded closed-loop load generator for the query server.
//
// Usage:
//   cdi_loadgen [--scenario covid|flights] [--entities N] [--clients C]
//               [--requests R] [--workers W] [--queue-depth D]
//               [--distinct K] [--seed S] [--min-hit-rate F] [--no-verify]
//               [--no-warmup] [--sweep] [--summarize-mix]
//               [--churn-rows N [--churn-batches B]]
//               [--scenarios N [--skew zipf|uniform] [--zipf-s S]
//                [--registry-shards N] [--memory-budget-kb K]]
//
// --entities takes a plain non-negative integer of at most 100000;
// anything else is a usage error (exit 2).
//
// Spawns an in-process QueryServer over one registered scenario, derives a
// seeded mix of K distinct (exposure, outcome) queries from the
// scenario's numeric attributes, warms the cache with one pass over the
// mix, then runs C closed-loop client threads issuing R requests each
// (submit -> wait -> next), replaying the mix under a seeded schedule.
//
// Verification (default on): every served response's payload line —
// effects at full %.17g precision plus a 64-bit fingerprint over the
// entire result — is compared byte-for-byte against a direct
// Pipeline::Run of the same query computed before the server starts. Any
// mismatch is a "torn response" and fails the run; so does a warm-phase
// cache hit rate below --min-hit-rate (default 0.9). Exit code 0 = clean.
//
// --sweep switches to the planner acceptance mode: the mix becomes EVERY
// ordered (exposure, outcome) pair of the scenario's numeric attributes,
// issued as QueryMode::kPlanned queries, and each served pair answer is
// compared byte-for-byte against a freshly computed baseline — a fresh
// full Pipeline::Run of the scenario's canonical pair plus a fresh
// CdagPlan built from it, answering the same pair. Pairs the planner
// rejects (same cluster, attribute dropped during organization) must be
// rejected by the server with the same status code.
//
// --summarize-mix interleaves summarize-mode queries into the closed-loop
// mix: every budget from 2 to the scenario C-DAG's node count becomes one
// extra mix entry (formats alternating dot/json), and every served
// summary payload — whose fingerprint covers both renderings — is
// compared byte-for-byte against a summary built directly from a fresh
// canonical pipeline run + CdagPlan + SummarizeClusterDag. Budgets the
// merge pass rejects (below the safe floor) must be rejected by the
// server with the same status code. Composes with --churn-rows: each
// epoch's summaries are verified against that epoch's freshly built
// C-DAG (budgets not achievable in every phase are left out of the mix).
// Requires verification (incompatible with --no-verify, --sweep and
// --scenarios).
//
// --churn-rows N switches to the streaming-ingest acceptance mode: the
// scenario is registered with its last N*B rows held back, and an updater
// thread interleaves B row-batch updates (QueryServer::UpdateScenario —
// epoch rollover with delta-refreshed statistics) with the client
// queries. Every served answer carries its scenario epoch, and is
// compared byte-for-byte against a fresh direct Pipeline::Run over
// exactly that epoch's table (head + the batches applied so far),
// computed up front — zero torn and zero stale answers required. The
// warm-hit-rate gate is skipped (rollovers legitimately cool the cache).
//
// --scenarios N switches to the scale-out acceptance mode: the first N
// cells of the default scenario-family grid (datagen/grid.h) are
// registered at runtime through QueryServer::RegisterScenario, and the
// clients replay a skewed closed-loop mix — each request picks a
// scenario by Zipf(--zipf-s) or uniform draw and queries its canonical
// (exposure, outcome) pair. With --memory-budget-kb the sharded registry
// evicts cold scenarios under the churn; a client that draws an evicted
// scenario re-registers it (the grid rebuild is bit-identical) and
// replays the request. Every served answer is compared byte-for-byte
// against a direct Pipeline::Run captured at first registration — one
// payload per scenario covers every epoch, precisely because rebuilds
// are deterministic. Gates: zero torn, zero errors, and (when a budget
// is set) at least one eviction. The hit-rate gate is skipped.
//
// Prints the warm-phase MetricsSnapshot and a verification summary. Run
// under TSan (-DCDI_TSAN=ON) in CI as the serving layer's race gate.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cdag.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "datagen/scenario.h"
#include "serve/line_protocol.h"
#include "serve/query_server.h"
#include "serve/scenario_registry.h"
#include "summarize/summarize.h"
#include "table/table.h"

namespace {

struct Args {
  std::string scenario = "covid";
  std::size_t entities = 200;
  int clients = 8;
  int requests = 50;  // per client
  int workers = 4;
  std::size_t queue_depth = 64;
  int distinct = 6;
  std::uint64_t seed = 1;
  double min_hit_rate = 0.9;
  bool verify = true;
  bool warmup = true;
  bool sweep = false;
  bool summarize_mix = false;
  std::size_t churn_rows = 0;  // >0 enables streaming-ingest churn mode
  int churn_batches = 3;
  std::size_t grid_scenarios = 0;  // >0 enables grid scale-out mode
  std::string skew = "zipf";
  double zipf_s = 1.1;
  std::size_t registry_shards = 8;
  std::size_t memory_budget_kb = 0;  // 0 = unlimited
};

/// Ceilings of the loadgen-only count flags (the shared ones live beside
/// ParseCountFlag).
constexpr std::uint64_t kMaxRequestsFlag = 1000000;      // per client
constexpr std::uint64_t kMaxDistinctFlag = 10000;        // (T, O) pairs
constexpr std::uint64_t kMaxChurnBatchesFlag = 10000;
constexpr std::uint64_t kMaxGridScenariosFlag = 100000;  // grid cells

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario covid|flights] [--entities N] [--clients C] "
      "[--requests R] [--workers W] [--queue-depth D] [--distinct K] "
      "[--seed S] [--min-hit-rate F] [--no-verify] [--no-warmup] "
      "[--sweep] [--summarize-mix] [--churn-rows N [--churn-batches B]] "
      "[--scenarios N [--skew zipf|uniform] [--zipf-s S] "
      "[--registry-shards N] [--memory-budget-kb K]]\n",
      argv0);
  return 2;
}

/// Every count flag is digits only, within its floor and ceiling, checked
/// here, before any scenario, thread or queue exists.
bool ParseArgs(int argc, char** argv, Args* args) {
  using cdi::serve::kMaxGenerateEntities;
  using cdi::serve::kMaxMemoryBudgetKbFlag;
  using cdi::serve::kMaxQueueDepthFlag;
  using cdi::serve::kMaxRegistryShardsFlag;
  using cdi::serve::kMaxThreadsFlag;
  using cdi::serve::ParseCountFlag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--scenario" && (v = next())) {
      args->scenario = v;
    } else if (flag == "--entities" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxGenerateEntities,
                          &args->entities)) {
        return false;
      }
    } else if (flag == "--clients" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxThreadsFlag, &args->clients)) {
        return false;
      }
    } else if (flag == "--requests" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxRequestsFlag, &args->requests)) {
        return false;
      }
    } else if (flag == "--workers" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxThreadsFlag, &args->workers)) {
        return false;
      }
    } else if (flag == "--queue-depth" && (v = next())) {
      // A zero-depth queue sheds every request, so no client could finish.
      if (!ParseCountFlag(flag, v, 1, kMaxQueueDepthFlag,
                          &args->queue_depth)) {
        return false;
      }
    } else if (flag == "--distinct" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxDistinctFlag, &args->distinct)) {
        return false;
      }
    } else if (flag == "--seed" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0,
                          std::numeric_limits<std::uint64_t>::max(),
                          &args->seed)) {
        return false;
      }
    } else if (flag == "--min-hit-rate" && (v = next())) {
      args->min_hit_rate = std::atof(v);
    } else if (flag == "--no-verify") {
      args->verify = false;
    } else if (flag == "--no-warmup") {
      args->warmup = false;
    } else if (flag == "--sweep") {
      args->sweep = true;
    } else if (flag == "--summarize-mix") {
      args->summarize_mix = true;
    } else if (flag == "--churn-rows" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxGenerateEntities,
                          &args->churn_rows)) {
        return false;
      }
    } else if (flag == "--churn-batches" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxChurnBatchesFlag,
                          &args->churn_batches)) {
        return false;
      }
    } else if (flag == "--scenarios" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxGridScenariosFlag,
                          &args->grid_scenarios)) {
        return false;
      }
    } else if (flag == "--skew" && (v = next())) {
      args->skew = v;
    } else if (flag == "--zipf-s" && (v = next())) {
      args->zipf_s = std::atof(v);
    } else if (flag == "--registry-shards" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxRegistryShardsFlag,
                          &args->registry_shards)) {
        return false;
      }
    } else if (flag == "--memory-budget-kb" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxMemoryBudgetKbFlag,
                          &args->memory_budget_kb)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->sweep && args->churn_rows > 0) {
    std::fprintf(stderr, "--sweep and --churn-rows are mutually exclusive\n");
    return false;
  }
  if (args->grid_scenarios > 0 && (args->sweep || args->churn_rows > 0)) {
    std::fprintf(stderr,
                 "--scenarios (grid mode) excludes --sweep/--churn-rows\n");
    return false;
  }
  if (args->skew != "zipf" && args->skew != "uniform") {
    std::fprintf(stderr, "--skew must be zipf or uniform\n");
    return false;
  }
  if (args->churn_rows > 0 && args->churn_batches < 1) {
    std::fprintf(stderr, "--churn-batches must be >= 1\n");
    return false;
  }
  if (args->summarize_mix &&
      (args->sweep || args->grid_scenarios > 0 || !args->verify)) {
    std::fprintf(stderr,
                 "--summarize-mix needs verification and excludes "
                 "--sweep/--scenarios\n");
    return false;
  }
  return args->clients > 0 && args->requests > 0;
}

/// The byte-comparable form of a served response: the payload line for OK
/// answers, "error code=<code>" otherwise. `summary_format` selects the
/// rendering embedded in summary payloads (the fingerprint covers both
/// renderings either way, so a single format still proves byte equality
/// of DOT and JSON).
std::string ServedLine(const cdi::serve::QueryResponse& response,
                       const std::string& summary_format = "dot") {
  if (!response.status.ok()) {
    return std::string("error code=") +
           cdi::StatusCodeName(response.status.code());
  }
  if (response.summary() != nullptr) {
    return cdi::serve::FormatSummaryPayload(*response.summary(),
                                            summary_format);
  }
  return response.planned() != nullptr
             ? cdi::serve::FormatPairAnswerPayload(*response.planned())
             : cdi::serve::FormatResultPayload(*response.result());
}

/// Submits `query`, replaying it while the server sheds it with
/// kResourceExhausted (a tiny --queue-depth can overflow even with
/// closed-loop clients): up to kMaxAttempts submissions, 10 ms apart so a
/// worker can drain the queue. Each replay counts in `retried`; a response
/// still shed after the last attempt is returned as is.
constexpr int kMaxAttempts = 200;
cdi::serve::QueryResponse ExecuteRetryingShed(
    cdi::serve::QueryServer& server, const cdi::serve::CdiQuery& query,
    std::atomic<std::uint64_t>* retried) {
  auto response = server.Execute(query);
  for (int attempt = 1;
       attempt < kMaxAttempts &&
       response.status.code() == cdi::StatusCode::kResourceExhausted;
       ++attempt) {
    retried->fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    response = server.Execute(query);
  }
  return response;
}

/// A summarize-mode mix entry: budget k against `scenario`, formats
/// alternating so both renderings ride the wire.
cdi::serve::CdiQuery SummarizeEntry(const std::string& scenario,
                                    std::size_t k) {
  cdi::serve::CdiQuery q;
  q.scenario = scenario;
  q.mode = cdi::serve::QueryMode::kSummarize;
  q.summarize_k = k;
  q.summarize_format = (k % 2 == 0) ? "dot" : "json";
  return q;
}

/// The expected byte-comparable line for budget `k` against a freshly
/// built C-DAG: the summary payload when the merge pass succeeds, the
/// matching error line when it rejects the budget.
std::string ExpectedSummaryLine(const cdi::core::ClusterDag& cdag,
                                std::size_t k, const std::string& format) {
  cdi::summarize::SummarizeOptions sopts;
  sopts.budget = k;
  auto summary = cdi::summarize::SummarizeClusterDag(cdag, sopts);
  if (!summary.ok()) {
    return std::string("error code=") +
           cdi::StatusCodeName(summary.status().code());
  }
  cdi::serve::SummaryArtifact artifact;
  artifact.dot = summary->ToDot();
  artifact.json = summary->ToJson();
  artifact.summary = std::make_shared<const cdi::summarize::SummaryDag>(
      *std::move(summary));
  return cdi::serve::FormatSummaryPayload(artifact, format);
}

/// --scenarios N: grid scale-out acceptance. Registers the first N cells
/// of the default grid through the server's single-flight registration,
/// then drives a skewed closed-loop mix over them; evicted scenarios are
/// re-registered on demand and every answer is verified byte-for-byte
/// against the direct pipeline run captured at first registration.
int RunGridMode(const Args& args) {
  const auto cells =
      cdi::datagen::EnumerateGrid(cdi::datagen::ScenarioGridSpec{});
  if (args.grid_scenarios > cells.size()) {
    std::fprintf(stderr, "--scenarios %zu exceeds the %zu-cell grid\n",
                 args.grid_scenarios, cells.size());
    return 1;
  }
  const std::size_t n = args.grid_scenarios;
  const std::size_t entities = args.entities > 0 ? args.entities : 120;

  std::vector<std::string> names(n);
  for (std::size_t i = 0; i < n; ++i) {
    names[i] = cdi::datagen::GridCellName(cells[i]);
  }
  // A scenario's builder: the bit-stable grid rebuild. Used both for the
  // initial registration and for on-demand re-registration after an
  // eviction — determinism is what makes one expected payload per
  // scenario cover every epoch.
  const auto builder_for = [entities](const std::string& cell) {
    return [cell, entities]()
               -> cdi::Result<std::shared_ptr<const cdi::datagen::Scenario>> {
      auto scenario = cdi::datagen::BuildGridScenario(cell, entities);
      if (!scenario.ok()) return scenario.status();
      return std::shared_ptr<const cdi::datagen::Scenario>(
          std::move(scenario).value());
    };
  };

  cdi::serve::RegistryOptions registry_options;
  registry_options.num_shards = args.registry_shards;
  registry_options.memory_budget_bytes = args.memory_budget_kb * 1024;
  cdi::serve::ScenarioRegistry registry(registry_options);

  cdi::serve::QueryServerOptions options;
  options.num_workers = args.workers;
  options.max_queue_depth = args.queue_depth;
  cdi::serve::QueryServer server(&registry, options);

  // Register the slice and capture per-scenario ground truth from the
  // exact bundle just published (its snapshot stays valid even if the
  // budget evicts the name while later cells register).
  std::vector<cdi::serve::CdiQuery> mix(n);
  std::vector<std::string> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto bundle = server.RegisterScenario(names[i], builder_for(names[i]));
    if (!bundle.ok()) {
      std::fprintf(stderr, "register %s: %s\n", names[i].c_str(),
                   bundle.status().ToString().c_str());
      return 1;
    }
    const cdi::datagen::Scenario& sc = *(*bundle)->scenario;
    mix[i].scenario = names[i];
    mix[i].exposure = sc.exposure_attribute;
    mix[i].outcome = sc.outcome_attribute;
    if (args.verify) {
      // Cells the pipeline deterministically rejects (e.g. severe MNAR at
      // tiny entity counts drops every extracted attribute) stay in the
      // mix: the server must reproduce the exact same error.
      cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                   &sc.topics, (*bundle)->default_options);
      auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                              mix[i].exposure, mix[i].outcome);
      expected[i] = run.ok() ? cdi::serve::FormatResultPayload(*run)
                             : std::string("error code=") +
                                   cdi::StatusCodeName(run.status().code());
    }
  }

  // Skewed scenario-pick weights: Zipf over registration order (cell 0
  // hottest), or uniform.
  std::vector<double> weights(n, 1.0);
  if (args.skew == "zipf") {
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), args.zipf_s);
    }
  }

  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> retried{0};       // queue-full replays
  std::atomic<std::uint64_t> reregistered{0};  // eviction recoveries
  std::atomic<std::uint64_t> completed{0};

  const std::uint64_t total = static_cast<std::uint64_t>(args.clients) *
                              static_cast<std::uint64_t>(args.requests);
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(args.clients));
  for (int c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      cdi::Rng rng(args.seed + 0xA11CE5 + static_cast<std::uint64_t>(c));
      for (int r = 0; r < args.requests; ++r) {
        const std::size_t pick = rng.Categorical(weights);
        auto response = ExecuteRetryingShed(server, mix[pick], &retried);
        // Evicted by the memory budget: re-register the deterministic
        // rebuild and replay. Concurrent recoveries of the same name
        // coalesce under the server's single-flight registration.
        for (int attempt = 1;
             attempt < kMaxAttempts &&
             response.status.code() == cdi::StatusCode::kNotFound;
             ++attempt) {
          auto again = server.RegisterScenario(
              names[pick], builder_for(names[pick]), /*replace=*/true);
          if (!again.ok()) break;
          reregistered.fetch_add(1, std::memory_order_relaxed);
          response = ExecuteRetryingShed(server, mix[pick], &retried);
        }
        const cdi::StatusCode code = response.status.code();
        if (code == cdi::StatusCode::kResourceExhausted ||
            code == cdi::StatusCode::kNotFound) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else if (args.verify) {
          // A served error that byte-matches the direct run's error is a
          // verified answer; any payload/error mismatch is torn.
          if (ServedLine(response) != expected[pick]) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (!response.status.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();

  const auto metrics = server.Metrics();
  server.Shutdown();

  std::printf("loadgen grid scenarios=%zu entities=%zu clients=%d "
              "requests=%llu skew=%s zipf_s=%.2f shards=%zu budget_kb=%zu "
              "seed=%llu\n",
              n, entities, args.clients,
              static_cast<unsigned long long>(total), args.skew.c_str(),
              args.zipf_s, args.registry_shards, args.memory_budget_kb,
              static_cast<unsigned long long>(args.seed));
  std::printf("metrics %s\n", metrics.ToLine().c_str());
  std::printf("verify torn=%llu errors=%llu retried=%llu reregistered=%llu "
              "evicted=%llu\n",
              static_cast<unsigned long long>(torn.load()),
              static_cast<unsigned long long>(errors.load()),
              static_cast<unsigned long long>(retried.load()),
              static_cast<unsigned long long>(reregistered.load()),
              static_cast<unsigned long long>(metrics.scenarios_evicted));

  bool ok = torn.load() == 0 && errors.load() == 0;
  if (torn.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu torn responses (served != direct run)\n",
                 static_cast<unsigned long long>(torn.load()));
  }
  if (errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu error responses\n",
                 static_cast<unsigned long long>(errors.load()));
  }
  if (args.memory_budget_kb > 0 && metrics.scenarios_evicted == 0) {
    std::fprintf(stderr,
                 "FAIL: a memory budget was set but nothing was evicted "
                 "(raise --scenarios or lower --memory-budget-kb)\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  if (args.grid_scenarios > 0) return RunGridMode(args);

  // ---- Scenario ingest (amortized across every request). -----------------
  cdi::datagen::ScenarioSpec spec;
  if (args.scenario == "covid") {
    spec = cdi::datagen::CovidSpec();
  } else if (args.scenario == "flights") {
    spec = cdi::datagen::FlightsSpec();
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", args.scenario.c_str());
    return 1;
  }
  if (args.entities > 0) spec.num_entities = args.entities;
  auto built = cdi::datagen::BuildScenario(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }

  // ---- Churn setup: hold back the last B*N rows as update batches, so
  // every appended row is a genuinely new entity the knowledge sources
  // already cover. phase e's table = head + batches[0..e). -----------------
  const bool churn = args.churn_rows > 0;
  const int num_batches = churn ? args.churn_batches : 0;
  std::vector<cdi::table::Table> batches;
  if (churn) {
    cdi::table::Table& full = built.value()->input_table;
    const std::size_t held =
        args.churn_rows * static_cast<std::size_t>(num_batches);
    if (full.num_rows() < held + 20) {
      std::fprintf(stderr,
                   "churn needs %zu held-back rows but the scenario has "
                   "only %zu (raise --entities)\n",
                   held, full.num_rows());
      return 1;
    }
    const std::size_t head = full.num_rows() - held;
    for (int k = 0; k < num_batches; ++k) {
      std::vector<std::size_t> rows(args.churn_rows);
      for (std::size_t i = 0; i < args.churn_rows; ++i) {
        rows[i] = head + static_cast<std::size_t>(k) * args.churn_rows + i;
      }
      batches.push_back(full.TakeRows(rows));
    }
    full = full.Head(head);
  }

  cdi::serve::ScenarioRegistry registry;
  auto registered = registry.Register(
      args.scenario, std::unique_ptr<const cdi::datagen::Scenario>(
                         std::move(built).value()));
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.status().ToString().c_str());
    return 1;
  }
  const auto bundle = *registered;

  // ---- Seeded query mix: K distinct (T, O) pairs, or the full ordered
  // pair sweep in --sweep mode (planned queries). --------------------------
  std::vector<cdi::serve::CdiQuery> mix;
  {
    const auto& attrs = bundle->numeric_attributes;
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const auto& t : attrs) {
      for (const auto& o : attrs) {
        if (t != o) pairs.emplace_back(t, o);
      }
    }
    if (pairs.empty()) {
      std::fprintf(stderr,
                   "scenario '%s' has fewer than two numeric attributes\n",
                   args.scenario.c_str());
      return 1;
    }
    std::size_t k = pairs.size();
    if (!args.sweep) {
      cdi::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 7);
      rng.Shuffle(&pairs);
      k = std::min<std::size_t>(pairs.size(),
                                args.distinct > 0 ? args.distinct : 1);
    }
    for (std::size_t i = 0; i < k; ++i) {
      cdi::serve::CdiQuery q;
      q.scenario = args.scenario;
      q.exposure = pairs[i].first;
      q.outcome = pairs[i].second;
      if (args.sweep) q.mode = cdi::serve::QueryMode::kPlanned;
      mix.push_back(std::move(q));
    }
  }

  // ---- Ground truth per distinct query: a direct Pipeline::Run of the
  // exact pair (default), or — in sweep mode — a fresh full-pipeline run
  // of the scenario's canonical pair plus a fresh CdagPlan answering the
  // pair (the planner's determinism contract: cached == freshly built).
  // Planner-rejected pairs record the expected error line instead.
  std::vector<std::string> expected(mix.size());
  /// Churn mode: ground truth per phase e (the table after e batches) per
  /// mix entry — a fresh direct Pipeline::Run over exactly the data the
  /// server serves at that epoch.
  std::vector<std::vector<std::string>> expected_phase;
  if (args.verify && churn) {
    const cdi::datagen::Scenario& sc = *bundle->scenario;
    cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                 &sc.topics, bundle->default_options);
    expected_phase.resize(static_cast<std::size_t>(num_batches) + 1);
    // Each phase's C-DAG (from a fresh canonical run + plan build, the
    // exact artifact the server summarizes from) — only when summaries
    // join the mix.
    std::vector<cdi::core::ClusterDag> phase_cdags;
    cdi::table::Table phase_table = sc.input_table;  // the head
    for (int e = 0; e <= num_batches; ++e) {
      if (e > 0) {
        if (auto s = phase_table.AppendRows(batches[static_cast<std::size_t>(
                e - 1)]);
            !s.ok()) {
          std::fprintf(stderr, "phase %d append: %s\n", e,
                       s.ToString().c_str());
          return 1;
        }
      }
      auto& exp = expected_phase[static_cast<std::size_t>(e)];
      exp.resize(mix.size());
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto run = pipeline.Run(phase_table, sc.spec.entity_column,
                                mix[i].exposure, mix[i].outcome);
        if (!run.ok()) {
          std::fprintf(stderr, "phase %d direct run %s->%s: %s\n", e,
                       mix[i].exposure.c_str(), mix[i].outcome.c_str(),
                       run.status().ToString().c_str());
          return 1;
        }
        exp[i] = cdi::serve::FormatResultPayload(*run);
      }
      if (args.summarize_mix) {
        auto run = pipeline.Run(phase_table, sc.spec.entity_column,
                                sc.exposure_attribute, sc.outcome_attribute);
        if (!run.ok()) {
          std::fprintf(stderr, "phase %d canonical run: %s\n", e,
                       run.status().ToString().c_str());
          return 1;
        }
        phase_cdags.push_back(run->build.cdag);
      }
    }
    // Summaries ride the churn too: one mix entry per budget achievable
    // in EVERY phase (a budget below some phase's safe floor would need
    // error responses mapped back to epochs, which error lines cannot
    // do). Each phase's expected line is the summary of that phase's
    // C-DAG — stale-epoch summaries are torn responses like any other.
    if (args.summarize_mix) {
      const std::size_t n0 = phase_cdags[0].num_clusters();
      std::size_t added = 0;
      for (std::size_t k = 2; k <= n0; ++k) {
        const auto q = SummarizeEntry(args.scenario, k);
        std::vector<std::string> lines;
        bool all_ok = true;
        for (const auto& cdag : phase_cdags) {
          lines.push_back(ExpectedSummaryLine(cdag, k, q.summarize_format));
          all_ok = all_ok && lines.back().rfind("error ", 0) != 0;
        }
        if (!all_ok) continue;
        mix.push_back(q);
        for (int e = 0; e <= num_batches; ++e) {
          expected_phase[static_cast<std::size_t>(e)].push_back(
              lines[static_cast<std::size_t>(e)]);
        }
        ++added;
      }
      if (added == 0) {
        std::fprintf(stderr,
                     "no summary budget is achievable in every churn "
                     "phase\n");
        return 1;
      }
    }
  } else if (args.verify) {
    const cdi::datagen::Scenario& sc = *bundle->scenario;
    cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                 &sc.topics, bundle->default_options);
    if (args.sweep) {
      auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                              sc.exposure_attribute, sc.outcome_attribute);
      if (!run.ok()) {
        std::fprintf(stderr, "canonical run: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      auto artifact = std::make_shared<const cdi::core::PipelineResult>(
          *std::move(run));
      auto plan = cdi::core::CdagPlan::Build(std::move(artifact));
      if (!plan.ok()) {
        std::fprintf(stderr, "plan build: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto answer = plan->AnswerPair(mix[i].exposure, mix[i].outcome);
        expected[i] =
            answer.ok()
                ? cdi::serve::FormatPairAnswerPayload(*answer)
                : std::string("error code=") +
                      cdi::StatusCodeName(answer.status().code());
      }
    } else {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                                mix[i].exposure, mix[i].outcome);
        if (!run.ok()) {
          std::fprintf(stderr, "direct run %s->%s: %s\n",
                       mix[i].exposure.c_str(), mix[i].outcome.c_str(),
                       run.status().ToString().c_str());
          return 1;
        }
        expected[i] = cdi::serve::FormatResultPayload(*run);
      }
      // Summarize mix: one extra entry per budget from 2 to the C-DAG's
      // node count, expected lines built from a fresh canonical run +
      // plan + merge pass — below-floor budgets stay in the mix, the
      // server must reproduce the exact error.
      if (args.summarize_mix) {
        auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                                sc.exposure_attribute, sc.outcome_attribute);
        if (!run.ok()) {
          std::fprintf(stderr, "canonical run: %s\n",
                       run.status().ToString().c_str());
          return 1;
        }
        const cdi::core::ClusterDag& cdag = run->build.cdag;
        for (std::size_t k = 2; k <= cdag.num_clusters(); ++k) {
          const auto q = SummarizeEntry(args.scenario, k);
          expected.push_back(
              ExpectedSummaryLine(cdag, k, q.summarize_format));
          mix.push_back(q);
        }
      }
    }
  }

  // ---- Server + warmup. --------------------------------------------------
  cdi::serve::QueryServerOptions options;
  options.num_workers = args.workers;
  options.max_queue_depth = args.queue_depth;
  cdi::serve::QueryServer server(&registry, options);

  std::atomic<std::uint64_t> torn{0};     // payload mismatch vs direct run
  std::atomic<std::uint64_t> errors{0};   // non-OK responses
  std::atomic<std::uint64_t> retried{0};  // queue-full rejections retried
  std::atomic<std::uint64_t> completed{0};  // finished client requests
  std::atomic<int> updates_done{0};
  std::atomic<bool> update_failed{false};

  // Epoch of each churn phase: [0] = the registered bundle, [k] = the
  // bundle published by the k-th update. A served response maps back to
  // its phase (and its expected payload) through its scenario_epoch.
  std::vector<std::atomic<std::uint64_t>> phase_epoch(
      static_cast<std::size_t>(num_batches) + 1);
  for (auto& p : phase_epoch) p.store(0, std::memory_order_relaxed);
  phase_epoch[0].store(bundle->epoch, std::memory_order_release);

  const auto phase_of_epoch = [&](std::uint64_t epoch) -> int {
    for (int spin = 0; spin < 2000; ++spin) {
      for (int e = 0; e <= num_batches; ++e) {
        if (phase_epoch[static_cast<std::size_t>(e)].load(
                std::memory_order_acquire) == epoch) {
          return e;
        }
      }
      // The updater publishes the fresh epoch right after UpdateScenario
      // returns; a racing client can observe it a beat earlier.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  };

  // In sweep mode the planner legitimately rejects some pairs (same
  // cluster, attribute dropped during organization), and a summarize mix
  // carries below-floor budgets; those must match the expected error
  // instead of failing the warmup.
  if (args.warmup) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const auto response = server.Execute(mix[i]);
      if (!response.status.ok() &&
          !((args.sweep || args.summarize_mix) && args.verify &&
            ServedLine(response, mix[i].summarize_format) == expected[i])) {
        std::fprintf(stderr, "warmup %s->%s: %s\n", mix[i].exposure.c_str(),
                     mix[i].outcome.c_str(),
                     response.status.ToString().c_str());
        return 1;
      }
    }
  }
  const auto warm_begin = server.Metrics();

  const std::uint64_t total = static_cast<std::uint64_t>(args.clients) *
                              static_cast<std::uint64_t>(args.requests);

  // ---- Closed-loop clients. ----------------------------------------------
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(args.clients));
  for (int c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      // Per-client seeded schedule: which mix entry each request replays.
      cdi::Rng rng(args.seed + 0x51ED2700 + static_cast<std::uint64_t>(c));
      for (int r = 0; r < args.requests; ++r) {
        if (churn) {
          // Pace the run against the updater: once the fleet's progress
          // crosses an update threshold, wait for that rollover to be
          // published before issuing more queries — otherwise cache-hit
          // traffic (microseconds per request) outruns the updater and
          // every answer would be served from epoch 0.
          const std::uint64_t done =
              completed.load(std::memory_order_relaxed);
          int crossed = 0;
          for (int k = 1; k <= num_batches; ++k) {
            if (done >= total * static_cast<std::uint64_t>(k) /
                            static_cast<std::uint64_t>(num_batches + 1)) {
              ++crossed;
            }
          }
          while (updates_done.load(std::memory_order_acquire) < crossed &&
                 !update_failed.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        const std::size_t pick = rng.UniformInt(mix.size());
        const auto response = ExecuteRetryingShed(server, mix[pick], &retried);
        if (!response.status.ok()) {
          // Expected planner/summarizer rejections verify like any other
          // response.
          if (args.verify && !churn &&
              ServedLine(response, mix[pick].summarize_format) ==
                  expected[pick]) {
            completed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          errors.fetch_add(1, std::memory_order_relaxed);
          completed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (args.verify) {
          // Map the answer to its ground truth: in churn mode the served
          // epoch selects which phase's table the answer must match — a
          // stale answer (old data under a new epoch, or vice versa) is
          // exactly a torn response here.
          const std::string* want = nullptr;
          if (churn) {
            const int phase = phase_of_epoch(response.scenario_epoch);
            if (phase >= 0) {
              want = &expected_phase[static_cast<std::size_t>(phase)][pick];
            }
          } else {
            want = &expected[pick];
          }
          if (want == nullptr ||
              ServedLine(response, mix[pick].summarize_format) != *want) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // ---- Churn updater: interleaves B row-batch epoch rollovers with the
  // client traffic, spaced across the run by completed-request count. -----
  std::thread updater;
  if (churn) {
    updater = std::thread([&] {
      for (int k = 0; k < num_batches; ++k) {
        const std::uint64_t threshold =
            total * static_cast<std::uint64_t>(k + 1) /
            static_cast<std::uint64_t>(num_batches + 1);
        while (completed.load(std::memory_order_relaxed) < threshold) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        auto updated = server.UpdateScenario(
            args.scenario, batches[static_cast<std::size_t>(k)]);
        if (!updated.ok()) {
          std::fprintf(stderr, "update %d: %s\n", k + 1,
                       updated.status().ToString().c_str());
          update_failed.store(true, std::memory_order_relaxed);
          return;
        }
        phase_epoch[static_cast<std::size_t>(k) + 1].store(
            (*updated)->epoch, std::memory_order_release);
        updates_done.fetch_add(1, std::memory_order_release);
      }
    });
  }

  for (auto& t : clients) t.join();
  if (updater.joinable()) updater.join();

  const auto warm = server.Metrics().Since(warm_begin);
  server.Shutdown();

  // ---- Report. -----------------------------------------------------------
  std::printf("loadgen scenario=%s entities=%zu clients=%d requests=%llu "
              "distinct=%zu workers=%d seed=%llu sweep=%d summarize_mix=%d "
              "churn_rows=%zu churn_batches=%d\n",
              args.scenario.c_str(), spec.num_entities, args.clients,
              static_cast<unsigned long long>(total), mix.size(),
              args.workers, static_cast<unsigned long long>(args.seed),
              args.sweep ? 1 : 0, args.summarize_mix ? 1 : 0,
              args.churn_rows, num_batches);
  std::printf("metrics %s\n", warm.ToLine().c_str());
  std::printf("verify torn=%llu errors=%llu retried=%llu hit_rate=%.4f\n",
              static_cast<unsigned long long>(torn.load()),
              static_cast<unsigned long long>(errors.load()),
              static_cast<unsigned long long>(retried.load()),
              warm.CacheHitRate());

  bool ok = torn.load() == 0 && errors.load() == 0;
  // Epoch rollovers legitimately cool the cache, so the churn mode trades
  // the hit-rate gate for the per-epoch byte-for-byte answer check.
  if (args.warmup && !churn && warm.CacheHitRate() < args.min_hit_rate) {
    std::fprintf(stderr, "FAIL: warm cache hit rate %.4f < %.4f\n",
                 warm.CacheHitRate(), args.min_hit_rate);
    ok = false;
  }
  if (update_failed.load()) {
    std::fprintf(stderr, "FAIL: a row-batch update failed\n");
    ok = false;
  }
  if (churn && warm.epoch_rollovers !=
                   static_cast<std::uint64_t>(num_batches)) {
    std::fprintf(stderr, "FAIL: %llu epoch rollovers, expected %d\n",
                 static_cast<unsigned long long>(warm.epoch_rollovers),
                 num_batches);
    ok = false;
  }
  if (torn.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu torn responses (served != direct run)\n",
                 static_cast<unsigned long long>(torn.load()));
  }
  if (errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu error responses\n",
                 static_cast<unsigned long long>(errors.load()));
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
