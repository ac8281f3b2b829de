// cdi_loadgen — seeded closed-loop load generator for the query server.
//
// Usage:
//   cdi_loadgen [--scenario covid|flights] [--entities N] [--clients C]
//               [--requests R] [--workers W] [--queue-depth D]
//               [--distinct K] [--seed S] [--sweep] [--summarize-mix]
//               [--churn-rows N [--churn-batches B]]
//               [--scenarios N [--registry-shards N] [--memory-budget-kb K]]
//
// Every count flag takes a plain non-negative integer under its ceiling;
// anything else is a usage error (exit 2).
//
// Spawns an in-process QueryServer, builds a mix of queries, then runs C
// closed-loop client threads issuing R requests each (submit -> wait ->
// next) under a seeded schedule. Every served response is verified byte
// for byte: its payload line (effects at full %.17g precision plus a
// 64-bit fingerprint over the entire result) or its `error code=...`
// line must equal the line a direct computation of the same query gives,
// computed before any client starts. A mismatch is a "torn response" and
// fails the run, as does any unverified error response. The modes are
// request schedules over that one core:
//
// - default: K distinct (exposure, outcome) pairs drawn from the
//   scenario's numeric attributes, checked against a fresh Pipeline::Run
//   each. The mix is warmed with one pass first, and the warm-phase cache
//   hit rate must reach 0.9.
// - --sweep: every ordered pair as a planned query, checked against a
//   fresh CdagPlan built from a fresh canonical run. Pairs the planner
//   rejects must be rejected by the server with the same status code.
// - --summarize-mix: adds one summarize query per budget from 2 to the
//   canonical C-DAG's node count (formats alternating dot/json), checked
//   against SummarizeClusterDag on a fresh canonical C-DAG.
// - --churn-rows N: registers the scenario with its last N*B rows held
//   back while an updater thread applies them as B row-batch updates
//   (epoch rollovers) between client requests. Each epoch is one phase
//   with its own expected lines; a served answer is checked against the
//   phase of its scenario epoch, so a stale answer is torn. Error lines
//   carry no epoch, so entries that fail in some phase leave the mix. No
//   hit-rate gate: rollovers legitimately cool the cache. Composes with
//   --summarize-mix.
// - --scenarios N: registers the first N cells of the default scenario
//   grid (datagen/grid.h) through QueryServer::RegisterScenario and picks
//   a scenario per request by Zipf(1.1) over registration order, querying
//   its canonical pair. Under --memory-budget-kb the registry evicts cold
//   scenarios; a client that hits an evicted one re-registers the
//   bit-identical rebuild and replays the request, and the run must see
//   at least one eviction. No warm-up and no hit-rate gate.
//
// Prints the measured-phase MetricsSnapshot and a verification summary.
// Run under TSan (-DCDI_TSAN=ON) as the serving layer's race gate.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
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

using cdi::serve::CdiQuery;
using cdi::serve::QueryResponse;
using cdi::serve::QueryServer;

struct Args {
  std::string scenario = "covid";
  std::size_t entities = 200;
  int clients = 8;
  int requests = 50;  // per client
  int workers = 4;
  std::size_t queue_depth = 64;
  int distinct = 6;
  std::uint64_t seed = 1;
  bool sweep = false;
  bool summarize_mix = false;
  std::size_t churn_rows = 0;  // >0 enables streaming-ingest churn mode
  int churn_batches = 3;
  std::size_t grid_scenarios = 0;  // >0 enables grid scale-out mode
  std::size_t registry_shards = 8;
  std::size_t memory_budget_kb = 0;  // 0 = unlimited
};

/// Ceilings of the loadgen-only count flags (the shared ones live beside
/// ParseCountFlag).
constexpr std::uint64_t kMaxRequestsFlag = 1000000;      // per client
constexpr std::uint64_t kMaxDistinctFlag = 10000;        // (T, O) pairs
constexpr std::uint64_t kMaxChurnBatchesFlag = 10000;
constexpr std::uint64_t kMaxGridScenariosFlag = 100000;  // grid cells

/// Zipf exponent of the grid mode's scenario pick.
constexpr double kZipfS = 1.1;
/// Warm-phase cache hit rate a warmed single-phase run must reach.
constexpr double kMinHitRate = 0.9;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario covid|flights] [--entities N] [--clients C] "
      "[--requests R] [--workers W] [--queue-depth D] [--distinct K] "
      "[--seed S] [--sweep] [--summarize-mix] "
      "[--churn-rows N [--churn-batches B]] "
      "[--scenarios N [--registry-shards N] [--memory-budget-kb K]]\n",
      argv0);
  return 2;
}

/// Every count flag is digits only, within its floor and ceiling, checked
/// here, before any scenario, thread or queue exists.
bool ParseArgs(int argc, char** argv, Args* args) {
  using cdi::kMaxThreadsFlag;
  using cdi::ParseCountFlag;
  using cdi::serve::kMaxGenerateEntities;
  using cdi::serve::kMaxMemoryBudgetKbFlag;
  using cdi::serve::kMaxQueueDepthFlag;
  using cdi::serve::kMaxRegistryShardsFlag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    bool parsed = true;
    if (flag == "--scenario" && (v = next())) {
      args->scenario = v;
    } else if (flag == "--entities" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxGenerateEntities,
                              &args->entities);
    } else if (flag == "--clients" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxThreadsFlag, &args->clients);
    } else if (flag == "--requests" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxRequestsFlag, &args->requests);
    } else if (flag == "--workers" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxThreadsFlag, &args->workers);
    } else if (flag == "--queue-depth" && (v = next())) {
      // A zero-depth queue sheds every request, so no client could finish.
      parsed = ParseCountFlag(flag, v, 1, kMaxQueueDepthFlag,
                              &args->queue_depth);
    } else if (flag == "--distinct" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxDistinctFlag, &args->distinct);
    } else if (flag == "--seed" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0,
                              std::numeric_limits<std::uint64_t>::max(),
                              &args->seed);
    } else if (flag == "--sweep") {
      args->sweep = true;
    } else if (flag == "--summarize-mix") {
      args->summarize_mix = true;
    } else if (flag == "--churn-rows" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxGenerateEntities,
                              &args->churn_rows);
    } else if (flag == "--churn-batches" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxChurnBatchesFlag,
                              &args->churn_batches);
    } else if (flag == "--scenarios" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxGridScenariosFlag,
                              &args->grid_scenarios);
    } else if (flag == "--registry-shards" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxRegistryShardsFlag,
                              &args->registry_shards);
    } else if (flag == "--memory-budget-kb" && (v = next())) {
      parsed = ParseCountFlag(flag, v, 0, kMaxMemoryBudgetKbFlag,
                              &args->memory_budget_kb);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
    if (!parsed) return false;
  }
  if (args->sweep && args->churn_rows > 0) {
    std::fprintf(stderr, "--sweep and --churn-rows are mutually exclusive\n");
    return false;
  }
  if (args->grid_scenarios > 0 &&
      (args->sweep || args->churn_rows > 0 || args->summarize_mix)) {
    std::fprintf(stderr, "--scenarios (grid mode) excludes --sweep, "
                         "--churn-rows and --summarize-mix\n");
    return false;
  }
  if (args->churn_rows > 0 && args->churn_batches < 1) {
    std::fprintf(stderr, "--churn-batches must be >= 1\n");
    return false;
  }
  if (args->summarize_mix && args->sweep) {
    std::fprintf(stderr, "--summarize-mix excludes --sweep\n");
    return false;
  }
  return args->clients > 0 && args->requests > 0;
}

std::string ErrorLine(const cdi::Status& status) {
  return std::string("error code=") + cdi::StatusCodeName(status.code());
}

/// The byte-comparable form of a served response: the payload line for OK
/// answers, ErrorLine otherwise. `summary_format` selects the rendering
/// embedded in summary payloads (the fingerprint covers both renderings,
/// so one format still proves byte equality of DOT and JSON).
std::string ServedLine(const QueryResponse& response,
                       const std::string& summary_format) {
  if (!response.status.ok()) return ErrorLine(response.status);
  if (response.summary() != nullptr) {
    return cdi::serve::FormatSummaryPayload(*response.summary(),
                                            summary_format);
  }
  return response.planned() != nullptr
             ? cdi::serve::FormatPairAnswerPayload(*response.planned())
             : cdi::serve::FormatResultPayload(*response.result());
}

/// The expected line of a full query: a fresh Pipeline::Run over `table`.
std::string RunLine(const cdi::core::Pipeline& pipeline,
                    const cdi::table::Table& table,
                    const cdi::datagen::Scenario& sc, const CdiQuery& q) {
  auto run = pipeline.Run(table, sc.spec.entity_column, q.exposure,
                          q.outcome);
  return run.ok() ? cdi::serve::FormatResultPayload(*run)
                  : ErrorLine(run.status());
}

/// The expected line of a summarize query with budget k against a freshly
/// built C-DAG: the summary payload, or the merge pass's rejection.
std::string SummaryLine(const cdi::core::ClusterDag& cdag,
                        const CdiQuery& q) {
  cdi::summarize::SummarizeOptions sopts;
  sopts.budget = q.summarize_k;
  auto summary = cdi::summarize::SummarizeClusterDag(cdag, sopts);
  if (!summary.ok()) return ErrorLine(summary.status());
  cdi::serve::SummaryArtifact artifact;
  artifact.dot = summary->ToDot();
  artifact.json = summary->ToJson();
  artifact.summary = std::make_shared<const cdi::summarize::SummaryDag>(
      *std::move(summary));
  return cdi::serve::FormatSummaryPayload(artifact, q.summarize_format);
}

/// What a mode hands the core: the mix, its expected lines, and how
/// clients pick and recover.
struct Schedule {
  std::vector<CdiQuery> mix;
  /// expected[phase][entry]: phase 0 is the registered data, phase e the
  /// data after e row batches (churn). Every other mode has one phase.
  std::vector<std::vector<std::string>> expected;
  /// Churn: the row batches, and the epoch of phase 0.
  std::vector<cdi::table::Table> batches;
  std::uint64_t epoch = 0;
  /// Replays the mix once before measuring, and gates the hit rate.
  bool warmup = true;
  /// Per-client pick stream: Rng(seed + seed_offset + client). Uniform
  /// over the mix, or Categorical over `weights` when set.
  std::uint64_t seed_offset = 0x51ED2700;
  std::vector<double> weights;
  /// Recovery from kNotFound (an evicted scenario): re-registers the
  /// entry's scenario, true when the request should be replayed.
  std::function<bool(std::size_t entry)> recover;
};

/// Submits `query`, replaying it while the server sheds it with
/// kResourceExhausted (a tiny --queue-depth can overflow even with
/// closed-loop clients): up to kMaxAttempts submissions, 10 ms apart so a
/// worker can drain the queue. Each replay counts in `retried`; a response
/// still shed after the last attempt is returned as is.
constexpr int kMaxAttempts = 200;
QueryResponse ExecuteRetryingShed(QueryServer& server, const CdiQuery& query,
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

/// The single-scenario modes: default, --sweep, --summarize-mix, churn.
/// Registers the scenario (its last churn rows held back) and fills `s`;
/// false after printing why when the scenario cannot be served.
bool ScenarioSchedule(const Args& args,
                      cdi::serve::ScenarioRegistry& registry, Schedule* s) {
  cdi::datagen::ScenarioSpec spec;
  if (args.scenario == "covid") {
    spec = cdi::datagen::CovidSpec();
  } else if (args.scenario == "flights") {
    spec = cdi::datagen::FlightsSpec();
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", args.scenario.c_str());
    return false;
  }
  if (args.entities > 0) spec.num_entities = args.entities;
  auto built = cdi::datagen::BuildScenario(spec);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return false;
  }

  // Churn: hold back the last B*N rows as update batches, so every
  // appended row is a new entity the knowledge sources already cover.
  if (args.churn_rows > 0) {
    cdi::table::Table& full = built.value()->input_table;
    const std::size_t held =
        args.churn_rows * static_cast<std::size_t>(args.churn_batches);
    if (full.num_rows() < held + 20) {
      std::fprintf(stderr,
                   "churn needs %zu held-back rows but the scenario has "
                   "only %zu (raise --entities)\n",
                   held, full.num_rows());
      return false;
    }
    const std::size_t head = full.num_rows() - held;
    for (int k = 0; k < args.churn_batches; ++k) {
      std::vector<std::size_t> rows(args.churn_rows);
      for (std::size_t i = 0; i < args.churn_rows; ++i) {
        rows[i] = head + static_cast<std::size_t>(k) * args.churn_rows + i;
      }
      s->batches.push_back(full.TakeRows(rows));
    }
    full = full.Head(head);
  }

  auto registered = registry.Register(
      args.scenario, std::unique_ptr<const cdi::datagen::Scenario>(
                         std::move(built).value()));
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.status().ToString().c_str());
    return false;
  }
  const auto& bundle = *registered;
  const cdi::datagen::Scenario& sc = *bundle->scenario;
  s->epoch = bundle->epoch;

  // K distinct seeded (T, O) pairs, or every ordered pair as planned
  // queries in --sweep mode.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& t : bundle->numeric_attributes) {
    for (const auto& o : bundle->numeric_attributes) {
      if (t != o) pairs.emplace_back(t, o);
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "scenario '%s' has fewer than two numeric "
                         "attributes\n", args.scenario.c_str());
    return false;
  }
  std::size_t k = pairs.size();
  if (!args.sweep) {
    cdi::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 7);
    rng.Shuffle(&pairs);
    k = std::min<std::size_t>(pairs.size(),
                              args.distinct > 0 ? args.distinct : 1);
  }
  for (std::size_t i = 0; i < k; ++i) {
    CdiQuery q;
    q.scenario = args.scenario;
    q.exposure = pairs[i].first;
    q.outcome = pairs[i].second;
    if (args.sweep) q.mode = cdi::serve::QueryMode::kPlanned;
    s->mix.push_back(std::move(q));
  }
  const cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                     &sc.topics, bundle->default_options);
  cdi::table::Table phase_table = sc.input_table;  // the head
  const std::size_t num_pairs = s->mix.size();

  // Expected lines per phase: the sweep reads a fresh CdagPlan over a
  // fresh canonical run (the planner's contract: cached == freshly
  // built), summaries a fresh canonical C-DAG, everything else a fresh
  // direct run of the pair.
  for (std::size_t e = 0; e <= s->batches.size(); ++e) {
    if (e > 0) {
      if (auto st = phase_table.AppendRows(s->batches[e - 1]); !st.ok()) {
        std::fprintf(stderr, "phase %zu append: %s\n", e,
                     st.ToString().c_str());
        return false;
      }
    }
    std::shared_ptr<const cdi::core::PipelineResult> run;
    if (args.sweep || args.summarize_mix) {
      auto r = pipeline.Run(phase_table, sc.spec.entity_column,
                            sc.exposure_attribute, sc.outcome_attribute);
      if (!r.ok()) {
        std::fprintf(stderr, "phase %zu canonical run: %s\n", e,
                     r.status().ToString().c_str());
        return false;
      }
      run = std::make_shared<const cdi::core::PipelineResult>(*std::move(r));
    }
    // Summarize mix: one entry per budget from 2 to the registered
    // canonical C-DAG's node count.
    if (e == 0 && args.summarize_mix) {
      for (std::size_t b = 2; b <= run->build.cdag.num_clusters(); ++b) {
        CdiQuery q;
        q.scenario = args.scenario;
        q.mode = cdi::serve::QueryMode::kSummarize;
        q.summarize_k = b;
        q.summarize_format = (b % 2 == 0) ? "dot" : "json";
        s->mix.push_back(std::move(q));
      }
    }
    auto& lines = s->expected.emplace_back();
    if (args.sweep) {
      auto plan = cdi::core::CdagPlan::Build(run);
      if (!plan.ok()) {
        std::fprintf(stderr, "plan build: %s\n",
                     plan.status().ToString().c_str());
        return false;
      }
      for (const CdiQuery& q : s->mix) {
        auto answer = plan->AnswerPair(q.exposure, q.outcome);
        lines.push_back(answer.ok()
                            ? cdi::serve::FormatPairAnswerPayload(*answer)
                            : ErrorLine(answer.status()));
      }
      continue;
    }
    for (std::size_t i = 0; i < s->mix.size(); ++i) {
      lines.push_back(i < num_pairs
                          ? RunLine(pipeline, phase_table, sc, s->mix[i])
                          : SummaryLine(run->build.cdag, s->mix[i]));
    }
  }

  // An error response carries no epoch to map it to a phase, so under
  // churn an entry whose line is an error in some phase leaves the mix.
  if (s->expected.size() > 1) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < s->mix.size(); ++i) {
      bool all_ok = true;
      for (const auto& lines : s->expected) {
        all_ok = all_ok && lines[i].rfind("error ", 0) != 0;
      }
      if (!all_ok) continue;
      s->mix[kept] = s->mix[i];
      for (auto& lines : s->expected) lines[kept] = lines[i];
      ++kept;
    }
    s->mix.resize(kept);
    for (auto& lines : s->expected) lines.resize(kept);
    if (kept == 0) {
      std::fprintf(stderr, "no query is answerable in every churn phase\n");
      return false;
    }
  }
  return true;
}

/// --scenarios N: registers the first N grid cells through the server's
/// single-flight registration, each checked against a direct pipeline run
/// of the bundle just published. Determinism of the grid rebuild is what
/// lets one expected line per scenario cover every re-registration.
bool GridSchedule(const Args& args, QueryServer& server, Schedule* s) {
  const auto cells =
      cdi::datagen::EnumerateGrid(cdi::datagen::ScenarioGridSpec{});
  if (args.grid_scenarios > cells.size()) {
    std::fprintf(stderr, "--scenarios %zu exceeds the %zu-cell grid\n",
                 args.grid_scenarios, cells.size());
    return false;
  }
  const std::size_t entities = args.entities > 0 ? args.entities : 120;
  const auto builder_for = [entities](const std::string& cell) {
    return [cell, entities]()
               -> cdi::Result<std::shared_ptr<const cdi::datagen::Scenario>> {
      auto scenario = cdi::datagen::BuildGridScenario(cell, entities);
      if (!scenario.ok()) return scenario.status();
      return std::shared_ptr<const cdi::datagen::Scenario>(
          std::move(scenario).value());
    };
  };
  auto& lines = s->expected.emplace_back();
  for (std::size_t i = 0; i < args.grid_scenarios; ++i) {
    const std::string name = cdi::datagen::GridCellName(cells[i]);
    // The bundle's snapshot stays valid even if the budget evicts the
    // name while later cells register.
    auto bundle = server.RegisterScenario(name, builder_for(name));
    if (!bundle.ok()) {
      std::fprintf(stderr, "register %s: %s\n", name.c_str(),
                   bundle.status().ToString().c_str());
      return false;
    }
    const cdi::datagen::Scenario& sc = *(*bundle)->scenario;
    CdiQuery& q = s->mix.emplace_back();
    q.scenario = name;
    q.exposure = sc.exposure_attribute;
    q.outcome = sc.outcome_attribute;
    // Cells the pipeline deterministically rejects (e.g. severe MNAR at
    // tiny entity counts) stay in the mix: the server must reproduce the
    // same error.
    const cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                       &sc.topics, (*bundle)->default_options);
    lines.push_back(RunLine(pipeline, sc.input_table, sc, q));
    s->weights.push_back(1.0 / std::pow(static_cast<double>(i + 1), kZipfS));
  }
  s->warmup = false;
  s->seed_offset = 0xA11CE5;
  // Concurrent recoveries of the same name coalesce under the server's
  // single-flight registration.
  s->recover = [&server, s, builder_for](std::size_t entry) {
    const std::string& name = s->mix[entry].scenario;
    return server.RegisterScenario(name, builder_for(name), /*replace=*/true)
        .ok();
  };
  return true;
}

/// The core: warms the mix, runs the closed-loop clients (and, under
/// churn, the updater), verifies every response against its expected
/// line, prints the report and returns the exit code.
int Run(const Args& args, QueryServer& server, const Schedule& s) {
  const std::size_t num_phases = s.expected.size();
  const int num_batches = static_cast<int>(s.batches.size());
  // Epoch of each phase: [0] = the registered bundle, [k] = the bundle
  // published by the k-th update.
  std::vector<std::atomic<std::uint64_t>> phase_epoch(num_phases);
  for (auto& p : phase_epoch) p.store(0, std::memory_order_relaxed);
  phase_epoch[0].store(s.epoch, std::memory_order_release);
  const auto phase_of_epoch = [&](std::uint64_t epoch) -> int {
    if (num_phases == 1) return 0;
    for (int spin = 0; spin < 2000; ++spin) {
      for (std::size_t e = 0; e < num_phases; ++e) {
        if (phase_epoch[e].load(std::memory_order_acquire) == epoch) {
          return static_cast<int>(e);
        }
      }
      // The updater publishes the fresh epoch right after UpdateScenario
      // returns; a racing client can observe it a beat earlier.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  };
  // The one verify rule: a response matches the expected line of its mix
  // entry in its epoch's phase. Error lines carry no epoch and verify only
  // in a single-phase schedule.
  const auto verified = [&](const QueryResponse& response,
                            std::size_t entry) {
    if (!response.status.ok() && num_phases > 1) return false;
    const int phase = phase_of_epoch(response.scenario_epoch);
    return phase >= 0 &&
           ServedLine(response, s.mix[entry].summarize_format) ==
               s.expected[static_cast<std::size_t>(phase)][entry];
  };

  if (s.warmup) {
    for (std::size_t i = 0; i < s.mix.size(); ++i) {
      const auto response = server.Execute(s.mix[i]);
      if (!response.status.ok() && !verified(response, i)) {
        std::fprintf(stderr, "warmup %s->%s: %s\n",
                     s.mix[i].exposure.c_str(), s.mix[i].outcome.c_str(),
                     response.status.ToString().c_str());
        return 1;
      }
    }
  }
  // Grid mode reports the whole run, registrations included.
  const auto begin =
      s.warmup ? server.Metrics() : cdi::serve::MetricsSnapshot{};

  std::atomic<std::uint64_t> torn{0};          // OK payload != expected
  std::atomic<std::uint64_t> errors{0};        // unverified error responses
  std::atomic<std::uint64_t> retried{0};       // queue-full replays
  std::atomic<std::uint64_t> reregistered{0};  // eviction recoveries
  std::atomic<std::uint64_t> completed{0};
  std::atomic<int> updates_done{0};
  std::atomic<bool> update_failed{false};
  const std::uint64_t total = static_cast<std::uint64_t>(args.clients) *
                              static_cast<std::uint64_t>(args.requests);

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(args.clients));
  for (int c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      cdi::Rng rng(args.seed + s.seed_offset + static_cast<std::uint64_t>(c));
      for (int r = 0; r < args.requests; ++r) {
        if (num_batches > 0) {
          // Pace the run against the updater: once the fleet's progress
          // crosses an update threshold, wait for that rollover to be
          // published, or cache hits (microseconds each) would outrun the
          // updater and every answer would come from epoch 0.
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
        const std::size_t pick = s.weights.empty()
                                     ? rng.UniformInt(s.mix.size())
                                     : rng.Categorical(s.weights);
        auto response = ExecuteRetryingShed(server, s.mix[pick], &retried);
        for (int attempt = 1;
             s.recover && attempt < kMaxAttempts &&
             response.status.code() == cdi::StatusCode::kNotFound &&
             s.recover(pick);
             ++attempt) {
          reregistered.fetch_add(1, std::memory_order_relaxed);
          response = ExecuteRetryingShed(server, s.mix[pick], &retried);
        }
        if (!verified(response, pick)) {
          (response.status.ok() ? torn : errors)
              .fetch_add(1, std::memory_order_relaxed);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Churn updater: B row-batch epoch rollovers spaced across the run by
  // completed-request count.
  std::thread updater;
  if (num_batches > 0) {
    updater = std::thread([&] {
      for (int k = 0; k < num_batches; ++k) {
        const std::uint64_t threshold =
            total * static_cast<std::uint64_t>(k + 1) /
            static_cast<std::uint64_t>(num_batches + 1);
        while (completed.load(std::memory_order_relaxed) < threshold) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        auto updated = server.UpdateScenario(
            args.scenario, s.batches[static_cast<std::size_t>(k)]);
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

  const auto metrics = server.Metrics().Since(begin);
  server.Shutdown();

  std::printf("loadgen scenario=%s entities=%zu clients=%d requests=%llu "
              "distinct=%zu workers=%d seed=%llu sweep=%d summarize_mix=%d "
              "churn_rows=%zu churn_batches=%d scenarios=%zu shards=%zu "
              "budget_kb=%zu\n",
              args.grid_scenarios > 0 ? "grid" : args.scenario.c_str(),
              args.entities, args.clients,
              static_cast<unsigned long long>(total), s.mix.size(),
              args.workers, static_cast<unsigned long long>(args.seed),
              args.sweep ? 1 : 0, args.summarize_mix ? 1 : 0,
              args.churn_rows, num_batches, args.grid_scenarios,
              args.registry_shards, args.memory_budget_kb);
  std::printf("metrics %s\n", metrics.ToLine().c_str());
  std::printf("verify torn=%llu errors=%llu retried=%llu reregistered=%llu "
              "hit_rate=%.4f\n",
              static_cast<unsigned long long>(torn.load()),
              static_cast<unsigned long long>(errors.load()),
              static_cast<unsigned long long>(retried.load()),
              static_cast<unsigned long long>(reregistered.load()),
              metrics.CacheHitRate());

  bool ok = torn.load() == 0 && errors.load() == 0;
  if (torn.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu torn responses (served != direct run)\n",
                 static_cast<unsigned long long>(torn.load()));
  }
  if (errors.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu error responses\n",
                 static_cast<unsigned long long>(errors.load()));
  }
  // Epoch rollovers legitimately cool the cache, so churn trades the
  // hit-rate gate for the per-epoch byte-for-byte check.
  if (s.warmup && num_phases == 1 && metrics.CacheHitRate() < kMinHitRate) {
    std::fprintf(stderr, "FAIL: warm cache hit rate %.4f < %.4f\n",
                 metrics.CacheHitRate(), kMinHitRate);
    ok = false;
  }
  if (update_failed.load()) {
    std::fprintf(stderr, "FAIL: a row-batch update failed\n");
    ok = false;
  }
  if (num_batches > 0 &&
      metrics.epoch_rollovers != static_cast<std::uint64_t>(num_batches)) {
    std::fprintf(stderr, "FAIL: %llu epoch rollovers, expected %d\n",
                 static_cast<unsigned long long>(metrics.epoch_rollovers),
                 num_batches);
    ok = false;
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

  cdi::serve::RegistryOptions registry_options;
  registry_options.num_shards = args.registry_shards;
  registry_options.memory_budget_bytes = args.memory_budget_kb * 1024;
  cdi::serve::ScenarioRegistry registry(registry_options);
  cdi::serve::QueryServerOptions options;
  options.num_workers = args.workers;
  options.max_queue_depth = args.queue_depth;
  QueryServer server(&registry, options);

  Schedule schedule;
  const bool built = args.grid_scenarios > 0
                         ? GridSchedule(args, server, &schedule)
                         : ScenarioSchedule(args, registry, &schedule);
  return built ? Run(args, server, schedule) : 1;
}
