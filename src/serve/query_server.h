#ifndef CDI_SERVE_QUERY_SERVER_H_
#define CDI_SERVE_QUERY_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "serve/metrics.h"
#include "serve/scenario_registry.h"
#include "serve/single_flight.h"
#include "summarize/summarize.h"

namespace cdi::serve {

/// How a query wants its answer computed.
enum class QueryMode {
  /// Run the full pipeline for this exact (exposure, outcome) pair — the
  /// pair-exact path; every stage (extraction, organization, discovery)
  /// is conditioned on the pair.
  kFull,
  /// Answer from the scenario's cached C-DAG plan: one artifact per
  /// (scenario, epoch) built under single-flight, every pair served off
  /// it by the ClusterDag multi-query API + sufficient-statistics effect
  /// estimates — microseconds of linear algebra instead of a pipeline
  /// run.
  kPlanned,
  /// Summarize the scenario's C-DAG to a node budget (CaGreS-style
  /// greedy merge): the scenario's cached plan artifact supplies the
  /// C-DAG, the summary is rendered to DOT *and* JSON once, and the
  /// rendered artifact is cached per (scenario, epoch, k, options)
  /// under the same single-flight + epoch-eviction contract as results.
  kSummarize,
};

/// A served summary: the SummaryDag plus both renderings, built once per
/// (scenario, epoch, k, options) and shared by every cache hit. The
/// format choice only selects which pre-rendered string a response line
/// prints — it is deliberately *not* part of the cache key.
struct SummaryArtifact {
  std::shared_ptr<const summarize::SummaryDag> summary;
  std::string dot;
  std::string json;
};

/// One causal query against a registered scenario: "what is the effect of
/// `exposure` on `outcome`?" — the repeated analyst question the serving
/// layer amortizes ingest and statistics across.
struct CdiQuery {
  std::string scenario;
  /// Exposure/outcome attributes; empty (and ignored) for
  /// QueryMode::kSummarize, which always summarizes the scenario's
  /// canonical C-DAG.
  std::string exposure;
  std::string outcome;
  QueryMode mode = QueryMode::kFull;
  /// kSummarize: the node budget k (>= 2; validated against the built
  /// C-DAG's node count at execution). Part of the cache key.
  std::size_t summarize_k = 0;
  /// kSummarize: which rendering a response line prints ("dot" or
  /// "json"). Presentation only — not part of the cache key; both
  /// renderings are built and cached together.
  std::string summarize_format = "dot";
  /// Pipeline options override; unset = the bundle's default options.
  /// Only *semantic* fields contribute to the cache key (see
  /// core::PipelineOptionsFingerprint).
  std::optional<core::PipelineOptions> options;
  /// Relative deadline in seconds from submission (covers queueing AND
  /// execution); <= 0 means no deadline. A request coalesced onto an
  /// identical in-flight one is held to its own deadline too: when the
  /// shared outcome lands past it, the request gets kDeadlineExceeded
  /// (checked at that moment; no timer answers it earlier).
  double timeout_seconds = 0.0;
};

/// How a response was produced.
enum class ResponseSource {
  kError,     ///< no result (rejected, invalid, deadline, cancelled, ...)
  kExecuted,  ///< this request ran the pipeline (cache-miss leader)
  kCacheHit,  ///< served from a completed cache entry
  kCoalesced  ///< waited on an identical in-flight computation
};

/// What an OK response serves: the full-pipeline result (kFull), the
/// planned pair answer (kPlanned) or the summary artifact (kSummarize).
/// Shared and immutable: identical queries may receive the *same* pointer
/// (memoization is by reference). std::monostate on error.
using Payload = std::variant<std::monostate,
                             std::shared_ptr<const core::PipelineResult>,
                             std::shared_ptr<const core::PairAnswer>,
                             std::shared_ptr<const SummaryArtifact>>;

struct QueryResponse {
  Status status;
  Payload payload;
  ResponseSource source = ResponseSource::kError;
  /// Single-flight cache key: hash of (scenario epoch, T, O, options
  /// fingerprint). 0 when the request failed before key computation.
  std::uint64_t cache_key = 0;
  std::uint64_t scenario_epoch = 0;
  double latency_seconds = 0.0;

  /// Typed views of `payload`: null unless it holds that kind.
  const core::PipelineResult* result() const {
    return Get<core::PipelineResult>();
  }
  const core::PairAnswer* planned() const { return Get<core::PairAnswer>(); }
  const SummaryArtifact* summary() const { return Get<SummaryArtifact>(); }

 private:
  template <typename T>
  const T* Get() const {
    const auto* p = std::get_if<std::shared_ptr<const T>>(&payload);
    return p != nullptr ? p->get() : nullptr;
  }
};

struct QueryServerOptions {
  /// Worker threads executing pipeline runs.
  int num_workers = 4;
  /// Bound on queued-but-not-started requests. A request that would
  /// exceed it is rejected immediately with kResourceExhausted — explicit
  /// load shedding instead of unbounded memory growth. Cache hits and
  /// coalesced requests never occupy a slot.
  std::size_t max_queue_depth = 64;
  /// `num_threads` handed to each pipeline run (results are
  /// bitwise-identical at any value, so this is pure latency tuning).
  int pipeline_threads = 1;
  /// Test hook: runs on the worker thread right before each pipeline
  /// execution (used to hold a worker to make queue-full and
  /// mid-execution-deadline scenarios deterministic). Not for production.
  std::function<void()> pre_execute_hook;
};

/// Concurrent query-serving layer over a ScenarioRegistry.
///
/// Requests flow: admission (resolve scenario snapshot, validate the
/// query against the bundle's shared sufficient statistics, consult the
/// cache) -> bounded FIFO queue -> worker pool -> pipeline run with a
/// per-request CancelToken -> response.
///
/// Four cache tiers, one mechanism: each tier is a SingleFlightCache
/// (serve/single_flight.h) and so shares its claim / follow / publish /
/// evict-on-failure / epoch-sweep contract.
///   - results: one answer per query key (kFull, kPlanned);
///   - summaries: one rendered summary per (scenario, epoch, k, options);
///   - plans: one C-DAG artifact per (scenario, epoch, options), built by
///     the first planned or summarize request and reused by later ones;
///   - registrations: one RegisterScenario build per name (the registry,
///     not the cache, keeps the outcome).
/// Result and summary keys are claimed at admission, so an identical
/// query arriving while the first is queued or running follows it instead
/// of enqueueing a duplicate, and a completed entry is served at submit
/// time without touching the queue. These followers never block: the
/// leader answers them when it publishes, and a follower whose own
/// deadline has passed by then gets kDeadlineExceeded. Plan and
/// registration followers block on the leader, plan followers only until
/// their own deadline. Failures are never cached. The result, summary and
/// plan tiers are epoch-aware: the first touch under a scenario's new
/// epoch (Replace, UpdateScenario, eviction) drops the older epochs' done
/// entries, and an outcome that completes under a superseded epoch
/// answers its followers but is not retained.
///
/// Every pipeline stage is bitwise-deterministic, so a served result is
/// bitwise-identical to a direct Pipeline::Run of the same query
/// regardless of worker count, cache state, or coalescing.
class QueryServer {
 public:
  /// Builds (or loads) a scenario for RegisterScenario. Runs on the
  /// calling thread, outside every server lock; may be arbitrarily
  /// expensive (grid materialization, CSV ingest).
  using ScenarioBuilder =
      std::function<Result<std::shared_ptr<const datagen::Scenario>>()>;

  /// `registry` is borrowed and must outlive the server. Non-const:
  /// UpdateScenario publishes new epochs through it. The server installs
  /// itself as the registry's eviction listener (cleared again on
  /// Shutdown), so a registry serves at most one QueryServer at a time.
  QueryServer(ScenarioRegistry* registry,
              QueryServerOptions options = QueryServerOptions());

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Shuts down (drains nothing: queued requests fail with kCancelled).
  ~QueryServer();

  /// Admits `query` and returns a future for its response. Never blocks
  /// on pipeline work; admission rejections (unknown scenario, invalid
  /// query, queue full) come back as already-satisfied futures carrying
  /// the non-OK status.
  std::future<QueryResponse> Submit(CdiQuery query);

  /// Submit + wait (the convenience used by tests and tools).
  QueryResponse Execute(CdiQuery query);

  /// Streaming row ingest through the serving layer: appends `row_batch`
  /// to the scenario (ScenarioRegistry::UpdateScenario — delta-refreshed
  /// statistics, fresh epoch). In-flight queries finish against the old
  /// snapshot; the next touch under the new epoch evicts the superseded
  /// cache entries.
  /// Records epoch_rollovers / rows_appended / update-latency metrics.
  Result<std::shared_ptr<const ScenarioBundle>> UpdateScenario(
      const std::string& name, const table::Table& row_batch);

  /// Runtime scenario registration with single-flight bundle
  /// construction: concurrent RegisterScenario calls for the same name
  /// run `build` exactly once — the first caller builds (outside all
  /// server locks) and publishes; the rest block and share its outcome
  /// (bundle or error). `replace=false` fails fast with kAlreadyExists
  /// when the name is live. Registration may evict LRU scenarios under a
  /// registry memory budget; the eviction listener sweeps their cache
  /// entries before this call returns. `default_options` seeds the
  /// bundle's per-query defaults; unset falls back to
  /// core::DefaultEvaluationOptions, which needs the scenario's
  /// ground-truth cluster DAG — file-loaded scenarios (no ground truth)
  /// must pass explicit options (plain PipelineOptions{} is fine).
  Result<std::shared_ptr<const ScenarioBundle>> RegisterScenario(
      const std::string& name, ScenarioBuilder build, bool replace = false,
      std::optional<core::PipelineOptions> default_options = std::nullopt);

  /// Removes a scenario at runtime. In-flight queries finish on their
  /// snapshots; the scenario's result/plan cache entries are swept, and
  /// subsequent queries get a descriptive kNotFound until the name is
  /// registered again. kNotFound when the name is not live.
  Status UnregisterScenario(const std::string& name);

  /// Counters plus current cache-size gauges (result_cache_entries /
  /// plan_cache_entries / summary_cache_entries, read under the server
  /// lock) and the registry's registration/eviction counters and byte
  /// gauges.
  MetricsSnapshot Metrics() const;

  /// Drops completed result and summary entries (pending flights stay —
  /// they carry followers). The scenario plan cache is untouched:
  /// plans are evicted by epoch supersession, and keeping them warm is
  /// what makes this the "result cache cold, C-DAG warm" benchmark knob.
  /// Returns the number of entries dropped.
  std::size_t InvalidateCache();

  /// Stops accepting work, fails queued requests and every follower with
  /// kCancelled, signals in-flight runs' cancel tokens, and joins the
  /// workers. Idempotent.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct Request;
  /// Result and summary tiers: followers are coalesced requests, answered
  /// when their leader publishes.
  using AnswerCache = SingleFlightCache<std::uint64_t, Payload, Request>;

  struct Request {
    CdiQuery query;
    std::shared_ptr<const ScenarioBundle> bundle;
    std::uint64_t key = 0;
    Clock::time_point submit_time;
    Clock::time_point deadline = Clock::time_point::max();  // max = none
    std::promise<QueryResponse> promise;
    /// Leaders only: the claimed flight their outcome publishes into.
    std::shared_ptr<AnswerCache::Flight> flight;
  };

  /// Admission-time validation against the bundle's shared statistics.
  Status ValidateQuery(const ScenarioBundle& bundle,
                       const CdiQuery& query) const;

  void WorkerLoop();
  /// Runs a leader, publishes its outcome and answers it and its
  /// followers.
  void ExecuteRequest(Request request);
  /// The leader's payload for its query mode.
  Result<Payload> Compute(const Request& request, CancelToken* token);

  AnswerCache& CacheFor(QueryMode mode) {
    return mode == QueryMode::kSummarize ? summaries_ : results_;
  }

  /// Records `epoch` as the latest for `scenario` and, when it supersedes
  /// an older one, sweeps every epoch-aware tier: done entries of older
  /// epochs are evicted (the stale-epoch leak fix: Replace'd bundles'
  /// results must not be retained forever). Caller holds mu_.
  void EvictStaleLocked(const std::string& scenario, std::uint64_t epoch);

  /// One pipeline run for `request`'s bundle and options on the given
  /// pair.
  Result<core::PipelineResult> RunPipeline(const Request& request,
                                           const std::string& exposure,
                                           const std::string& outcome,
                                           CancelToken* token) const;

  /// Resolves the scenario's C-DAG plan for a planned or summarize
  /// request through the plan tier: the first request builds the artifact
  /// (one full canonical-pair pipeline run + plan construction) on its
  /// worker; concurrent ones wait for it up to their own deadlines.
  Result<std::shared_ptr<const core::CdagPlan>> GetOrBuildPlan(
      const Request& request, CancelToken* token);

  /// Fulfills the request's promise with `outcome` and bumps the
  /// per-response counters.
  void Reply(Request* request, Result<Payload> outcome,
             ResponseSource source);

  ScenarioRegistry* registry_;
  QueryServerOptions options_;
  mutable ServerMetrics metrics_;

  /// Guards the queue, the four cache tiers, the active tokens and the
  /// stop flag.
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Request> queue_;
  /// Latest bundle epoch seen per scenario, shared by the three
  /// epoch-aware tiers.
  EpochTable epochs_;
  AnswerCache results_{/*retain=*/true, &epochs_, &metrics_.evicted_stale};
  AnswerCache summaries_{/*retain=*/true, &epochs_,
                         &metrics_.evicted_stale};
  /// Keyed by PlanCacheKey.
  SingleFlightCache<std::uint64_t, std::shared_ptr<const core::CdagPlan>>
      plans_{/*retain=*/true, &epochs_, &metrics_.evicted_stale};
  /// Keyed by scenario name.
  SingleFlightCache<std::string, std::shared_ptr<const ScenarioBundle>>
      registrations_{/*retain=*/false};
  /// Cancel tokens of currently-executing requests (for Shutdown).
  std::vector<CancelToken*> active_tokens_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Canonical cache key of a query against a bundle snapshot. Planned and
/// full answers to the same pair are distinct entries (the mode is mixed
/// into the key): they are different result types with different
/// listwise-deletion semantics. Summarize entries additionally mix the
/// node budget k, so each (scenario, epoch, k, options) summary is its
/// own single-flight entry; the render format is not mixed (both
/// renderings are cached together).
std::uint64_t QueryCacheKey(const ScenarioBundle& bundle,
                            const CdiQuery& query);

/// Canonical key of a scenario's C-DAG plan artifact: (scenario name,
/// epoch, options fingerprint) — one artifact per bundle snapshot per
/// semantic option set.
std::uint64_t PlanCacheKey(const ScenarioBundle& bundle,
                           const CdiQuery& query);

}  // namespace cdi::serve

#endif  // CDI_SERVE_QUERY_SERVER_H_
