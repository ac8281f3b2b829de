#include "serve/query_server.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace cdi::serve {

namespace {

/// The fingerprint of the options a query runs under.
std::uint64_t OptionsFingerprint(const ScenarioBundle& bundle,
                                 const CdiQuery& query) {
  return query.options.has_value()
             ? core::PipelineOptionsFingerprint(*query.options)
             : bundle.default_options_fingerprint;
}

/// Key of the epoch's candidate profile: PlanCacheKey's fields under its
/// own tag.
std::uint64_t ProfileCacheKey(const ScenarioBundle& bundle,
                              const CdiQuery& query) {
  return Fnv1a("cdi::serve::ProfileKey/v1")
      .Mix(bundle.name)
      .Mix(bundle.epoch)
      .Mix(OptionsFingerprint(bundle, query))
      .Digest();
}

}  // namespace

std::uint64_t QueryCacheKey(const ScenarioBundle& bundle,
                            const CdiQuery& query) {
  return Fnv1a("cdi::serve::QueryKey/v1")
      .Mix(bundle.name)
      .Mix(bundle.epoch)
      .Mix(query.exposure)
      .Mix(query.outcome)
      .Mix(static_cast<std::uint64_t>(query.mode))
      .Mix(static_cast<std::uint64_t>(query.summarize_k))
      .Mix(OptionsFingerprint(bundle, query))
      .Digest();
}

std::uint64_t PlanCacheKey(const ScenarioBundle& bundle,
                           const CdiQuery& query) {
  return Fnv1a("cdi::serve::PlanKey/v1")
      .Mix(bundle.name)
      .Mix(bundle.epoch)
      .Mix(OptionsFingerprint(bundle, query))
      .Digest();
}

QueryServer::QueryServer(ScenarioRegistry* registry,
                         QueryServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.pipeline_threads < 1) options_.pipeline_threads = 1;
  // Registry evictions (memory budget or unregister) sweep the departed
  // scenario's cache entries through the ordinary stale-epoch path: the
  // eviction epoch is stamped above every epoch the scenario published,
  // so EvictStaleLocked retires exactly its entries — and refuses to
  // retain results of in-flight queries that complete after the
  // eviction. The registry fires the listener outside its shard locks;
  // the only lock taken inside is mu_, and no QueryServer path calls
  // into the registry while holding mu_, so the order is acyclic.
  registry_->SetEvictionListener(
      [this](const std::string& name, std::uint64_t eviction_epoch) {
        std::lock_guard<std::mutex> lock(mu_);
        EvictStaleLocked(name, eviction_epoch);
      });
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::ValidateQuery(const ScenarioBundle& bundle,
                                  const CdiQuery& query) const {
  if (query.mode == QueryMode::kSummarize) {
    // Summaries are per-scenario, not per-pair: the exposure/outcome
    // checks below do not apply. The budget floor is checked here (O(1),
    // before the queue); the ceiling needs the built C-DAG's node count
    // and is checked at execution by Summarize itself.
    if (query.summarize_k < 2) {
      return Status::InvalidArgument(
          "summary budget k must be at least 2 (got " +
          std::to_string(query.summarize_k) + ")");
    }
    if (query.summarize_format != "dot" && query.summarize_format != "json") {
      return Status::InvalidArgument("bad summary format '" +
                                     query.summarize_format +
                                     "' (expected dot|json)");
    }
    return Status::OK();
  }
  // The entity column can never be an exposure or outcome — it is the
  // join key, not a variable. Rejecting it here (O(1), before the queue)
  // keeps such queries from occupying a slot and a worker only to fail
  // inside Pipeline::Run's validation.
  const std::string& entity = bundle.scenario->spec.entity_column;
  const auto entity_check = [&](const char* role,
                                const std::string& attr) -> Status {
    if (attr == entity) {
      return Status::InvalidArgument(
          std::string(role) + " '" + attr + "' is the entity column of " +
          "scenario '" + bundle.name + "', not a variable");
    }
    return Status::OK();
  };
  CDI_RETURN_IF_ERROR(entity_check("exposure", query.exposure));
  CDI_RETURN_IF_ERROR(entity_check("outcome", query.outcome));
  const auto check = [&bundle](const char* role,
                               const std::string& attr) -> Status {
    const std::size_t idx = bundle.NumericIndex(attr);
    if (idx == ScenarioBundle::kNotNumeric) {
      std::string msg = std::string(role) + " '" + attr +
                        "' is not a numeric attribute of scenario '" +
                        bundle.name + "' (available:";
      for (const auto& a : bundle.numeric_attributes) msg += " " + a;
      msg += ")";
      return Status::InvalidArgument(std::move(msg));
    }
    // The shared per-dataset sufficient statistics make this check O(1):
    // a zero diagonal entry of S means the column is constant over the
    // complete rows, which no effect estimate can use.
    if (bundle.input_stats != nullptr &&
        bundle.input_stats->cross_products()(idx, idx) <= 0.0) {
      return Status::InvalidArgument(
          std::string(role) + " '" + attr + "' has no variance in scenario '" +
          bundle.name + "'");
    }
    return Status::OK();
  };
  CDI_RETURN_IF_ERROR(check("exposure", query.exposure));
  CDI_RETURN_IF_ERROR(check("outcome", query.outcome));
  if (query.exposure == query.outcome) {
    return Status::InvalidArgument(
        "exposure and outcome must be distinct (both '" + query.exposure +
        "')");
  }
  return Status::OK();
}

void QueryServer::Reply(Request* request, Result<Payload> outcome,
                        ResponseSource source) {
  QueryResponse response;
  if (outcome.ok()) {
    response.payload = *std::move(outcome);
    response.source = source;
  } else {
    response.status = outcome.status();
  }
  response.cache_key = request->key;
  response.scenario_epoch =
      request->bundle != nullptr ? request->bundle->epoch : 0;
  response.latency_seconds =
      std::chrono::duration<double>(Clock::now() - request->submit_time)
          .count();
  metrics_.RecordResponse(response.status, response.latency_seconds);
  request->promise.set_value(std::move(response));
}

std::future<QueryResponse> QueryServer::Submit(CdiQuery query) {
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  Request request;
  request.query = std::move(query);
  const CdiQuery& q = request.query;
  request.submit_time = Clock::now();
  std::future<QueryResponse> future = request.promise.get_future();

  // Resolve + validate outside the server lock (registry has its own).
  auto bundle_or = registry_->Snapshot(q.scenario);
  if (!bundle_or.ok()) {
    Reply(&request, bundle_or.status(), ResponseSource::kError);
    return future;
  }
  request.bundle = *std::move(bundle_or);
  if (Status v = ValidateQuery(*request.bundle, q); !v.ok()) {
    Reply(&request, std::move(v), ResponseSource::kError);
    return future;
  }

  request.key = QueryCacheKey(*request.bundle, q);
  if (q.timeout_seconds > 0.0) {
    request.deadline =
        request.submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(q.timeout_seconds));
  }

  AnswerCache::Claim claim;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
      Reply(&request, Status::Cancelled("server is shut down"),
            ResponseSource::kError);
      return future;
    }
    // Touching a scenario under a fresh epoch evicts every done entry of
    // the superseded epochs — registry Replace + next touch bounds the
    // caches without a flush call.
    EvictStaleLocked(q.scenario, request.bundle->epoch);
    AnswerCache& cache = CacheFor(q.mode);
    claim = cache.Acquire(request.key, q.scenario, request.bundle->epoch);
    switch (claim.role) {
      case FlightRole::kHit:
        break;  // respond unlocked
      case FlightRole::kFollow:
        // Single-flight: the leader answers this request. No queue slot.
        metrics_.coalesced.fetch_add(1, std::memory_order_relaxed);
        claim.flight->followers.push_back(std::move(request));
        return future;
      case FlightRole::kLead:
        if (queue_.size() >= options_.max_queue_depth) {
          // Load shedding: give the fresh claim up as a failure (it has
          // no followers yet), so the key stays uncached.
          Status full = Status::ResourceExhausted(
              "admission queue is full (depth " +
              std::to_string(options_.max_queue_depth) + ")");
          cache.Publish(claim.flight, full);
          lock.unlock();
          Reply(&request, std::move(full), ResponseSource::kError);
          return future;
        }
        // The claim is pending from now on, so identical queries follow
        // it; enqueue the leader.
        request.flight = std::move(claim.flight);
        queue_.push_back(std::move(request));
        metrics_.ObserveQueueDepth(queue_.size());
        work_ready_.notify_one();
        return future;
    }
  }

  // Completed-entry cache hit: serve without a worker.
  metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  Reply(&request, std::move(claim.value), ResponseSource::kCacheHit);
  return future;
}

QueryResponse QueryServer::Execute(CdiQuery query) {
  return Submit(std::move(query)).get();
}

Result<std::shared_ptr<const ScenarioBundle>> QueryServer::UpdateScenario(
    const std::string& name, const table::Table& row_batch) {
  const Clock::time_point start = Clock::now();

  auto updated = registry_->UpdateScenario(name, row_batch);
  if (!updated.ok()) return updated;

  metrics_.epoch_rollovers.fetch_add(1, std::memory_order_relaxed);
  metrics_.rows_appended.fetch_add(row_batch.num_rows(),
                                   std::memory_order_relaxed);
  metrics_.update_latency.Record(
      std::chrono::duration<double>(Clock::now() - start).count());
  return updated;
}

Result<std::shared_ptr<const ScenarioBundle>> QueryServer::RegisterScenario(
    const std::string& name, ScenarioBuilder build, bool replace,
    std::optional<core::PipelineOptions> default_options) {
  if (!build) {
    return Status::InvalidArgument("RegisterScenario needs a builder");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Cancelled("server is shut down");
  }
  // Single-flight: concurrent callers for the same name share the first
  // one's outcome (bundle or error) instead of materializing a duplicate.
  // The leader builds outside all server locks. The registry re-checks
  // name collisions atomically at publish, so the fast-path existence
  // check here is just to skip an expensive build.
  const auto publish =
      [&]() -> Result<std::shared_ptr<const ScenarioBundle>> {
    if (!replace && registry_->Snapshot(name).ok()) {
      return Status::AlreadyExists("scenario '" + name +
                                   "' is already registered");
    }
    auto scenario = build();
    if (!scenario.ok()) {
      return Status(scenario.status().code(),
                    "building scenario '" + name +
                        "': " + scenario.status().message());
    }
    if (*scenario == nullptr) {
      return Status::InvalidArgument("builder for scenario '" + name +
                                     "' returned null");
    }
    return replace ? registry_->Replace(name, *std::move(scenario),
                                        std::move(default_options))
                   : registry_->Register(name, *std::move(scenario),
                                         std::move(default_options));
  };
  return registrations_.GetOrCompute(mu_, name, publish);
}

Status QueryServer::UnregisterScenario(const std::string& name) {
  // The registry stamps the eviction epoch and fires the listener, which
  // sweeps the scenario's cache entries under mu_ before Unregister
  // returns.
  return registry_->Unregister(name);
}

void QueryServer::WorkerLoop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // Shutdown already drained the queue
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteRequest(std::move(request));
  }
}

void QueryServer::ExecuteRequest(Request request) {
  CancelToken token;
  if (request.deadline != Clock::time_point::max()) {
    token.set_deadline(request.deadline);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_tokens_.push_back(&token);
    // Raced with Shutdown after being popped: Shutdown's token sweep
    // missed this request, so deliver the cancellation here.
    if (stopping_) token.Cancel();
  }

  Result<Payload> outcome = Compute(request, &token);

  // Publish: a failed run evicts its claim (it must never poison the
  // cache) and reaches every follower along with the leader.
  std::vector<Request> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_tokens_.erase(
        std::remove(active_tokens_.begin(), active_tokens_.end(), &token),
        active_tokens_.end());
    followers = CacheFor(request.query.mode).Publish(request.flight, outcome);
  }
  if (outcome.ok()) {
    metrics_.executions.fetch_add(1, std::memory_order_relaxed);
  }
  for (Request& follower : followers) {
    // A follower's deadline covers its wait on the leader too.
    if (Clock::now() > follower.deadline) {
      Reply(&follower,
            Status::DeadlineExceeded(
                "deadline expired while waiting for an identical in-flight "
                "query"),
            ResponseSource::kError);
    } else {
      Reply(&follower, outcome, ResponseSource::kCoalesced);
    }
  }
  Reply(&request, std::move(outcome), ResponseSource::kExecuted);
}

Result<Payload> QueryServer::Compute(const Request& request,
                                     CancelToken* token) {
  // The deadline covers queueing: a request that waited past it fails
  // here without burning pipeline work.
  CDI_RETURN_IF_ERROR(token->Check());

  if (options_.pre_execute_hook) options_.pre_execute_hook();

  switch (request.query.mode) {
    case QueryMode::kSummarize: {
      // Summarize path: the scenario's cached C-DAG plan supplies the
      // graph (shared single-flight with planned queries — the expensive
      // pipeline run happens at most once per scenario epoch), then the
      // greedy merge pass runs to the requested budget and both
      // renderings are built once. Everything after the plan lookup is a
      // pure deterministic function of the artifact and k.
      CDI_ASSIGN_OR_RETURN(auto plan, GetOrBuildPlan(request, token));
      const Clock::time_point build_start = Clock::now();
      summarize::SummarizeOptions sopts;
      sopts.budget = request.query.summarize_k;
      CDI_ASSIGN_OR_RETURN(
          auto built,
          summarize::SummarizeClusterDag(plan->artifact().build.cdag, sopts));
      auto artifact = std::make_shared<SummaryArtifact>();
      artifact->summary =
          std::make_shared<const summarize::SummaryDag>(std::move(built));
      artifact->dot = artifact->summary->ToDot();
      artifact->json = artifact->summary->ToJson();
      metrics_.summary_builds.fetch_add(1, std::memory_order_relaxed);
      metrics_.summary_latency.Record(
          std::chrono::duration<double>(Clock::now() - build_start).count());
      return Payload(std::shared_ptr<const SummaryArtifact>(
          std::move(artifact)));
    }
    case QueryMode::kPlanned: {
      // Planned path: answer off the scenario's cached C-DAG plan — the
      // first planned query builds it (single-flight); every subsequent
      // pair is identification + linear algebra on the shared statistics.
      CDI_ASSIGN_OR_RETURN(auto plan, GetOrBuildPlan(request, token));
      CDI_ASSIGN_OR_RETURN(auto answer,
                           plan->AnswerPair(request.query.exposure,
                                            request.query.outcome));
      return Payload(
          std::make_shared<const core::PairAnswer>(std::move(answer)));
    }
    case QueryMode::kFull:
      break;
  }
  CDI_ASSIGN_OR_RETURN(auto run,
                       RunPipeline(request, request.query.exposure,
                                   request.query.outcome, token));
  return Payload(std::make_shared<const core::PipelineResult>(std::move(run)));
}

Result<core::PipelineResult> QueryServer::RunPipeline(
    const Request& request, const std::string& exposure,
    const std::string& outcome, CancelToken* token) {
  core::PipelineOptions pipeline_options =
      request.query.options.has_value() ? *request.query.options
                                        : request.bundle->default_options;
  pipeline_options.num_threads = options_.pipeline_threads;
  const datagen::Scenario& sc = *request.bundle->scenario;
  // The bundle's live table, not the scenario's original: after an
  // UpdateScenario rollover they differ, and the epoch in the cache keys
  // refers to the former.
  const table::Table& input = *request.bundle->input;
  // Extraction's per-table half, once per (scenario, epoch, options): a
  // build that fails or is cancelled is not retained, and one whose epoch
  // was superseded while it ran is dropped like any stale outcome.
  const auto build =
      [&]() -> Result<std::shared_ptr<const core::CandidateProfile>> {
    CDI_RETURN_IF_ERROR(token->Check());
    const core::KnowledgeExtractor extractor(&sc.kg, &sc.lake,
                                             pipeline_options.extractor);
    CDI_ASSIGN_OR_RETURN(
        auto profile, extractor.ExtractCandidates(input, sc.spec.entity_column));
    metrics_.profile_builds.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const core::CandidateProfile>(std::move(profile));
  };
  CDI_ASSIGN_OR_RETURN(
      auto profile,
      profiles_.GetOrCompute(mu_, ProfileCacheKey(*request.bundle,
                                                  request.query),
                             build, request.query.scenario,
                             request.bundle->epoch, request.deadline));
  core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                          pipeline_options);
  return pipeline.Run(input, sc.spec.entity_column, exposure, outcome, token,
                      profile.get());
}

Result<std::shared_ptr<const core::CdagPlan>> QueryServer::GetOrBuildPlan(
    const Request& request, CancelToken* token) {
  // The artifact is the full pipeline result for the scenario's canonical
  // exposure/outcome pair — built once per (scenario, epoch, options),
  // then shared by every planned pair query.
  const auto build = [&]() -> Result<std::shared_ptr<const core::CdagPlan>> {
    const datagen::Scenario& sc = *request.bundle->scenario;
    CDI_ASSIGN_OR_RETURN(auto run,
                         RunPipeline(request, sc.exposure_attribute,
                                     sc.outcome_attribute, token));
    CDI_ASSIGN_OR_RETURN(auto plan,
                         core::CdagPlan::Build(
                             std::make_shared<const core::PipelineResult>(
                                 std::move(run))));
    metrics_.plan_builds.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const core::CdagPlan>(std::move(plan));
  };
  // Concurrent requests wait for the leader's build, each up to its own
  // deadline (the build keeps going: a follower timing out must not evict
  // it). A failed build reaches the current followers and is evicted, so
  // the next planned query rebuilds cleanly; so is a build whose epoch was
  // superseded while it ran.
  return plans_.GetOrCompute(mu_, PlanCacheKey(*request.bundle, request.query),
                             build, request.query.scenario,
                             request.bundle->epoch, request.deadline);
}

void QueryServer::EvictStaleLocked(const std::string& scenario,
                                   std::uint64_t epoch) {
  if (!epochs_.Advance(scenario, epoch)) return;  // nothing newly stale
  results_.Sweep(scenario, epoch);
  summaries_.Sweep(scenario, epoch);
  plans_.Sweep(scenario, epoch);
  profiles_.Sweep(scenario, epoch);
}

MetricsSnapshot QueryServer::Metrics() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Summaries count as result-cache entries too (they are answers).
    snap.summary_cache_entries = summaries_.size();
    snap.result_cache_entries = results_.size() + summaries_.size();
    snap.plan_cache_entries = plans_.size();
    snap.profile_cache_entries = profiles_.size();
  }
  const RegistryStats registry = registry_->Stats();
  snap.scenarios_registered = registry.scenarios_registered;
  snap.scenarios_evicted = registry.scenarios_evicted;
  snap.scenarios_unregistered = registry.scenarios_unregistered;
  snap.registry_bytes = registry.registry_bytes;
  snap.registry_scenarios = registry.scenarios;
  snap.shard_bytes.assign(registry.shard_bytes.begin(),
                          registry.shard_bytes.end());
  return snap;
}

std::size_t QueryServer::InvalidateCache() {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.DropDone() + summaries_.DropDone();
}

void QueryServer::Shutdown() {
  // Detach from the registry first: after this returns, no eviction can
  // call back into a server that is tearing down. SetEvictionListener
  // serializes with in-flight listener calls, and mu_ is not held here,
  // so the listener's listener_mu_ -> mu_ order cannot deadlock.
  registry_->SetEvictionListener(nullptr);
  const Status shutdown = Status::Cancelled("server shutting down");
  std::deque<Request> dropped;
  std::vector<Request> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    dropped.swap(queue_);
    for (CancelToken* token : active_tokens_) token->Cancel();
    work_ready_.notify_all();
    // Every follower of every tier wakes as cancelled; leaders still
    // running publish into their aborted flights as no-ops.
    followers = results_.Abort(shutdown);
    for (Request& r : summaries_.Abort(shutdown)) {
      followers.push_back(std::move(r));
    }
    plans_.Abort(shutdown);
    profiles_.Abort(shutdown);
    registrations_.Abort(shutdown);
  }
  for (Request& request : dropped) {
    Reply(&request, shutdown, ResponseSource::kError);
  }
  for (Request& follower : followers) {
    Reply(&follower, shutdown, ResponseSource::kError);
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace cdi::serve
