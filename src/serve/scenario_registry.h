#ifndef CDI_SERVE_SCENARIO_REGISTRY_H_
#define CDI_SERVE_SCENARIO_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "datagen/scenario.h"
#include "stats/sufficient_stats.h"

namespace cdi::serve {

/// One registered, fully materialized scenario: the analyst-facing input
/// table plus every knowledge source the pipeline consults, preloaded once
/// and shared read-only by all queries against it.
///
/// A bundle is immutable after registration — the query server hands
/// `shared_ptr<const ScenarioBundle>` snapshots to requests, so a bundle
/// that is replaced in (or evicted from) the registry stays alive (and
/// consistent) for every in-flight query that already resolved it.
struct ScenarioBundle {
  std::string name;
  /// Monotonic registration stamp, unique across the registry's lifetime.
  /// The result cache keys on it, so replacing a scenario under the same
  /// name implicitly invalidates every cached result for the old data
  /// (old entries simply stop being reachable).
  std::uint64_t epoch = 0;
  /// The immutable scenario assets (KG, lake, oracle, topics — plus the
  /// *original* input table). Shared across epochs: UpdateScenario bundles
  /// reuse the same scenario object and only replace `input`. Declared
  /// before the members below that borrow from it: C++ destroys in
  /// reverse declaration order, so borrowers die first.
  std::shared_ptr<const datagen::Scenario> scenario;
  /// The live input table of *this epoch* — what queries run against.
  /// Freshly registered bundles alias `scenario->input_table`; bundles
  /// published by UpdateScenario own a grown copy (the previous epoch's
  /// table, and every span borrowed from it, stays untouched for
  /// in-flight queries). Never null after registration.
  std::shared_ptr<const table::Table> input;
  /// Options applied to queries that do not carry their own (defaults to
  /// core::DefaultEvaluationOptions for the scenario).
  core::PipelineOptions default_options;
  /// Fingerprint of `default_options` (precomputed; on the cache-hit path
  /// the key must not cost a full options walk).
  std::uint64_t default_options_fingerprint = 0;
  /// Shared sufficient statistics (means / covariance / complete-row mask)
  /// over the input table's numeric columns — computed once per dataset at
  /// registration. Serving uses it for admission-time query validation
  /// (exposure/outcome must be numeric with nonzero variance) without
  /// touching a worker; it is also the natural seed for future
  /// statistics reuse across requests. Spans borrow from `scenario`.
  std::shared_ptr<const stats::SufficientStats> input_stats;
  /// Input-table numeric columns (query exposure/outcome candidates), in
  /// schema order, paired with their index into `input_stats`.
  std::vector<std::string> numeric_attributes;
  /// Rows appended by the UpdateScenario that published this bundle
  /// (0 for Register/Replace bundles).
  std::size_t rows_appended = 0;
  /// Deterministic resident-byte estimate of this bundle (see
  /// EstimateBundleBytes), fixed at publication. The registry's memory
  /// budget charges exactly this number, so the accounting invariant
  /// `registry_bytes == sum of live bundles' memory_bytes` is testable.
  std::size_t memory_bytes = 0;

  /// Index of `attribute` in `numeric_attributes` / `input_stats`, or
  /// npos when the column is missing or non-numeric.
  static constexpr std::size_t kNotNumeric = static_cast<std::size_t>(-1);
  std::size_t NumericIndex(const std::string& attribute) const;
};

/// Deterministic estimate of a bundle's resident heap bytes: the live
/// input table's buffers (Table::ByteSize — content-based, no capacity
/// slack), the sufficient-statistics accumulators, the attribute name
/// list, and the data lake's join index (DataLake::IndexBytes), which the
/// lake builds at load time so extraction never rescans it. The KG, the
/// lake's own tables and the oracle are not counted. Every epoch of a
/// scenario shares one lake, and the registry holds one bundle per name,
/// so the index is charged once per live scenario.
std::size_t EstimateBundleBytes(const ScenarioBundle& bundle);

struct RegistryOptions {
  /// Shards (>= 1); names map to shards by hash. More shards means less
  /// mutex contention for concurrent lookups of different scenarios.
  std::size_t num_shards = 8;
  /// Total memory budget over all shards, in bytes; 0 = unlimited. Each
  /// shard enforces budget/num_shards with LRU eviction: registering or
  /// growing a bundle past the budget evicts the shard's least recently
  /// used scenarios (never the one just published). Evicted scenarios
  /// answer Snapshot with a descriptive kNotFound until re-registered.
  std::size_t memory_budget_bytes = 0;
};

/// Aggregate registry counters and gauges (see ScenarioRegistry::Stats).
struct RegistryStats {
  /// Successful Register / Replace / re-register publications.
  std::uint64_t scenarios_registered = 0;
  /// Scenarios dropped by the memory budget.
  std::uint64_t scenarios_evicted = 0;
  /// Scenarios removed by Unregister.
  std::uint64_t scenarios_unregistered = 0;
  /// Live byte charge / scenario count, total and per shard.
  std::size_t registry_bytes = 0;
  std::size_t scenarios = 0;
  std::vector<std::size_t> shard_bytes;
  std::vector<std::size_t> shard_scenarios;
};

/// Thread-safe name -> bundle map with snapshot semantics, sharded by
/// name hash with an optional byte-accounted LRU memory budget.
///
/// Readers (`Snapshot`) and writers (`Register` / `Replace` /
/// `Unregister`) synchronize on the owning shard's mutex, held only for
/// the map operation itself — bundle construction (scenario
/// materialization + sufficient statistics) happens outside any lock, and
/// lookups return a shared_ptr copy, so the serving hot path never blocks
/// behind a registration, and lookups of scenarios on different shards
/// never contend at all.
///
/// Removal (eviction or unregistration) stamps a fresh epoch — the
/// "eviction epoch" — strictly above every epoch the scenario ever
/// published, and reports it through the eviction listener. Layered
/// caches keyed on (scenario, epoch) retire everything below it, and a
/// later re-registration gets a higher epoch still, so stale entries can
/// never be served across an evict/re-register cycle.
class ScenarioRegistry {
 public:
  /// Fired on every eviction or unregistration, outside all shard locks:
  /// (scenario name, eviction epoch). Serialized: listener calls never
  /// overlap. The query server uses it to sweep result/plan cache
  /// entries for the departed scenario.
  using EvictionListener =
      std::function<void(const std::string& name, std::uint64_t epoch)>;

  explicit ScenarioRegistry(RegistryOptions options = {});

  ScenarioRegistry(const ScenarioRegistry&) = delete;
  ScenarioRegistry& operator=(const ScenarioRegistry&) = delete;

  /// Installs (or, with nullptr, clears) the eviction listener. The
  /// caller must clear the listener before destroying whatever it
  /// captures; SetEvictionListener(nullptr) returns only after any
  /// in-flight listener call has finished.
  void SetEvictionListener(EvictionListener listener);

  /// Registers `scenario` under `name`. kAlreadyExists when the name is
  /// taken (use Replace to swap). `default_options` falls back to
  /// core::DefaultEvaluationOptions(*scenario). The shared_ptr overloads
  /// allow one materialized scenario to back many names (the bundle only
  /// ever reads it).
  Result<std::shared_ptr<const ScenarioBundle>> Register(
      const std::string& name,
      std::unique_ptr<const datagen::Scenario> scenario,
      std::optional<core::PipelineOptions> default_options = std::nullopt);
  Result<std::shared_ptr<const ScenarioBundle>> Register(
      const std::string& name,
      std::shared_ptr<const datagen::Scenario> scenario,
      std::optional<core::PipelineOptions> default_options = std::nullopt);

  /// Like Register but allowed to overwrite; the new bundle gets a fresh
  /// epoch, so cached results for the old bundle can never be served for
  /// the new one. In-flight queries holding the old snapshot finish
  /// against the old data.
  Result<std::shared_ptr<const ScenarioBundle>> Replace(
      const std::string& name,
      std::unique_ptr<const datagen::Scenario> scenario,
      std::optional<core::PipelineOptions> default_options = std::nullopt);
  Result<std::shared_ptr<const ScenarioBundle>> Replace(
      const std::string& name,
      std::shared_ptr<const datagen::Scenario> scenario,
      std::optional<core::PipelineOptions> default_options = std::nullopt);

  /// Removes `name`, stamping an eviction epoch and firing the listener.
  /// In-flight queries holding the bundle finish on their snapshots; a
  /// subsequent Snapshot reports kNotFound ("unregistered") until the
  /// name is registered again. kNotFound when not currently registered.
  Status Unregister(const std::string& name);

  /// Streaming row ingest: appends `row_batch` (schema must match the
  /// scenario's input table — see Table::AppendRows) to the scenario's
  /// live input table and republishes it under a fresh epoch. The new
  /// bundle shares the immutable scenario assets with the previous epoch
  /// and owns the grown table copy; its sufficient statistics are
  /// delta-refreshed via SufficientStats::AppendRows (bitwise what a
  /// fresh Compute over the grown table yields) instead of recomputed
  /// from scratch. In-flight queries holding the old snapshot keep
  /// observing the old table and statistics; the epoch bump makes the
  /// query server's stale-epoch eviction retire superseded cache
  /// entries, exactly as for Replace.
  ///
  /// kNotFound when unregistered (or evicted meanwhile); kInvalidArgument
  /// on schema mismatch or an empty batch; kAborted when the scenario was
  /// concurrently replaced while the delta was being prepared (retry with
  /// a fresh snapshot).
  Result<std::shared_ptr<const ScenarioBundle>> UpdateScenario(
      const std::string& name, const table::Table& row_batch);

  /// Current bundle for `name`. kNotFound when unregistered, with a
  /// message that says *why* the name is gone when it used to be live
  /// ("evicted by the memory budget" vs "unregistered"). Under a memory
  /// budget a hit also freshens the scenario's LRU position.
  Result<std::shared_ptr<const ScenarioBundle>> Snapshot(
      const std::string& name) const;

  /// Registered names, sorted — deterministic for any shard count.
  std::vector<std::string> Names() const;

  std::size_t size() const;

  /// Point-in-time counters and byte gauges (per shard and total).
  RegistryStats Stats() const;

  const RegistryOptions& options() const { return options_; }

 private:
  struct Shard {
    struct Entry {
      std::shared_ptr<const ScenarioBundle> bundle;
      /// Position in `lru` (stable across list splices).
      std::list<std::string>::iterator lru_it;
    };
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
    /// Front = most recently used. Maintained only under a memory budget.
    mutable std::list<std::string> lru;
    std::size_t bytes = 0;
    /// Why a formerly live name is gone (cleared on re-register).
    std::map<std::string, std::string> evicted_reason;
  };

  Shard& ShardFor(const std::string& name) const;

  Result<std::shared_ptr<const ScenarioBundle>> Insert(
      const std::string& name,
      std::shared_ptr<const datagen::Scenario> scenario,
      std::optional<core::PipelineOptions> default_options,
      bool allow_replace);

  /// Publishes `bundle` into `shard` under its lock: stamps the epoch,
  /// adjusts the byte charge, freshens LRU, enforces the budget (never
  /// evicting `bundle` itself), and appends evictions to `evicted`.
  void PublishLocked(Shard& shard, const std::string& name,
                     std::shared_ptr<ScenarioBundle> bundle,
                     std::vector<std::pair<std::string, std::uint64_t>>*
                         evicted);

  /// Drops LRU-tail scenarios while the shard is over its budget slice,
  /// skipping `keep` (the entry just published).
  void EnforceBudgetLocked(Shard& shard, const std::string& keep,
                           std::vector<std::pair<std::string, std::uint64_t>>*
                               evicted);

  /// Runs the listener for each (name, eviction epoch), outside shard
  /// locks but under listener_mu_ (serialized with SetEvictionListener).
  void NotifyEvicted(
      const std::vector<std::pair<std::string, std::uint64_t>>& evicted);

  const RegistryOptions options_;
  const std::size_t per_shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_epoch_{1};

  std::atomic<std::uint64_t> registered_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> unregistered_{0};

  mutable std::mutex listener_mu_;
  EvictionListener listener_;
};

}  // namespace cdi::serve

#endif  // CDI_SERVE_SCENARIO_REGISTRY_H_
