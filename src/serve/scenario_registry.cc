#include "serve/scenario_registry.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/hash.h"
#include "core/evaluation.h"
#include "table/column.h"

namespace cdi::serve {

std::size_t ScenarioBundle::NumericIndex(const std::string& attribute) const {
  for (std::size_t i = 0; i < numeric_attributes.size(); ++i) {
    if (numeric_attributes[i] == attribute) return i;
  }
  return kNotNumeric;
}

namespace {

/// Rejects ±inf in any double column of `t`. NaN keeps meaning "missing",
/// but an infinite cell has no such reading: it would poison every
/// statistic it enters and turn each answer for its attribute into zeros.
/// Rows are 0-based within `t`.
Status CheckFiniteCells(const table::Table& t, const std::string& context) {
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const table::Column& col = t.ColumnAt(c);
    if (col.type() != table::DataType::kDouble) continue;
    const DoubleSpan cells = col.View();
    for (std::size_t r = 0; r < cells.size(); ++r) {
      if (std::isinf(cells[r])) {
        return Status::InvalidArgument(
            context + ": column '" + col.name() + "' row " +
            std::to_string(r) + " is " + std::to_string(cells[r]) +
            "; numeric cells must be finite (an empty cell means missing)");
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::size_t EstimateBundleBytes(const ScenarioBundle& bundle) {
  std::size_t bytes = sizeof(ScenarioBundle) + bundle.name.size();
  if (bundle.input != nullptr) bytes += bundle.input->ByteSize();
  if (bundle.input_stats != nullptr) {
    const std::size_t p = bundle.input_stats->num_vars();
    const std::size_t n = bundle.input_stats->num_rows();
    // means + column sums + per-variable weights (p doubles each), the
    // p x p cross-product matrix, and the complete-row mask (byte/row).
    bytes += (3 * p + p * p) * sizeof(double) + n;
  }
  for (const auto& a : bundle.numeric_attributes) {
    bytes += a.size() + sizeof(std::string);
  }
  if (bundle.scenario != nullptr) bytes += bundle.scenario->lake.IndexBytes();
  return bytes;
}

ScenarioRegistry::ScenarioRegistry(RegistryOptions options)
    : options_([&options] {
        if (options.num_shards == 0) options.num_shards = 1;
        return options;
      }()),
      per_shard_budget_(
          options_.memory_budget_bytes == 0
              ? 0
              : std::max<std::size_t>(
                    1, options_.memory_budget_bytes / options_.num_shards)) {
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ScenarioRegistry::SetEvictionListener(EvictionListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

ScenarioRegistry::Shard& ScenarioRegistry::ShardFor(
    const std::string& name) const {
  Fnv1a hasher("cdi.registry.shard");
  hasher.Mix(name);
  return *shards_[hasher.Digest() % shards_.size()];
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Register(
    const std::string& name,
    std::unique_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options) {
  return Insert(name, std::shared_ptr<const datagen::Scenario>(
                          std::move(scenario)),
                std::move(default_options), /*allow_replace=*/false);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Register(
    const std::string& name,
    std::shared_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options) {
  return Insert(name, std::move(scenario), std::move(default_options),
                /*allow_replace=*/false);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Replace(
    const std::string& name,
    std::unique_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options) {
  return Insert(name, std::shared_ptr<const datagen::Scenario>(
                          std::move(scenario)),
                std::move(default_options), /*allow_replace=*/true);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Replace(
    const std::string& name,
    std::shared_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options) {
  return Insert(name, std::move(scenario), std::move(default_options),
                /*allow_replace=*/true);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Insert(
    const std::string& name,
    std::shared_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options,
    bool allow_replace) {
  if (name.empty()) {
    return Status::InvalidArgument("scenario name must be non-empty");
  }
  if (scenario == nullptr) {
    return Status::InvalidArgument("scenario must be non-null");
  }

  if (Status s = CheckFiniteCells(scenario->input_table,
                                  "registering scenario '" + name + "'");
      !s.ok()) {
    return s;
  }

  // Build the bundle outside all locks; only the map publish is
  // serialized (and only on the owning shard).
  auto bundle = std::make_shared<ScenarioBundle>();
  bundle->name = name;
  bundle->scenario = std::move(scenario);
  // Fresh registrations serve the scenario's own table; the aliasing
  // constructor keeps the scenario alive through `input` without a copy.
  bundle->input = std::shared_ptr<const table::Table>(
      bundle->scenario, &bundle->scenario->input_table);
  bundle->default_options =
      default_options.has_value()
          ? *std::move(default_options)
          : core::DefaultEvaluationOptions(*bundle->scenario);
  bundle->default_options_fingerprint =
      core::PipelineOptionsFingerprint(bundle->default_options);

  // Shared per-dataset sufficient statistics over the input table's
  // numeric columns. Spans borrow the table's buffers; the bundle keeps
  // the scenario alive for as long as any query holds the snapshot.
  const table::Table& input = *bundle->input;
  stats::NumericDataset ds;
  for (std::size_t c = 0; c < input.num_cols(); ++c) {
    const table::Column& col = input.ColumnAt(c);
    if (col.type() == table::DataType::kString) continue;
    if (col.name() == bundle->scenario->spec.entity_column) continue;
    bundle->numeric_attributes.push_back(col.name());
    ds.columns.push_back(col.View());
  }
  if (!ds.columns.empty()) {
    auto stats = stats::SufficientStats::Compute(ds);
    if (!stats.ok()) {
      return Status(stats.status().code(),
                    "registering scenario '" + name +
                        "': " + stats.status().message());
    }
    bundle->input_stats = std::make_shared<const stats::SufficientStats>(
        *std::move(stats));
  }
  bundle->memory_bytes = EstimateBundleBytes(*bundle);

  std::shared_ptr<const ScenarioBundle> out;
  std::vector<std::pair<std::string, std::uint64_t>> evicted;
  {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!allow_replace && shard.entries.count(name) != 0) {
      return Status::AlreadyExists("scenario '" + name +
                                   "' is already registered");
    }
    out = bundle;
    PublishLocked(shard, name, std::move(bundle), &evicted);
  }
  registered_.fetch_add(1, std::memory_order_relaxed);
  NotifyEvicted(evicted);
  return out;
}

Status ScenarioRegistry::Unregister(const std::string& name) {
  std::uint64_t eviction_epoch = 0;
  {
    Shard& shard = ShardFor(name);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(name);
    if (it == shard.entries.end()) {
      auto reason = shard.evicted_reason.find(name);
      if (reason != shard.evicted_reason.end()) {
        return Status::NotFound("scenario '" + name + "' was " +
                                reason->second + "; nothing to unregister");
      }
      return Status::NotFound("scenario '" + name + "' is not registered");
    }
    shard.bytes -= it->second.bundle->memory_bytes;
    shard.lru.erase(it->second.lru_it);
    shard.entries.erase(it);
    shard.evicted_reason[name] = "unregistered";
    eviction_epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  unregistered_.fetch_add(1, std::memory_order_relaxed);
  NotifyEvicted({{name, eviction_epoch}});
  return Status::OK();
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::UpdateScenario(
    const std::string& name, const table::Table& row_batch) {
  if (row_batch.num_rows() == 0) {
    return Status::InvalidArgument("row batch for scenario '" + name +
                                   "' has no rows");
  }
  if (Status s = CheckFiniteCells(
          row_batch, "row batch for scenario '" + name + "'");
      !s.ok()) {
    return s;
  }
  Shard& shard = ShardFor(name);
  std::shared_ptr<const ScenarioBundle> old;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(name);
    if (it == shard.entries.end()) {
      auto reason = shard.evicted_reason.find(name);
      if (reason != shard.evicted_reason.end()) {
        return Status::NotFound("scenario '" + name + "' was " +
                                reason->second +
                                "; re-register it before appending rows");
      }
      return Status::NotFound("scenario '" + name + "' is not registered");
    }
    old = it->second.bundle;
  }

  // Everything expensive happens outside the lock, against the snapshot.
  // Grow a private copy of the live table: the previous epoch's buffers —
  // and every span the old bundle's statistics borrowed from them — stay
  // untouched for in-flight queries holding the old snapshot.
  auto grown = std::make_shared<table::Table>(*old->input);
  if (Status s = grown->AppendRows(row_batch); !s.ok()) {
    return Status(s.code(),
                  "updating scenario '" + name + "': " + s.message());
  }

  auto bundle = std::make_shared<ScenarioBundle>();
  bundle->name = name;
  bundle->scenario = old->scenario;
  bundle->input = grown;
  bundle->default_options = old->default_options;
  bundle->default_options_fingerprint = old->default_options_fingerprint;
  bundle->numeric_attributes = old->numeric_attributes;
  bundle->rows_appended = row_batch.num_rows();

  if (old->input_stats != nullptr) {
    // Delta-refresh: continue the previous epoch's accumulators over the
    // appended rows instead of recomputing from scratch. The copied stats
    // adopt full-length spans into the grown table, so the new bundle is
    // self-contained.
    auto stats =
        std::make_shared<stats::SufficientStats>(*old->input_stats);
    std::vector<DoubleSpan> views;
    views.reserve(bundle->numeric_attributes.size());
    for (const auto& attr : bundle->numeric_attributes) {
      auto col = grown->GetColumn(attr);
      if (!col.ok()) return col.status();  // unreachable after AppendRows
      views.push_back((*col)->View());
    }
    if (Status s = stats->AppendRows(views, row_batch.num_rows()); !s.ok()) {
      return Status(s.code(),
                    "updating scenario '" + name + "': " + s.message());
    }
    bundle->input_stats = std::move(stats);
  }
  bundle->memory_bytes = EstimateBundleBytes(*bundle);

  std::shared_ptr<const ScenarioBundle> out;
  std::vector<std::pair<std::string, std::uint64_t>> evicted;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(name);
    if (it == shard.entries.end()) {
      // Evicted or unregistered while the delta was being prepared.
      auto reason = shard.evicted_reason.find(name);
      const std::string why = reason != shard.evicted_reason.end()
                                  ? reason->second
                                  : "unregistered";
      return Status::NotFound("scenario '" + name + "' was " + why +
                              " while the row batch was being applied; "
                              "re-register it first");
    }
    if (it->second.bundle != old) {
      // Lost a race with Replace/another update: the delta was computed
      // against a superseded table, so publishing it would drop rows.
      return Status::Aborted("scenario '" + name +
                             "' changed while the row batch was being "
                             "applied; retry against the new snapshot");
    }
    out = bundle;
    PublishLocked(shard, name, std::move(bundle), &evicted);
  }
  NotifyEvicted(evicted);
  return out;
}

void ScenarioRegistry::PublishLocked(
    Shard& shard, const std::string& name,
    std::shared_ptr<ScenarioBundle> bundle,
    std::vector<std::pair<std::string, std::uint64_t>>* evicted) {
  // The epoch is stamped at publish time so it is monotone with respect
  // to every other publication *and* eviction across all shards.
  bundle->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  auto it = shard.entries.find(name);
  if (it != shard.entries.end()) {
    shard.bytes -= it->second.bundle->memory_bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    it->second.bundle = bundle;
  } else {
    shard.lru.push_front(name);
    shard.entries[name] = Shard::Entry{bundle, shard.lru.begin()};
  }
  shard.bytes += bundle->memory_bytes;
  shard.evicted_reason.erase(name);
  EnforceBudgetLocked(shard, name, evicted);
}

void ScenarioRegistry::EnforceBudgetLocked(
    Shard& shard, const std::string& keep,
    std::vector<std::pair<std::string, std::uint64_t>>* evicted) {
  if (per_shard_budget_ == 0) return;
  while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
    const std::string victim = shard.lru.back();
    if (victim == keep) break;  // never evict the bundle just published
    auto it = shard.entries.find(victim);
    shard.bytes -= it->second.bundle->memory_bytes;
    shard.lru.pop_back();
    shard.entries.erase(it);
    shard.evicted_reason[victim] = "evicted by the memory budget";
    evicted->emplace_back(
        victim, next_epoch_.fetch_add(1, std::memory_order_relaxed));
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ScenarioRegistry::NotifyEvicted(
    const std::vector<std::pair<std::string, std::uint64_t>>& evicted) {
  if (evicted.empty()) return;
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (!listener_) return;
  for (const auto& [name, epoch] : evicted) listener_(name, epoch);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Snapshot(
    const std::string& name) const {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(name);
  if (it == shard.entries.end()) {
    auto reason = shard.evicted_reason.find(name);
    if (reason != shard.evicted_reason.end()) {
      return Status::NotFound("scenario '" + name + "' was " +
                              reason->second + "; re-register it to serve "
                              "queries against it again");
    }
    return Status::NotFound("scenario '" + name + "' is not registered");
  }
  if (per_shard_budget_ != 0) {
    // LRU freshen; skipped without a budget so unbudgeted lookups stay a
    // pure map find.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  }
  return it->second.bundle;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [name, entry] : shard->entries) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::size_t ScenarioRegistry::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

RegistryStats ScenarioRegistry::Stats() const {
  RegistryStats stats;
  stats.scenarios_registered = registered_.load(std::memory_order_relaxed);
  stats.scenarios_evicted = evicted_.load(std::memory_order_relaxed);
  stats.scenarios_unregistered =
      unregistered_.load(std::memory_order_relaxed);
  stats.shard_bytes.reserve(shards_.size());
  stats.shard_scenarios.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.shard_bytes.push_back(shard->bytes);
    stats.shard_scenarios.push_back(shard->entries.size());
    stats.registry_bytes += shard->bytes;
    stats.scenarios += shard->entries.size();
  }
  return stats;
}

}  // namespace cdi::serve
