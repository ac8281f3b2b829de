#include "serve/metrics.h"

#include <cstdio>

namespace cdi::serve {

MetricsSnapshot MetricsSnapshot::Since(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  out.submitted = submitted - earlier.submitted;
  out.served = served - earlier.served;
  out.rejected = rejected - earlier.rejected;
  out.failed = failed - earlier.failed;
  out.deadline_exceeded = deadline_exceeded - earlier.deadline_exceeded;
  out.cancelled = cancelled - earlier.cancelled;
  out.cache_hits = cache_hits - earlier.cache_hits;
  out.coalesced = coalesced - earlier.coalesced;
  out.executions = executions - earlier.executions;
  out.plan_builds = plan_builds - earlier.plan_builds;
  out.profile_builds = profile_builds - earlier.profile_builds;
  out.summary_builds = summary_builds - earlier.summary_builds;
  out.evicted_stale = evicted_stale - earlier.evicted_stale;
  out.epoch_rollovers = epoch_rollovers - earlier.epoch_rollovers;
  out.rows_appended = rows_appended - earlier.rows_appended;
  out.scenarios_registered = scenarios_registered - earlier.scenarios_registered;
  out.scenarios_evicted = scenarios_evicted - earlier.scenarios_evicted;
  out.scenarios_unregistered =
      scenarios_unregistered - earlier.scenarios_unregistered;
  out.queue_depth_high_water = queue_depth_high_water;
  out.result_cache_entries = result_cache_entries;
  out.plan_cache_entries = plan_cache_entries;
  out.profile_cache_entries = profile_cache_entries;
  out.summary_cache_entries = summary_cache_entries;
  out.registry_bytes = registry_bytes;
  out.registry_scenarios = registry_scenarios;
  out.shard_bytes = shard_bytes;
  out.latency = latency.Since(earlier.latency);
  out.update_latency = update_latency.Since(earlier.update_latency);
  out.summary_latency = summary_latency.Since(earlier.summary_latency);
  return out;
}

std::string MetricsSnapshot::ToLine() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu served=%llu rejected=%llu failed=%llu "
      "deadline_exceeded=%llu cancelled=%llu cache_hits=%llu coalesced=%llu "
      "executions=%llu plan_builds=%llu profile_builds=%llu "
      "summary_builds=%llu "
      "evicted_stale=%llu "
      "epoch_rollovers=%llu rows_appended=%llu "
      "scenarios_registered=%llu scenarios_evicted=%llu "
      "scenarios_unregistered=%llu registry_bytes=%llu "
      "registry_scenarios=%llu "
      "result_cache=%llu plan_cache=%llu profile_cache=%llu "
      "summary_cache=%llu queue_hwm=%llu "
      "hit_rate=%.4f "
      "p50_us=%.0f p95_us=%.0f p99_us=%.0f mean_us=%.0f "
      "update_p50_us=%.0f update_p99_us=%.0f summary_p50_us=%.0f "
      "summary_p99_us=%.0f",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(executions),
      static_cast<unsigned long long>(plan_builds),
      static_cast<unsigned long long>(profile_builds),
      static_cast<unsigned long long>(summary_builds),
      static_cast<unsigned long long>(evicted_stale),
      static_cast<unsigned long long>(epoch_rollovers),
      static_cast<unsigned long long>(rows_appended),
      static_cast<unsigned long long>(scenarios_registered),
      static_cast<unsigned long long>(scenarios_evicted),
      static_cast<unsigned long long>(scenarios_unregistered),
      static_cast<unsigned long long>(registry_bytes),
      static_cast<unsigned long long>(registry_scenarios),
      static_cast<unsigned long long>(result_cache_entries),
      static_cast<unsigned long long>(plan_cache_entries),
      static_cast<unsigned long long>(profile_cache_entries),
      static_cast<unsigned long long>(summary_cache_entries),
      static_cast<unsigned long long>(queue_depth_high_water),
      CacheHitRate(), latency.Quantile(0.50) * 1e6,
      latency.Quantile(0.95) * 1e6, latency.Quantile(0.99) * 1e6,
      latency.MeanSeconds() * 1e6, update_latency.Quantile(0.50) * 1e6,
      update_latency.Quantile(0.99) * 1e6,
      summary_latency.Quantile(0.50) * 1e6,
      summary_latency.Quantile(0.99) * 1e6);
  std::string line = buf;
  // Per-shard byte gauges, appended only when sharding is in play so the
  // single-registry line format stays stable.
  for (std::size_t i = 0; i < shard_bytes.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " shard%zu_bytes=%llu", i,
                  static_cast<unsigned long long>(shard_bytes[i]));
    line += buf;
  }
  return line;
}

void ServerMetrics::ObserveQueueDepth(std::uint64_t depth) {
  std::uint64_t cur =
      queue_depth_high_water.load(std::memory_order_relaxed);
  while (cur < depth && !queue_depth_high_water.compare_exchange_weak(
                            cur, depth, std::memory_order_relaxed)) {
  }
}

void ServerMetrics::RecordResponse(const Status& status,
                                   double latency_seconds) {
  switch (status.code()) {
    case StatusCode::kOk:
      served.fetch_add(1, std::memory_order_relaxed);
      latency.Record(latency_seconds);
      return;
    case StatusCode::kResourceExhausted:
      rejected.fetch_add(1, std::memory_order_relaxed);
      return;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      break;
    case StatusCode::kCancelled:
      cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  failed.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot ServerMetrics::Snapshot() const {
  MetricsSnapshot snap;
  snap.submitted = submitted.load(std::memory_order_relaxed);
  snap.served = served.load(std::memory_order_relaxed);
  snap.rejected = rejected.load(std::memory_order_relaxed);
  snap.failed = failed.load(std::memory_order_relaxed);
  snap.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
  snap.cancelled = cancelled.load(std::memory_order_relaxed);
  snap.cache_hits = cache_hits.load(std::memory_order_relaxed);
  snap.coalesced = coalesced.load(std::memory_order_relaxed);
  snap.executions = executions.load(std::memory_order_relaxed);
  snap.plan_builds = plan_builds.load(std::memory_order_relaxed);
  snap.profile_builds = profile_builds.load(std::memory_order_relaxed);
  snap.summary_builds = summary_builds.load(std::memory_order_relaxed);
  snap.evicted_stale = evicted_stale.load(std::memory_order_relaxed);
  snap.epoch_rollovers = epoch_rollovers.load(std::memory_order_relaxed);
  snap.rows_appended = rows_appended.load(std::memory_order_relaxed);
  snap.queue_depth_high_water =
      queue_depth_high_water.load(std::memory_order_relaxed);
  snap.latency = latency.Snapshot();
  snap.update_latency = update_latency.Snapshot();
  snap.summary_latency = summary_latency.Snapshot();
  return snap;
}

}  // namespace cdi::serve
