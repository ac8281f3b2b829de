#ifndef CDI_SERVE_METRICS_H_
#define CDI_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace cdi::serve {

/// Point-in-time copy of the query server's counters. Plain integers —
/// copyable, subtractable (for interval windows), serializable.
///
/// Counter relationships (in a quiesced server):
///   submitted = served + rejected + failed
///   served    = executions + cache_hits + coalesced   (every OK response)
///   failed    counts error responses, of which deadline_exceeded and
///             cancelled are also tallied separately by cause.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  /// OK responses delivered (leader executions + cache hits + coalesced).
  std::uint64_t served = 0;
  /// Admission-queue-full rejections (kResourceExhausted).
  std::uint64_t rejected = 0;
  /// Error responses (validation failures, deadline, cancellation, ...).
  std::uint64_t failed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  /// Requests that found a completed cache entry (no queue slot used).
  std::uint64_t cache_hits = 0;
  /// Requests coalesced onto an identical in-flight computation
  /// (single-flight dedup; no queue slot used).
  std::uint64_t coalesced = 0;
  /// Actual pipeline executions (cache misses that ran).
  std::uint64_t executions = 0;
  /// C-DAG plan artifacts built (planned-mode cache misses that ran the
  /// full pipeline; single-flight keeps this at one per scenario epoch).
  std::uint64_t plan_builds = 0;
  /// Candidate profiles built (KnowledgeExtractor::ExtractCandidates runs;
  /// single-flight keeps this at one per scenario epoch and option set,
  /// shared by the plan build and every mode=full run).
  std::uint64_t profile_builds = 0;
  /// Summary artifacts built (summarize-mode cache misses that ran the
  /// greedy merge pass; single-flight keeps this at one per
  /// (scenario, epoch, k, options)).
  std::uint64_t summary_builds = 0;
  /// Cache entries evicted because their scenario epoch was superseded by
  /// a registry Replace (the stale-epoch leak fix).
  std::uint64_t evicted_stale = 0;
  /// Successful UpdateScenario epoch bumps (streaming row-batch ingests
  /// that republished a scenario under a fresh epoch).
  std::uint64_t epoch_rollovers = 0;
  /// Total rows appended across all successful UpdateScenario calls.
  std::uint64_t rows_appended = 0;
  /// Scenario registrations published (Register / Replace / re-register
  /// after eviction; counter, sourced from the registry by
  /// QueryServer::Metrics — zero on a bare ServerMetrics::Snapshot).
  std::uint64_t scenarios_registered = 0;
  /// Scenarios dropped by the registry's memory budget (counter, sourced
  /// from the registry as above).
  std::uint64_t scenarios_evicted = 0;
  /// Scenarios removed via unregister (counter, sourced as above).
  std::uint64_t scenarios_unregistered = 0;
  /// Highest admission-queue depth observed since start.
  std::uint64_t queue_depth_high_water = 0;
  /// Current result-cache entry count (gauge, filled by
  /// QueryServer::Metrics; not a counter — Since() copies it from the
  /// later snapshot).
  std::uint64_t result_cache_entries = 0;
  /// Current plan-cache entry count (gauge, as above).
  std::uint64_t plan_cache_entries = 0;
  /// Current candidate-profile entry count (gauge, as above).
  std::uint64_t profile_cache_entries = 0;
  /// Summarize-mode entries currently in the result cache (gauge, as
  /// above; a subset of result_cache_entries).
  std::uint64_t summary_cache_entries = 0;
  /// Live registry byte charge and scenario count (gauges, as above).
  std::uint64_t registry_bytes = 0;
  std::uint64_t registry_scenarios = 0;
  /// Per-shard live byte charge (gauge vector; empty on a bare
  /// ServerMetrics::Snapshot). Index = shard number.
  std::vector<std::uint64_t> shard_bytes;
  /// Submit-to-response latency of OK responses.
  HistogramSnapshot latency;
  /// End-to-end latency of successful UpdateScenario calls (table copy +
  /// delta stats refresh + publish) — the delta-refresh cost the epoch
  /// rollover pays instead of a full re-ingest.
  HistogramSnapshot update_latency;
  /// Cold summary-build latency (merge pass + DOT/JSON rendering; the
  /// plan build it may trigger is accounted under `latency`). Cache hits
  /// do not touch this histogram.
  HistogramSnapshot summary_latency;

  /// cache_hits / served (0 when nothing served). Coalesced responses are
  /// not counted as hits: they did wait on a computation.
  double CacheHitRate() const {
    return served == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(served);
  }

  /// Counter-wise difference `*this - earlier` (queue high-water is taken
  /// from `*this`; it is a running maximum, not a rate).
  MetricsSnapshot Since(const MetricsSnapshot& earlier) const;

  /// Single-line summary, e.g. for the cdi_serve `metrics` command:
  /// `served=128 rejected=0 ... p50_us=12 p95_us=900 p99_us=51000`.
  std::string ToLine() const;
};

/// Lock-free counter block the server updates on the hot path; every
/// counter is a relaxed atomic (metrics never synchronize anything).
class ServerMetrics {
 public:
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> executions{0};
  std::atomic<std::uint64_t> plan_builds{0};
  std::atomic<std::uint64_t> profile_builds{0};
  std::atomic<std::uint64_t> summary_builds{0};
  std::atomic<std::uint64_t> evicted_stale{0};
  std::atomic<std::uint64_t> epoch_rollovers{0};
  std::atomic<std::uint64_t> rows_appended{0};
  std::atomic<std::uint64_t> queue_depth_high_water{0};
  LatencyHistogram latency;
  LatencyHistogram update_latency;
  LatencyHistogram summary_latency;

  /// Raises the high-water mark to at least `depth`.
  void ObserveQueueDepth(std::uint64_t depth);

  /// Counts one delivered response: an OK one as served (and its latency),
  /// an error by cause — queue-full as rejected, everything else as failed,
  /// deadline and cancellation also in their own counters.
  void RecordResponse(const Status& status, double latency_seconds);

  MetricsSnapshot Snapshot() const;
};

}  // namespace cdi::serve

#endif  // CDI_SERVE_METRICS_H_
