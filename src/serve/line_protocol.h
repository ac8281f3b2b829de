#ifndef CDI_SERVE_LINE_PROTOCOL_H_
#define CDI_SERVE_LINE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "serve/query_server.h"

namespace cdi::serve {

/// Stable display name for a response source ("executed", "hit",
/// "coalesced", "error").
const char* ResponseSourceName(ResponseSource source);

/// Canonical 64-bit fingerprint of everything a served PipelineResult
/// answers with: extraction attributes, organization repairs and weights,
/// C-DAG claims/topics, both effect estimates (bit patterns), the
/// sensitivity report, and the simulated external-latency accounting.
/// Wall-clock timings are excluded — they are the only fields that vary
/// between otherwise bitwise-identical runs. Two results fingerprint
/// equal iff the pipeline produced the same answer bit for bit.
std::uint64_t ResultFingerprint(const core::PipelineResult& result);

/// Deterministic response payload, identical for every service of the
/// same result (doubles as %.17g round-trip exactly):
///   `direct=... direct_p=... total=... total_p=... e_value=...
///    clusters=N edges=M n=K fingerprint=<16 hex>`
/// The load generator compares served payloads byte-for-byte against a
/// direct Pipeline::Run to prove served == computed with zero torn
/// responses.
std::string FormatResultPayload(const core::PipelineResult& result);

/// Canonical 64-bit fingerprint of a planned pair answer: both endpoints,
/// their clusters, the mediator/confounder cluster lists, both adjustment
/// sets, and both effect estimates (bit patterns). Two answers
/// fingerprint equal iff the planner produced the same answer bit for
/// bit — the sweep verifier's equality witness.
std::uint64_t PairAnswerFingerprint(const core::PairAnswer& answer);

/// Deterministic payload of a planned pair answer (%.17g, like
/// FormatResultPayload):
///   `direct=... direct_p=... total=... total_p=... mediators=N
///    confounders=M adj_direct=A adj_total=B n=K fingerprint=<16 hex>`
std::string FormatPairAnswerPayload(const core::PairAnswer& answer);

/// Canonical 64-bit fingerprint of a served summary artifact: the
/// SummaryDag's own structural fingerprint plus both rendered payload
/// strings. Two artifacts fingerprint equal iff every byte a client
/// could receive (DOT or JSON) is identical — the summarize-mix
/// verifier's equality witness.
std::uint64_t SummaryFingerprint(const SummaryArtifact& artifact);

/// Deterministic payload of a served summary (one line; the rendering is
/// escaped so embedded newlines/quotes survive the line protocol):
///   `nodes=N edges=M original_nodes=P original_edges=Q compression=...
///    pairs_scored=S pairs_changed=C fingerprint=<16 hex>
///    payload="<escaped dot or json>"`
/// `format` selects which pre-rendered string goes into payload=
/// ("dot" or "json"; anything else falls back to "dot").
std::string FormatSummaryPayload(const SummaryArtifact& artifact,
                                 const std::string& format);

/// Full single-line response for the cdi_serve stdout protocol:
///   `ok scenario=S T=... O=... source=hit <payload> latency_us=...`
///   `ok scenario=S T=... O=... mode=planned source=hit <payload> ...`
///   `ok scenario=S mode=summarize k=6 format=dot source=hit <payload> ...`
///   `error scenario=S T=... O=... code=DeadlineExceeded message="..."`
/// Never contains embedded newlines. Planned responses (response.planned()
/// set) carry the pair-answer payload; summarize responses
/// (response.summary() set) the summary payload; full responses the
/// pipeline one.
std::string FormatResponseLine(const CdiQuery& query,
                               const QueryResponse& response);

/// One parsed cdi_serve stdin command.
struct ServerCommand {
  enum class Kind {
    kQuery,
    kSummarize,
    kMetrics,
    kScenarios,
    kUpdate,
    kRegister,
    kGenerate,
    kUnregister,
    kQuit,
  };
  Kind kind = Kind::kQuery;
  /// Meaningful when kind == kQuery or kSummarize (a summarize command
  /// fills query.scenario / summarize_k / summarize_format /
  /// timeout_seconds and sets query.mode = QueryMode::kSummarize).
  CdiQuery query;
  /// kUpdate: target scenario and the CSV file holding the row batch
  /// (header row; schema must match the scenario's input table).
  std::string update_scenario;
  std::string update_rows_path;
  /// kRegister / kGenerate / kUnregister: the scenario name.
  std::string target;
  /// kRegister / kGenerate: overwrite an existing registration.
  bool replace = false;
  /// kRegister: file inputs (mirrors cdi_cli's flags).
  std::string register_input;            // input=<csv>, required
  std::string register_entity;           // entity=<column>, required
  std::vector<std::string> register_kg;  // kg=<triples-csv>, repeatable
  std::vector<std::string> register_lake;  // lake=<csv>, repeatable
  std::string register_knowledge;        // knowledge=<domain-file>
  std::string register_exposure;         // exposure=<attr> (optional)
  std::string register_outcome;          // outcome=<attr> (optional)
  /// kGenerate: grid cell to materialize (datagen::ParseGridCellName).
  std::string grid_cell;
  std::size_t generate_entities = 120;
  std::uint64_t generate_seed = 9001;
};

/// Largest `entities=` a `generate` line may ask for: a grid scenario
/// materializes every entity's rows in process, so an unbounded count is
/// an allocation request a client can make the server die on.
inline constexpr std::size_t kMaxGenerateEntities = 100000;

/// Ceilings of the size flags `cdi_serve` and `cdi_loadgen` parse with
/// ParseCountFlag (`--entities` takes kMaxGenerateEntities, the thread
/// counts kMaxThreadsFlag). Each flag sizes queue slots, shards or a byte
/// budget before anything is served, so a wrapped or absurd value is a
/// usage error, never an allocation request.
inline constexpr std::uint64_t kMaxQueueDepthFlag = 1u << 20;
inline constexpr std::uint64_t kMaxRegistryShardsFlag = 1024;
/// 2^40 KiB = 1 PiB; far below where the flag's * 1024 would wrap.
inline constexpr std::uint64_t kMaxMemoryBudgetKbFlag = std::uint64_t{1}
                                                        << 40;

/// Parses one protocol line:
///   `query <scenario> <exposure> <outcome> [timeout=<seconds>]
///    [mode=planned|full]`
///   `summarize <scenario> k=<n> [format=dot|json] [timeout=<seconds>]`
///   `update <scenario> rows=<csv-path>`
///   `register <name> input=<csv> entity=<col> [kg=<csv>]... [lake=<csv>]...
///    [knowledge=<file>] [exposure=<attr>] [outcome=<attr>] [replace]`
///   `generate <name> grid=<cell> [entities=<n>] [seed=<s>] [replace]`
///   `unregister <name>`
///   `metrics` | `scenarios` | `quit`
/// `timeout` must be a finite, non-negative number of seconds — negative,
/// NaN and infinite values are rejected here with a descriptive error
/// instead of silently meaning "no deadline" downstream. `k` must be a
/// plain non-negative integer >= 2 (non-integer, negative, and
/// malformed values are rejected at parse; k above the C-DAG's node
/// count is rejected at execution with an error naming the DAG size),
/// and `format` must be `dot` or `json`. `entities` and `seed` must be
/// plain non-negative integers that fit in 64 bits, and `entities` at
/// most kMaxGenerateEntities. Blank lines and `#` comments return
/// kInvalidArgument with an empty message (callers skip those silently).
Result<ServerCommand> ParseCommandLine(const std::string& line);

}  // namespace cdi::serve

#endif  // CDI_SERVE_LINE_PROTOCOL_H_
