// serve_bench — the serving benchmark: one closed-loop client driving an
// in-process QueryServer through the same path cdi_serve takes.
//
// Usage:
//   serve_bench --workload warm_queries|cold_builds --seed N
//               --seconds S --trace 0|1
//
// Queries and summaries go ParseCommandLine -> QueryServer::Execute ->
// FormatResponseLine; writes call QueryServer::UpdateScenario and
// RegisterScenario with in-memory tables (no file I/O in the loop). The
// server runs num_workers = 2 and pipeline_threads = 1 and the client waits
// for every reply, so one thread works at a time; the process is pinned to
// one CPU.
//
// A workload is a fixed *pass*: a request sequence derived from the seed
// that leaves the server in the state it found it. The run repeats whole
// passes until --seconds have been measured, so a longer run measures the
// same distribution, never a bigger table. Every served payload is
// compared byte for byte (outside the timed region) against a direct
// computation: Pipeline::Run + CdagPlan::Build + AnswerPair /
// SummarizeClusterDag, computed before set-up.
//
// --trace 0 prints the end-to-end metrics; --trace 1 measures the same
// untraced phase, then replays half as many passes on a fresh server with
// spans around each call and calls every layer's public functions
// directly, in the order the server does, verifying that the replay
// reproduces each served payload. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every payload verified and every counter matched.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cdag_builder.h"
#include "core/data_organizer.h"
#include "core/effect.h"
#include "core/evaluation.h"
#include "core/fd.h"
#include "core/knowledge_extractor.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "core/sensitivity.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "datagen/scenario.h"
#include "serve/line_protocol.h"
#include "serve/metrics.h"
#include "serve/query_server.h"
#include "serve/scenario_registry.h"
#include "summarize/summarize.h"
#include "table/table.h"

namespace {

using cdi::Result;
using cdi::Status;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr int kSetups = 5;  // set-ups per run; setup_s is their median
/// A `_p50_` metric is the class's median within each pass, taken at a high
/// quantile over the run's passes; throughput_rps divides by the same
/// quantile of pass times. This VM switches every few seconds between a
/// fast state and one ~1.5x slower (contention on the host), so a median
/// over the whole run lands on whichever state held half the run and jumps
/// between runs, while a high quantile over passes reads the slow state
/// whenever a small share of the run is in it. The quantile depends on how
/// many samples make up each pass's statistic: from 100 up it is precise
/// enough for the 99th percentile (the slow state in 1% of passes
/// suffices); below that, sampling noise would dominate the top passes, so
/// the 90th.
double PassQuantile(std::size_t per_pass) {
  return per_pass >= 100 ? 0.99 : 0.9;
}
constexpr int kServerWorkers = 2;
constexpr int kPipelineThreads = 1;

// ---------------------------------------------------------------------------
// Request classes, each named after the operation it times.

enum Cls {
  kHit,         // planned pair served from the result cache
  kAnswer,      // planned pair on a warm plan that misses the result cache
  kSummaryHit,  // cached summarize (renders the escaped DOT/JSON payload)
  kSummarize,   // summarize that runs the merge pass on a warm plan
  kColdPlan,    // planned pair that builds the plan
  kFull,        // mode=full pair-exact pipeline run
  kUpdate,      // UpdateScenario row batch (epoch rollover)
  kRegister,    // RegisterScenario(replace) of a pre-built scenario
  kNumCls
};
const char* const kClsName[kNumCls] = {"hit",       "answer",    "summary_hit",
                                       "summarize", "cold_plan", "full",
                                       "update",    "register"};

bool IsCacheHitClass(int cls) { return cls == kHit || cls == kSummaryHit; }

// ---------------------------------------------------------------------------
// Samples.

struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  /// Linear-interpolated quantile (NumPy's default); 0 when empty.
  double Quantile(double q) const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Quantile(0.5); }
  double Sum() const {
    double t = 0;
    for (double x : v) t += x;
    return t;
  }
  double Mean() const { return v.empty() ? 0.0 : Sum() / v.size(); }
};

/// One class's latencies over a whole run in fixed memory: log buckets 0.1%
/// wide from 10 ns to ~100 s. A run keeps millions of hit samples; stored
/// raw, they (and the sorted copies quantiles took) grew the process by tens
/// of MiB with the run's request count, so peak_rss_mb moved with the
/// machine's speed rather than with the server.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void Add(double sec) {
    ++counts_[Bucket(sec)];
    ++n_;
    sum_ += sec;
  }
  std::size_t size() const { return n_; }
  double Mean() const { return n_ == 0 ? 0.0 : sum_ / n_; }
  double Median() const { return Quantile(0.5); }
  /// The sample of rank q * (n - 1), as Samples::Quantile ranks them; within
  /// a bucket the value is spread geometrically by rank. 0 when empty.
  double Quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    std::size_t below = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      if (counts_[b] == 0) continue;
      if (rank < static_cast<double>(below + counts_[b])) {
        const double f = (rank - static_cast<double>(below) + 0.5) /
                         static_cast<double>(counts_[b]);
        return kMin * std::exp((static_cast<double>(b) + f) * kLogStep);
      }
      below += counts_[b];
    }
    return kMin * std::exp(static_cast<double>(counts_.size()) * kLogStep);
  }

 private:
  static constexpr double kMin = 1e-8;  // seconds
  static constexpr double kLogStep = 0.0009995003330834232;  // ln(1.001)
  static constexpr std::size_t kBuckets = 23040;             // to ~100 s
  static std::size_t Bucket(double sec) {
    if (!(sec > kMin)) return 0;
    const double b = std::log(sec / kMin) / kLogStep;
    return std::min(static_cast<std::size_t>(b), kBuckets - 1);
  }
  std::vector<std::uint32_t> counts_;
  std::size_t n_ = 0;
  double sum_ = 0;
};

/// The highest of p90/p99/p99.9 that leaves at least 10 samples beyond it.
/// Chosen from the samples a nominal run yields (`nominal`), not from this
/// run's count, so the reported percentile never flips between runs.
double TailQuantile(std::size_t nominal) {
  if (nominal >= 10000) return 0.999;
  if (nominal >= 1000) return 0.99;
  return 0.9;
}

std::string PercentileName(double q) {
  return q == 0.999 ? "p99.9" : q == 0.99 ? "p99" : "p90";
}

// ---------------------------------------------------------------------------
// Workload inputs (datagen).

struct SourceSpec {
  enum class Kind { kGrid, kCovid, kFlights };
  Kind kind = Kind::kGrid;
  std::string name;  // registration name (the grid cell name for grid cells)
  std::size_t entities = 200;
  /// Rows held back from the head table as the update tail, cut into
  /// batches of `batch_rows` (cold_builds holds back one batch).
  std::size_t held_rows = 0;
  std::size_t batch_rows = 0;
};

struct Inputs {
  /// The scenario each source is (re-)registered with: its head table.
  std::vector<std::shared_ptr<const cdi::datagen::Scenario>> heads;
  /// Update batches per source, in the order the pass appends them.
  std::vector<std::vector<cdi::table::Table>> batches;
};

Result<std::unique_ptr<cdi::datagen::Scenario>> Generate(
    const SourceSpec& spec) {
  switch (spec.kind) {
    case SourceSpec::Kind::kGrid:
      return cdi::datagen::BuildGridScenario(spec.name, spec.entities);
    case SourceSpec::Kind::kCovid: {
      auto s = cdi::datagen::CovidSpec();
      s.num_entities = spec.entities;
      return cdi::datagen::BuildScenario(s);
    }
    case SourceSpec::Kind::kFlights: {
      auto s = cdi::datagen::FlightsSpec();
      s.num_entities = spec.entities;
      return cdi::datagen::BuildScenario(s);
    }
  }
  return Status::Internal("unknown source kind");
}

/// Builds every scenario of the workload. A source's held-back tail is cut
/// into consecutive batches, and the seed shuffles the row order inside
/// each batch: every seed appends the same rows per update in a different
/// order.
Result<Inputs> MakeInputs(const std::vector<SourceSpec>& specs,
                          std::uint64_t seed) {
  Inputs in;
  for (const SourceSpec& spec : specs) {
    auto built = Generate(spec);
    if (!built.ok()) return built.status();
    std::unique_ptr<cdi::datagen::Scenario> sc = std::move(built).value();
    std::vector<cdi::table::Table> batches;
    if (spec.held_rows > 0) {
      cdi::table::Table& full = sc->input_table;
      if (full.num_rows() < spec.held_rows + 20 || spec.batch_rows == 0 ||
          spec.held_rows % spec.batch_rows != 0) {
        return Status::InvalidArgument("bad update split for " + spec.name);
      }
      const std::size_t head = full.num_rows() - spec.held_rows;
      cdi::Rng rng(cdi::Fnv1a("servebench/tail").Mix(seed).Mix(spec.name)
                       .Digest());
      for (std::size_t b = 0; b < spec.held_rows; b += spec.batch_rows) {
        std::vector<std::size_t> rows(spec.batch_rows);
        for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = head + b + i;
        rng.Shuffle(&rows);
        batches.push_back(full.TakeRows(rows));
      }
      full = full.Head(head);
    }
    in.heads.push_back(std::move(sc));
    in.batches.push_back(std::move(batches));
  }
  return in;
}

std::vector<std::string> NumericAttributes(const cdi::datagen::Scenario& sc) {
  // Same rule as the registry's bundle: non-string, non-entity columns.
  std::vector<std::string> out;
  const cdi::table::Table& t = sc.input_table;
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const auto& col = t.ColumnAt(c);
    if (col.type() == cdi::table::DataType::kString) continue;
    if (col.name() == sc.spec.entity_column) continue;
    out.push_back(col.name());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Direct computation: the reference every served payload must equal.

class Reference {
 public:
  Reference(const std::vector<SourceSpec>* specs, const Inputs* inputs)
      : specs_(specs), in_(inputs) {}

  /// Source `s`'s table after `t` update batches.
  const cdi::table::Table& TableAt(std::size_t s, std::size_t t) {
    if (t == 0) return in_->heads[s]->input_table;
    auto key = std::make_pair(s, t);
    auto it = tables_.find(key);
    if (it != tables_.end()) return it->second;
    cdi::table::Table grown = TableAt(s, t - 1);
    Status st = grown.AppendRows(in_->batches[s][t - 1]);
    if (!st.ok()) {
      std::fprintf(stderr, "reference append: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    return tables_.emplace(key, std::move(grown)).first->second;
  }

  cdi::core::PipelineOptions Options(std::size_t s) const {
    return cdi::core::DefaultEvaluationOptions(*in_->heads[s]);
  }

  Result<cdi::core::PipelineResult> Run(std::size_t s, std::size_t t,
                                        const std::string& exposure,
                                        const std::string& outcome) {
    const cdi::datagen::Scenario& sc = *in_->heads[s];
    cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                 &sc.topics, Options(s));
    return pipeline.Run(TableAt(s, t), sc.spec.entity_column, exposure,
                        outcome);
  }

  /// The scenario's canonical-pair plan at state t (what the server builds).
  Result<const cdi::core::CdagPlan*> PlanAt(std::size_t s, std::size_t t) {
    auto key = std::make_pair(s, t);
    auto it = plans_.find(key);
    if (it != plans_.end()) return it->second.get();
    const cdi::datagen::Scenario& sc = *in_->heads[s];
    auto run = Run(s, t, sc.exposure_attribute, sc.outcome_attribute);
    if (!run.ok()) return run.status();
    BuildCounts counts{run->build.ci_tests, run->build.oracle_queries};
    auto plan = cdi::core::CdagPlan::Build(
        std::make_shared<const cdi::core::PipelineResult>(*std::move(run)));
    if (!plan.ok()) return plan.status();
    plan_counts_[key] = counts;
    auto owned = std::make_unique<cdi::core::CdagPlan>(*std::move(plan));
    const cdi::core::CdagPlan* out = owned.get();
    plans_.emplace(key, std::move(owned));
    return out;
  }

  Result<int> PlannedPayload(std::size_t s, std::size_t t,
                             const std::string& exposure,
                             const std::string& outcome) {
    const std::string key = Key("planned", s, t, exposure + " " + outcome);
    if (auto it = index_.find(key); it != index_.end()) return it->second;
    auto plan = PlanAt(s, t);
    if (!plan.ok()) return plan.status();
    auto answer = (*plan)->AnswerPair(exposure, outcome);
    if (!answer.ok()) return answer.status();
    return Store(key, cdi::serve::FormatPairAnswerPayload(*answer));
  }

  Result<int> FullPayload(std::size_t s, std::size_t t,
                          const std::string& exposure,
                          const std::string& outcome) {
    const std::string key = Key("full", s, t, exposure + " " + outcome);
    if (auto it = index_.find(key); it != index_.end()) return it->second;
    auto run = Run(s, t, exposure, outcome);
    if (!run.ok()) return run.status();
    full_counts_[key] = BuildCounts{run->build.ci_tests,
                                    run->build.oracle_queries};
    return Store(key, cdi::serve::FormatResultPayload(*run));
  }

  Result<int> SummaryPayload(std::size_t s, std::size_t t, std::size_t k,
                             const std::string& format) {
    const std::string key =
        Key("summary", s, t, std::to_string(k) + " " + format);
    if (auto it = index_.find(key); it != index_.end()) return it->second;
    auto plan = PlanAt(s, t);
    if (!plan.ok()) return plan.status();
    cdi::summarize::SummarizeOptions options;
    options.budget = k;
    auto summary = cdi::summarize::SummarizeClusterDag(
        (*plan)->artifact().build.cdag, options);
    if (!summary.ok()) return summary.status();
    summary_pairs_[std::make_tuple(s, t, k)] = summary->pairs_scored();
    cdi::serve::SummaryArtifact artifact;
    artifact.dot = summary->ToDot();
    artifact.json = summary->ToJson();
    artifact.summary = std::make_shared<const cdi::summarize::SummaryDag>(
        *std::move(summary));
    return Store(key, cdi::serve::FormatSummaryPayload(artifact, format));
  }

  const std::string& payload(int i) const {
    return payloads_[static_cast<std::size_t>(i)];
  }

  struct BuildCounts {
    std::size_t ci_tests = 0;
    std::size_t oracle_queries = 0;
  };
  BuildCounts PlanCounts(std::size_t s, std::size_t t) const {
    return plan_counts_.at(std::make_pair(s, t));
  }
  BuildCounts FullCounts(std::size_t s, std::size_t t,
                         const std::string& exposure,
                         const std::string& outcome) const {
    return full_counts_.at(Key("full", s, t, exposure + " " + outcome));
  }
  std::size_t PairsScored(std::size_t s, std::size_t t, std::size_t k) const {
    return summary_pairs_.at(std::make_tuple(s, t, k));
  }

 private:
  std::string Key(const char* kind, std::size_t s, std::size_t t,
                  const std::string& rest) const {
    return std::string(kind) + "|" + (*specs_)[s].name + "|" +
           std::to_string(t) + "|" + rest;
  }
  int Store(const std::string& key, std::string payload) {
    payloads_.push_back(std::move(payload));
    const int i = static_cast<int>(payloads_.size() - 1);
    index_.emplace(key, i);
    return i;
  }

  const std::vector<SourceSpec>* specs_;
  const Inputs* in_;
  std::map<std::pair<std::size_t, std::size_t>, cdi::table::Table> tables_;
  std::map<std::pair<std::size_t, std::size_t>,
           std::unique_ptr<cdi::core::CdagPlan>>
      plans_;
  std::map<std::pair<std::size_t, std::size_t>, BuildCounts> plan_counts_;
  std::map<std::string, BuildCounts> full_counts_;
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, std::size_t>
      summary_pairs_;
  std::map<std::string, int> index_;
  std::vector<std::string> payloads_;
};

// ---------------------------------------------------------------------------
// Requests and passes.

struct Op {
  enum Kind { kLine, kUpdateRows, kRegisterHead, kInvalidate };
  Kind kind = kLine;
  int cls = kHit;
  std::size_t source = 0;
  /// Table state the op observes (update batches applied since the last
  /// registration); kUpdateRows: the batch it appends.
  std::size_t state = 0;
  std::string line;  // kLine: the protocol line
  int expect = -1;   // kLine: index of the expected payload
  /// kLine: the direct-computation inputs the traced replay needs.
  std::string exposure, outcome, format;
  std::size_t k = 0;
};

/// Builds a request sequence while modelling the server's caches, so every
/// request gets the class it will be served as. The model is the contract
/// the run checks: a request served from another source than predicted
/// counts as failed.
class PassBuilder {
 public:
  PassBuilder(const std::vector<SourceSpec>* specs, Reference* ref)
      : specs_(specs), ref_(ref), epoch_(specs->size(), 0),
        state_(specs->size(), 0) {}

  void Planned(std::vector<Op>* ops, std::size_t s, const std::string& t,
               const std::string& o) {
    Op op = Base(s);
    op.exposure = t;
    op.outcome = o;
    op.line = "query " + Name(s) + " " + t + " " + o + " mode=planned";
    const auto key = std::make_tuple(s, epoch_[s], std::string("planned"),
                                     t + " " + o);
    if (results_.count(key)) {
      op.cls = kHit;
    } else {
      op.cls = plans_.count({s, epoch_[s]}) ? kAnswer : kColdPlan;
      plans_.insert({s, epoch_[s]});
      results_.insert(key);
    }
    op.expect = Must(ref_->PlannedPayload(s, state_[s], t, o), op.line);
    ops->push_back(std::move(op));
  }

  void Full(std::vector<Op>* ops, std::size_t s, const std::string& t,
            const std::string& o) {
    Op op = Base(s);
    op.exposure = t;
    op.outcome = o;
    op.line = "query " + Name(s) + " " + t + " " + o + " mode=full";
    const auto key =
        std::make_tuple(s, epoch_[s], std::string("full"), t + " " + o);
    op.cls = results_.count(key) ? kHit : kFull;
    results_.insert(key);
    op.expect = Must(ref_->FullPayload(s, state_[s], t, o), op.line);
    ops->push_back(std::move(op));
  }

  void Summarize(std::vector<Op>* ops, std::size_t s, std::size_t k,
                 const std::string& format) {
    Op op = Base(s);
    op.k = k;
    op.format = format;
    op.line = "summarize " + Name(s) + " k=" + std::to_string(k) +
              " format=" + format;
    const auto key = std::make_tuple(s, epoch_[s], std::string("summary"),
                                     std::to_string(k));
    if (results_.count(key)) {
      op.cls = kSummaryHit;
    } else {
      if (!plans_.count({s, epoch_[s]})) {
        std::fprintf(stderr, "pass builder: summarize before a plan\n");
        std::exit(1);
      }
      op.cls = kSummarize;
      results_.insert(key);
    }
    op.expect = Must(ref_->SummaryPayload(s, state_[s], k, format), op.line);
    ops->push_back(std::move(op));
  }

  void Update(std::vector<Op>* ops, std::size_t s) {
    Op op = Base(s);
    op.kind = Op::kUpdateRows;
    op.cls = kUpdate;
    op.state = state_[s];  // the batch index it appends
    op.line = "update " + Name(s) + " batch=" + std::to_string(state_[s]);
    ++state_[s];
    ++epoch_[s];
    ops->push_back(std::move(op));
  }

  void Register(std::vector<Op>* ops, std::size_t s) {
    Op op = Base(s);
    op.kind = Op::kRegisterHead;
    op.cls = kRegister;
    op.line = "register " + Name(s) + " replace";
    state_[s] = 0;
    ++epoch_[s];
    ops->push_back(std::move(op));
  }

  void Invalidate(std::vector<Op>* ops) {
    Op op;
    op.kind = Op::kInvalidate;
    op.line = "invalidate";
    results_.clear();  // plans stay warm
    ops->push_back(std::move(op));
  }

 private:
  Op Base(std::size_t s) const {
    Op op;
    op.source = s;
    op.state = state_[s];
    return op;
  }
  const std::string& Name(std::size_t s) const { return (*specs_)[s].name; }
  static int Must(Result<int> r, const std::string& what) {
    if (!r.ok()) {
      std::fprintf(stderr, "direct computation rejects '%s': %s\n",
                   what.c_str(), r.status().ToString().c_str());
      std::exit(1);
    }
    return *r;
  }

  const std::vector<SourceSpec>* specs_;
  Reference* ref_;
  std::vector<std::uint64_t> epoch_;
  std::vector<std::size_t> state_;
  std::set<std::pair<std::size_t, std::uint64_t>> plans_;
  std::set<std::tuple<std::size_t, std::uint64_t, std::string, std::string>>
      results_;
};

struct Workload {
  std::string name;
  std::vector<SourceSpec> sources;
  /// Warm-up requests run at the end of every set-up.
  std::vector<Op> warmup;
  /// One pass; the run repeats it.
  std::vector<Op> pass;
  /// Passes a nominal run completes (fixes the tail percentiles).
  std::size_t nominal_passes = 0;
};

/// Every (scenario, state) in `states` must accept the pair / budget.
std::vector<std::pair<std::string, std::string>> ValidPairs(
    Reference* ref, const Inputs& in, std::size_t s,
    const std::vector<std::size_t>& states) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto attrs = NumericAttributes(*in.heads[s]);
  for (const auto& t : attrs) {
    for (const auto& o : attrs) {
      if (t == o) continue;
      bool ok = true;
      for (std::size_t st : states) {
        ok = ok && ref->PlannedPayload(s, st, t, o).ok();
      }
      if (ok) out.emplace_back(t, o);
    }
  }
  return out;
}

/// The smallest node budget every listed state accepts: the most merge
/// rounds the summarizer can run on this scenario.
std::size_t SummaryBudget(Reference* ref, std::size_t s,
                          const std::vector<std::size_t>& states) {
  for (std::size_t k = 2; k < 64; ++k) {
    bool ok = true;
    for (std::size_t st : states) {
      ok = ok && ref->SummaryPayload(s, st, k, "dot").ok();
    }
    if (ok) return k;
  }
  std::fprintf(stderr, "no summary budget for source %zu\n", s);
  std::exit(1);
}

/// Set-up warm-up for one scenario: its plan (canonical pair) and its
/// summary in both renderings.
void WarmUp(PassBuilder* b, std::vector<Op>* ops,
            const cdi::datagen::Scenario& sc, std::size_t s, std::size_t k) {
  b->Planned(ops, s, sc.exposure_attribute, sc.outcome_attribute);
  b->Summarize(ops, s, k, "dot");
  b->Summarize(ops, s, k, "json");
}

/// The slice shared by warm_queries and cold_builds: COVID, FLIGHTS and 23
/// grid cells spanning both cluster counts, both mechanisms, both outcome
/// kinds and all three attribute splits (missingness and oracle noise
/// rotate through their levels). 25 equally weighted scenarios put every
/// reported percentile inside one scenario's mode, not on a boundary
/// between two.
std::vector<SourceSpec> SliceSources() {
  std::vector<SourceSpec> out;
  SourceSpec covid;
  covid.kind = SourceSpec::Kind::kCovid;
  covid.name = "covid";
  covid.entities = 150;
  out.push_back(covid);
  SourceSpec flights;
  flights.kind = SourceSpec::Kind::kFlights;
  flights.name = "flights";
  flights.entities = 150;
  out.push_back(flights);
  int i = 0;
  for (std::size_t c : {4, 6}) {
    for (bool nonlinear : {false, true}) {
      for (bool binary : {false, true}) {
        for (int split : {1, 2, 3}) {
          if (out.size() == 25) break;  // leaves out the 24th combination
          cdi::datagen::GridCell cell;
          cell.clusters = c;
          cell.nonlinear = nonlinear;
          cell.binary_outcome = binary;
          cell.attrs_per_cluster = split;
          cell.mnar_level = i % 3;
          cell.oracle_noise = (i / 3) % 3;
          ++i;
          SourceSpec g;
          g.name = cdi::datagen::GridCellName(cell);
          g.entities = 200;
          out.push_back(g);
        }
      }
    }
  }
  return out;
}

/// warm_queries: read-only analyst traffic on published scenarios. A period
/// starts with InvalidateCache (results and summaries dropped, plans kept)
/// and holds 400 Zipf-drawn planned pairs over every valid ordered pair
/// plus two summarize requests for each of 5 scenarios; 20 periods make a
/// pass in which every scenario's summary is cold exactly 4 times.
void BuildWarmQueries(Workload* w, Reference* ref, const Inputs& in,
                      std::uint64_t seed) {
  cdi::Rng rng(cdi::Fnv1a("servebench/warm_queries").Mix(seed).Digest());
  PassBuilder b(&w->sources, ref);
  const std::size_t n = w->sources.size();
  std::vector<std::tuple<std::size_t, std::string, std::string>> pairs;
  std::vector<std::size_t> budget(n);
  for (std::size_t s = 0; s < n; ++s) {
    for (const auto& [t, o] : ValidPairs(ref, in, s, {0})) {
      pairs.emplace_back(s, t, o);
    }
    budget[s] = SummaryBudget(ref, s, {0});
    WarmUp(&b, &w->warmup, *in.heads[s], s, budget[s]);
  }
  rng.Shuffle(&pairs);  // Zipf rank order
  std::vector<double> zipf(pairs.size());
  for (std::size_t r = 0; r < zipf.size(); ++r) {
    zipf[r] = 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
  }
  const std::size_t kGroup = 5, kRounds = 4, kPairsPerPeriod = 400;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::size_t> order(n);
    for (std::size_t s = 0; s < n; ++s) order[s] = s;
    rng.Shuffle(&order);
    for (std::size_t g = 0; g < n; g += kGroup) {
      // (kind, index): kind 0 = pair draw, 1 = summary of scenario index.
      std::vector<std::pair<int, std::size_t>> period;
      for (std::size_t i = 0; i < kPairsPerPeriod; ++i) {
        period.emplace_back(0, rng.Categorical(zipf));
      }
      for (std::size_t j = g; j < std::min(n, g + kGroup); ++j) {
        period.emplace_back(1, order[j]);
        period.emplace_back(1, order[j]);
      }
      rng.Shuffle(&period);
      b.Invalidate(&w->pass);
      for (const auto& [kind, idx] : period) {
        if (kind == 0) {
          const auto& [s, t, o] = pairs[idx];
          b.Planned(&w->pass, s, t, o);
        } else {
          b.Summarize(&w->pass, idx, budget[idx],
                      rng.UniformInt(2) == 0 ? "dot" : "json");
        }
      }
    }
  }
}

/// A cold summarize in a seeded format, then its cached twin in each
/// format: every seed serves one DOT and one JSON summary hit per trio.
void SummaryTrio(PassBuilder* b, std::vector<Op>* ops, std::size_t s,
                 std::size_t k, cdi::Rng* rng) {
  b->Summarize(ops, s, k, rng->UniformInt(2) == 0 ? "dot" : "json");
  b->Summarize(ops, s, k, "json");
  b->Summarize(ops, s, k, "dot");
}

/// cold_builds: scenarios republished, then fresh questions, then new rows.
/// Each scenario, in seeded order: re-register at its head table (new
/// epoch; the old one's entries are swept on the next touch), a cold
/// planned canonical pair, a mode=full run on another pair, a cold
/// summarize and its cached twins, then the canonical pair again (hit) and
/// the other pair planned (answer), and last one UpdateScenario batch of
/// kColdUpdateRows rows (table copy and append, stats delta, epoch publish;
/// the entries the reads just cached go stale). The light requests come
/// after the summary, as an analyst reads the graph before asking more: a
/// microsecond request right behind milliseconds of pipeline work times
/// cache refills more than the serve path.
constexpr std::size_t kColdUpdateRows = 10;

void BuildColdBuilds(Workload* w, Reference* ref, const Inputs& in,
                     std::uint64_t seed) {
  cdi::Rng rng(cdi::Fnv1a("servebench/cold_builds").Mix(seed).Digest());
  PassBuilder b(&w->sources, ref);
  const std::size_t n = w->sources.size();
  std::vector<std::size_t> budget(n);
  // The other pair: the reversed canonical pair when the planner and the
  // full pipeline accept it, else the first valid pair in attribute order.
  // Fixed, not seeded, so every seed runs the same pipeline work.
  std::vector<std::optional<std::pair<std::string, std::string>>> other(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto& sc = *in.heads[s];
    budget[s] = SummaryBudget(ref, s, {0});
    auto candidates = ValidPairs(ref, in, s, {0});
    std::stable_partition(candidates.begin(), candidates.end(),
                          [&](const auto& p) {
                            return p.first == sc.outcome_attribute &&
                                   p.second == sc.exposure_attribute;
                          });
    for (const auto& p : candidates) {
      if (p.first == sc.exposure_attribute &&
          p.second == sc.outcome_attribute) {
        continue;
      }
      if (ref->FullPayload(s, 0, p.first, p.second).ok()) {
        other[s] = p;
        break;
      }
    }
    WarmUp(&b, &w->warmup, sc, s, budget[s]);
  }
  std::vector<std::size_t> order(n);
  for (std::size_t s = 0; s < n; ++s) order[s] = s;
  rng.Shuffle(&order);
  for (std::size_t s : order) {
    const auto& sc = *in.heads[s];
    const auto& [t, o] = other[s].value_or(
        std::make_pair(sc.exposure_attribute, sc.outcome_attribute));
    b.Register(&w->pass, s);
    b.Planned(&w->pass, s, sc.exposure_attribute, sc.outcome_attribute);
    b.Full(&w->pass, s, t, o);
    SummaryTrio(&b, &w->pass, s, budget[s], &rng);
    b.Planned(&w->pass, s, sc.exposure_attribute, sc.outcome_attribute);
    if (other[s].has_value()) b.Planned(&w->pass, s, t, o);
    b.Update(&w->pass, s);
  }
}

std::uint64_t PassHash(const std::vector<Op>& ops) {
  cdi::Fnv1a h("servebench/pass/v1");
  for (const Op& op : ops) {
    h.Mix(static_cast<std::int64_t>(op.kind))
        .Mix(static_cast<std::int64_t>(op.cls))
        .Mix(op.line);
  }
  return h.Digest();
}

// ---------------------------------------------------------------------------
// The server under test.

struct Stack {
  static cdi::serve::QueryServerOptions Options() {
    cdi::serve::QueryServerOptions o;
    o.num_workers = kServerWorkers;
    o.pipeline_threads = kPipelineThreads;
    return o;
  }
  Stack() : server(&registry, Options()) {}
  cdi::serve::ScenarioRegistry registry;  // outlives the server
  cdi::serve::QueryServer server;
};

/// Counter deltas a pass must produce, derived from its predicted classes.
struct Expected {
  std::uint64_t cache_hits = 0, executions = 0, plan_builds = 0,
                summary_builds = 0, epoch_rollovers = 0, rows_appended = 0;
};

Expected Predict(const std::vector<Op>& ops, const Inputs& in) {
  Expected e;
  for (const Op& op : ops) {
    if (op.kind == Op::kInvalidate) continue;
    if (IsCacheHitClass(op.cls)) ++e.cache_hits;
    if (op.cls == kAnswer || op.cls == kColdPlan || op.cls == kFull ||
        op.cls == kSummarize) {
      ++e.executions;
    }
    if (op.cls == kColdPlan) ++e.plan_builds;
    if (op.cls == kSummarize) ++e.summary_builds;
    if (op.cls == kUpdate) {
      ++e.epoch_rollovers;
      e.rows_appended += in.batches[op.source][op.state].num_rows();
    }
  }
  return e;
}

std::string CheckCounters(const cdi::serve::MetricsSnapshot& d,
                          const Expected& e) {
  std::string bad;
  const auto check = [&](const char* name, std::uint64_t got,
                         std::uint64_t want) {
    if (got != want) {
      bad += std::string(" ") + name + "=" + std::to_string(got) +
             "(want " + std::to_string(want) + ")";
    }
  };
  check("cache_hits", d.cache_hits, e.cache_hits);
  check("executions", d.executions, e.executions);
  check("plan_builds", d.plan_builds, e.plan_builds);
  check("summary_builds", d.summary_builds, e.summary_builds);
  check("epoch_rollovers", d.epoch_rollovers, e.epoch_rollovers);
  check("rows_appended", d.rows_appended, e.rows_appended);
  check("failed", d.failed + d.rejected, 0);
  check("coalesced", d.coalesced, 0);
  return bad;
}

/// The payload of an `ok` response line: everything after `source=<x> `
/// up to ` latency_us=`. Empty when the line is not an ok line of the
/// expected source.
std::string ServedPayload(const std::string& line, bool expect_hit) {
  if (line.rfind("ok ", 0) != 0) return std::string();
  const std::string want =
      expect_hit ? std::string(" source=hit ")
                 : std::string(" source=executed ");
  const std::size_t src = line.find(want);
  const std::size_t tail = line.rfind(" latency_us=");
  if (src == std::string::npos || tail == std::string::npos ||
      tail < src + want.size()) {
    return std::string();
  }
  return line.substr(src + want.size(), tail - src - want.size());
}

struct RunContext {
  const Workload* w = nullptr;
  const Inputs* in = nullptr;
  Reference* ref = nullptr;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  void Fail(const Op& op, const std::string& why) {
    ++failed;
    if (failed <= 5) {
      std::fprintf(stderr, "FAILED %s: %s\n", op.line.c_str(), why.c_str());
    }
  }
};

cdi::serve::QueryServer::ScenarioBuilder HeadBuilder(
    std::shared_ptr<const cdi::datagen::Scenario> head) {
  return [head]() -> Result<std::shared_ptr<const cdi::datagen::Scenario>> {
    return head;
  };
}

/// Issues one request untraced and returns its latency (seconds). The
/// served payload is verified after the clock stops.
double Issue(const Op& op, Stack* st, RunContext* ctx) {
  const Clock::time_point t0 = Clock::now();
  std::string out;
  Status status = Status::OK();
  switch (op.kind) {
    case Op::kLine: {
      auto cmd = cdi::serve::ParseCommandLine(op.line);
      if (!cmd.ok()) {
        status = cmd.status();
        break;
      }
      const auto response = st->server.Execute(cmd->query);
      out = cdi::serve::FormatResponseLine(cmd->query, response);
      break;
    }
    case Op::kUpdateRows: {
      auto r = st->server.UpdateScenario(
          ctx->w->sources[op.source].name,
          ctx->in->batches[op.source][op.state]);
      status = r.ok() ? Status::OK() : r.status();
      break;
    }
    case Op::kRegisterHead: {
      auto r = st->server.RegisterScenario(
          ctx->w->sources[op.source].name,
          HeadBuilder(ctx->in->heads[op.source]), /*replace=*/true);
      status = r.ok() ? Status::OK() : r.status();
      break;
    }
    case Op::kInvalidate:
      st->server.InvalidateCache();
      return 0.0;
  }
  const double seconds = SecondsBetween(t0, Clock::now());
  ++ctx->attempted;
  if (!status.ok()) {
    ctx->Fail(op, status.ToString());
  } else if (op.kind == Op::kLine) {
    const std::string payload = ServedPayload(out, IsCacheHitClass(op.cls));
    if (payload != ctx->ref->payload(op.expect)) {
      ctx->Fail(op, "served payload differs from the direct computation "
                    "(or was served from the wrong source): " +
                        out.substr(0, 160));
    }
  }
  return seconds;
}

/// Datagen for a set-up; a failure here is a broken benchmark, not a
/// failed request.
Inputs GenerateOrDie(const Workload& w, std::uint64_t seed) {
  auto built = MakeInputs(w.sources, seed);
  if (!built.ok()) {
    std::fprintf(stderr, "datagen: %s\n", built.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(built);
}

/// A fresh server with every source registered at its head table. Each
/// registration's latency goes to `register_seconds` when it is non-null.
std::unique_ptr<Stack> PublishOrDie(const Workload& w, const Inputs& in,
                                    Samples* register_seconds) {
  auto stack = std::make_unique<Stack>();
  for (std::size_t s = 0; s < w.sources.size(); ++s) {
    const Clock::time_point t0 = Clock::now();
    auto reg = stack->server.RegisterScenario(w.sources[s].name,
                                              HeadBuilder(in.heads[s]));
    if (register_seconds != nullptr) {
      register_seconds->Add(SecondsBetween(t0, Clock::now()));
    }
    if (!reg.ok()) {
      std::fprintf(stderr, "register: %s\n", reg.status().ToString().c_str());
      std::exit(1);
    }
  }
  return stack;
}

struct SetupResult {
  std::unique_ptr<Stack> stack;
  double seconds = 0;
};

/// One set-up: datagen, registration and warm-up on a fresh server.
/// Warm-up requests are issued and verified like any other request.
SetupResult SetUp(const Workload& w, std::uint64_t seed, Inputs* inputs,
                  RunContext* ctx, Samples* warm_cold_plans) {
  SetupResult r;
  const Clock::time_point t0 = Clock::now();
  *inputs = GenerateOrDie(w, seed);
  r.stack = PublishOrDie(w, *inputs, nullptr);
  RunContext local = *ctx;
  local.in = inputs;
  for (const Op& op : w.warmup) {
    const double sec = Issue(op, r.stack.get(), &local);
    if (op.cls == kColdPlan) warm_cold_plans->Add(sec);
  }
  r.seconds = SecondsBetween(t0, Clock::now());
  ctx->failed = local.failed;
  ctx->attempted = local.attempted;
  return r;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Traced replay: spans around the benchmark's own calls.

struct Spans {
  std::map<std::string, Samples> s;
  Samples& operator[](const std::string& name) { return s[name]; }
  const Samples* Find(const std::string& name) const {
    auto it = s.find(name);
    return it == s.end() ? nullptr : &it->second;
  }
  double Median(const std::string& name) const {
    const Samples* x = Find(name);
    return x == nullptr ? 0.0 : x->Median();
  }
  double Mean(const std::string& name) const {
    const Samples* x = Find(name);
    return x == nullptr ? 0.0 : x->Mean();
  }
};

/// Pipeline::Run, stage by stage, through each stage's public class —
/// the calls the pipeline makes, in its order — with a span per stage.
/// `prefix` ("cold_plan" / "full") keys the per-class span names.
Result<cdi::core::PipelineResult> TracedPipeline(
    const cdi::datagen::Scenario& sc, const cdi::core::PipelineOptions& opts,
    const cdi::table::Table& input, const std::string& exposure,
    const std::string& outcome, const std::string& prefix, Spans* spans) {
  cdi::core::PipelineResult result;
  const std::string& entity = sc.spec.entity_column;
  Clock::time_point t0 = Clock::now();
  {
    cdi::core::KnowledgeExtractor extractor(&sc.kg, &sc.lake, opts.extractor);
    auto r = extractor.Extract(input, entity, exposure, outcome,
                               &result.external);
    if (!r.ok()) return r.status();
    result.extraction = *std::move(r);
  }
  Clock::time_point t1 = Clock::now();
  (*spans)[prefix + ".extract"].Add(SecondsBetween(t0, t1));
  (*spans)[prefix + ".extract.kg_columns"].Add(
      static_cast<double>(result.extraction.kg_columns_found));
  (*spans)[prefix + ".extract.lake_columns"].Add(
      static_cast<double>(result.extraction.lake_columns_found));
  {
    cdi::core::DataOrganizer organizer(opts.organizer);
    auto r = organizer.Organize(result.extraction.augmented, entity, exposure,
                                outcome);
    if (!r.ok()) return r.status();
    result.organization = *std::move(r);
  }
  Clock::time_point t2 = Clock::now();
  (*spans)[prefix + ".organize"].Add(SecondsBetween(t1, t2));
  // Probe, not a child span: the organizer's diagnostic FD inventory,
  // re-run on the organized table (the table it inventories).
  {
    const Clock::time_point p0 = Clock::now();
    auto fds = cdi::core::FindApproximateFds(result.organization.organized,
                                             /*max_error=*/0.01);
    (*spans)[prefix + ".organize.fd_inventory"].Add(
        SecondsBetween(p0, Clock::now()));
    if (!fds.ok()) return fds.status();
  }
  Clock::time_point t3 = Clock::now();
  {
    cdi::core::CdagBuilderOptions builder_options = opts.builder;
    if (opts.num_threads > 1) {
      builder_options.num_threads = opts.num_threads;
      builder_options.discovery.num_threads = opts.num_threads;
    }
    cdi::core::CdagBuilder builder(sc.oracle.get(), &sc.topics,
                                   builder_options);
    auto r = builder.Build(result.organization.organized, entity, exposure,
                           outcome, result.organization.row_weights,
                           &result.external);
    if (!r.ok()) return r.status();
    result.build = *std::move(r);
  }
  Clock::time_point t4 = Clock::now();
  (*spans)[prefix + ".cdag_build"].Add(SecondsBetween(t3, t4));
  (*spans)[prefix + ".cdag_build.ci_tests"].Add(
      static_cast<double>(result.build.ci_tests));
  (*spans)[prefix + ".cdag_build.oracle_queries"].Add(
      static_cast<double>(result.build.oracle_queries));
  (*spans)[prefix + ".cdag_build.clusters"].Add(
      static_cast<double>(result.build.cdag.num_clusters()));
  {
    const auto& cdag = result.build.cdag;
    auto direct = cdi::core::EstimateEffect(
        result.organization.organized, exposure, outcome,
        cdag.DirectEffectAdjustmentAttributes(),
        result.organization.row_weights);
    if (!direct.ok()) return direct.status();
    result.direct_effect = *std::move(direct);
    auto total = cdi::core::EstimateEffect(
        result.organization.organized, exposure, outcome,
        cdag.TotalEffectAdjustmentAttributes(),
        result.organization.row_weights);
    if (!total.ok()) return total.status();
    result.total_effect = *std::move(total);
    result.direct_effect_sensitivity =
        cdi::core::AnalyzeSensitivity(result.direct_effect);
  }
  (*spans)[prefix + ".effect"].Add(SecondsBetween(t4, Clock::now()));
  return result;
}

/// Replays a workload on a fresh server with spans: serve spans around the
/// request path, probes of the cache key and registry snapshot, and direct
/// layer calls that must reproduce every served payload.
class TracedReplay {
 public:
  TracedReplay(const Workload* w, Reference* ref, RunContext* ctx)
      : w_(w), ref_(ref), ctx_(ctx) {}

  void SetUp(std::uint64_t seed) {
    in_ = GenerateOrDie(*w_, seed);
    stack_ = PublishOrDie(*w_, in_, &spans_["registry.register"]);
    warmup_ = true;
    for (const Op& op : w_->warmup) Serve(op);
    Flush();
    warmup_ = false;
  }

  void Pass() {
    for (const Op& op : w_->pass) Serve(op);
    Flush();
  }

  const Spans& spans() const { return spans_; }
  const Spans& warm_spans() const { return warm_spans_; }
  double request_path_seconds() const { return request_path_; }
  Stack* stack() { return stack_.get(); }

 private:
  const cdi::core::CdagPlan* PlanFor(std::size_t s, std::size_t t) {
    auto it = plans_.find({s, t});
    return it == plans_.end() ? nullptr : it->second.get();
  }

  /// Issues one request with serve spans and probes. The direct layer
  /// calls for it wait until the end of the pass (Flush), so they do not
  /// evict the server's working set between requests.
  void Serve(const Op& op) {
    Spans& spans = warmup_ ? warm_spans_ : spans_;
    const std::string& name = w_->sources[op.source].name;
    if (op.kind == Op::kInvalidate) {
      stack_->server.InvalidateCache();
      return;
    }
    ++ctx_->attempted;
    if (op.kind == Op::kUpdateRows) {
      const Clock::time_point t0 = Clock::now();
      auto r = stack_->server.UpdateScenario(name,
                                             in_.batches[op.source][op.state]);
      const double dt = SecondsBetween(t0, Clock::now());
      if (!warmup_) request_path_ += dt;
      spans["serve.update"].Add(dt);
      if (!r.ok()) ctx_->Fail(op, r.status().ToString());
      return;
    }
    if (op.kind == Op::kRegisterHead) {
      const Clock::time_point t0 = Clock::now();
      auto r = stack_->server.RegisterScenario(
          name, HeadBuilder(in_.heads[op.source]), /*replace=*/true);
      const double dt = SecondsBetween(t0, Clock::now());
      if (!warmup_) request_path_ += dt;
      spans["registry.register"].Add(dt);
      if (!r.ok()) ctx_->Fail(op, r.status().ToString());
      return;
    }
    // Request path: parse -> execute -> format, one span each.
    const Clock::time_point t0 = Clock::now();
    auto cmd = cdi::serve::ParseCommandLine(op.line);
    const Clock::time_point t1 = Clock::now();
    if (!cmd.ok()) {
      ctx_->Fail(op, cmd.status().ToString());
      return;
    }
    const cdi::serve::QueryResponse response =
        stack_->server.Execute(cmd->query);
    const Clock::time_point t2 = Clock::now();
    const std::string out =
        cdi::serve::FormatResponseLine(cmd->query, response);
    const Clock::time_point t3 = Clock::now();
    if (!warmup_) request_path_ += SecondsBetween(t0, t3);
    const bool summary =
        cmd->kind == cdi::serve::ServerCommand::Kind::kSummarize;
    const std::string cls = kClsName[op.cls];
    spans["serve.parse"].Add(SecondsBetween(t0, t1));
    spans[cls + ".parse"].Add(SecondsBetween(t0, t1));
    spans[cls + ".execute"].Add(SecondsBetween(t1, t2));
    spans[cls + ".format"].Add(SecondsBetween(t2, t3));
    spans[summary ? "serve.format_summary" : "serve.format_pair"].Add(
        SecondsBetween(t2, t3));
    spans["serve.response_bytes"].Add(static_cast<double>(out.size()));

    const std::string served = ServedPayload(out, IsCacheHitClass(op.cls));
    if (served != ref_->payload(op.expect)) {
      ctx_->Fail(op, "traced: served payload differs: " + out.substr(0, 160));
      return;
    }
    Probe(op, *cmd, response, &spans);
    if (op.cls != kHit && op.cls != kSummaryHit) {
      pending_.emplace_back(&op, served);
    }
  }

  void Flush() {
    for (const auto& [op, served] : pending_) Direct(*op, served);
    pending_.clear();
  }

  /// Direct layer calls for the work the server did for `op`, in the
  /// server's order; the result must equal the served payload.
  void Direct(const Op& op, const std::string& served) {
    Spans& spans = warmup_ ? warm_spans_ : spans_;
    const std::string cls = kClsName[op.cls];
    std::string direct;
    switch (op.cls) {
      case kColdPlan:
      case kFull: {
        const auto& sc = *in_.heads[op.source];
        const bool plan = op.cls == kColdPlan;
        const std::string& t = plan ? sc.exposure_attribute : op.exposure;
        const std::string& o = plan ? sc.outcome_attribute : op.outcome;
        auto run = TracedPipeline(sc, ref_->Options(op.source),
                                  ref_->TableAt(op.source, op.state), t, o,
                                  kClsName[op.cls], &spans);
        if (!run.ok()) {
          ctx_->Fail(op, "traced pipeline: " + run.status().ToString());
          return;
        }
        if (!plan) {
          direct = cdi::serve::FormatResultPayload(*run);
          break;
        }
        const Clock::time_point p0 = Clock::now();
        auto built = cdi::core::CdagPlan::Build(
            std::make_shared<const cdi::core::PipelineResult>(
                *std::move(run)));
        spans["cold_plan.plan_build"].Add(SecondsBetween(p0, Clock::now()));
        if (!built.ok()) {
          ctx_->Fail(op, built.status().ToString());
          return;
        }
        plans_[{op.source, op.state}] =
            std::make_unique<cdi::core::CdagPlan>(*std::move(built));
        [[fallthrough]];
      }
      case kAnswer: {
        const cdi::core::CdagPlan* plan = PlanFor(op.source, op.state);
        if (plan == nullptr) {
          ctx_->Fail(op, "traced: no replayed plan");
          return;
        }
        const Clock::time_point a0 = Clock::now();
        auto answer = plan->AnswerPair(op.exposure, op.outcome);
        spans[cls + ".answer"].Add(SecondsBetween(a0, Clock::now()));
        if (!answer.ok()) {
          ctx_->Fail(op, answer.status().ToString());
          return;
        }
        direct = cdi::serve::FormatPairAnswerPayload(*answer);
        break;
      }
      case kSummarize: {
        const cdi::core::CdagPlan* plan = PlanFor(op.source, op.state);
        if (plan == nullptr) {
          ctx_->Fail(op, "traced: no replayed plan");
          return;
        }
        cdi::summarize::SummarizeOptions options;
        options.budget = op.k;
        const Clock::time_point m0 = Clock::now();
        auto summary = cdi::summarize::SummarizeClusterDag(
            plan->artifact().build.cdag, options);
        const Clock::time_point m1 = Clock::now();
        if (!summary.ok()) {
          ctx_->Fail(op, summary.status().ToString());
          return;
        }
        cdi::serve::SummaryArtifact artifact;
        artifact.dot = summary->ToDot();
        artifact.json = summary->ToJson();
        spans["summarize.merge"].Add(SecondsBetween(m0, m1));
        spans["summarize.render"].Add(SecondsBetween(m1, Clock::now()));
        spans["summarize.pairs_scored"].Add(
            static_cast<double>(summary->pairs_scored()));
        artifact.summary = std::make_shared<const cdi::summarize::SummaryDag>(
            *std::move(summary));
        direct = cdi::serve::FormatSummaryPayload(artifact, op.format);
        break;
      }
      default:
        return;
    }
    if (direct != served) {
      ctx_->Fail(op, "traced: direct layer replay differs from the served "
                     "payload");
    }
  }

  /// Sub-microsecond calls, timed as the mean of 8 repetitions.
  void Probe(const Op& op, const cdi::serve::ServerCommand& cmd,
             const cdi::serve::QueryResponse& response, Spans* spans) {
    constexpr int kReps = 8;
    const std::string& name = w_->sources[op.source].name;
    std::shared_ptr<const cdi::serve::ScenarioBundle> bundle;
    const Clock::time_point s0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto snap = stack_->registry.Snapshot(name);
      if (snap.ok()) bundle = *std::move(snap);
    }
    const Clock::time_point s1 = Clock::now();
    (*spans)["registry.snapshot"].Add(SecondsBetween(s0, s1) / kReps);
    if (bundle == nullptr) {
      ctx_->Fail(op, "traced: registry snapshot failed");
      return;
    }
    std::uint64_t key = 0;
    const Clock::time_point k0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      key = cdi::serve::QueryCacheKey(*bundle, cmd.query);
    }
    (*spans)["serve.cache_key"].Add(SecondsBetween(k0, Clock::now()) / kReps);
    if (key != response.cache_key) {
      ctx_->Fail(op, "traced: cache key differs from the served one");
    }
  }

  const Workload* w_;
  Reference* ref_;
  RunContext* ctx_;
  Inputs in_;
  std::unique_ptr<Stack> stack_;
  std::map<std::pair<std::size_t, std::size_t>,
           std::unique_ptr<cdi::core::CdagPlan>>
      plans_;
  std::vector<std::pair<const Op*, std::string>> pending_;
  Spans spans_;
  Spans warm_spans_;
  bool warmup_ = false;
  double request_path_ = 0.0;
};

/// Pins the process (and so every thread it starts) to one CPU: the
/// highest-numbered one it may run on. With one closed-loop client and
/// pipeline_threads = 1 the server never works on two requests at once, so
/// this removes only cross-CPU wake-ups, whose latency on a VM is set by
/// the hypervisor and moved the answer-class median by 30% between runs.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::vector<std::size_t> ClassCounts(const std::vector<Op>& ops) {
  std::vector<std::size_t> n(kNumCls, 0);
  for (const Op& op : ops) {
    if (op.kind != Op::kInvalidate) ++n[static_cast<std::size_t>(op.cls)];
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload warm_queries|cold_builds "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }

  const int cpu = PinToOneCpu();

  // ---- Workload definition and the direct computation (untimed). -------
  Workload w;
  w.name = args.workload;
  if (w.name == "warm_queries" || w.name == "cold_builds") {
    w.sources = SliceSources();
    if (w.name == "cold_builds") {
      // One batch held back per scenario: the update that ends its segment.
      for (SourceSpec& spec : w.sources) {
        spec.held_rows = spec.batch_rows = kColdUpdateRows;
      }
    }
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", w.name.c_str());
    return 2;
  }
  auto ref_inputs = MakeInputs(w.sources, args.seed);
  if (!ref_inputs.ok()) {
    std::fprintf(stderr, "datagen: %s\n",
                 ref_inputs.status().ToString().c_str());
    return 1;
  }
  Reference ref(&w.sources, &*ref_inputs);
  // Nominal passes: what a 25 s run completes on a 4-vCPU VM in its slower
  // state (fast stretches reach ~1.5x). They fix the tail percentiles; the
  // 45 s runs of BENCHMARK.json leave more samples beyond each tail.
  if (w.name == "warm_queries") {
    BuildWarmQueries(&w, &ref, *ref_inputs, args.seed);
    w.nominal_passes = 150;
  } else {
    BuildColdBuilds(&w, &ref, *ref_inputs, args.seed);
    w.nominal_passes = 35;
  }
  const std::uint64_t pass_hash = PassHash(w.pass);
  const std::vector<std::size_t> per_pass = ClassCounts(w.pass);
  const Expected expected = Predict(w.pass, *ref_inputs);

  // Deterministic layer counts of one pass, from the direct computation.
  std::uint64_t ci_tests = 0, oracle_queries = 0, pairs_scored = 0;
  for (const Op& op : w.pass) {
    if (op.cls == kColdPlan) {
      const auto c = ref.PlanCounts(op.source, op.state);
      ci_tests += c.ci_tests;
      oracle_queries += c.oracle_queries;
    } else if (op.cls == kFull) {
      const auto c = ref.FullCounts(op.source, op.state, op.exposure,
                                    op.outcome);
      ci_tests += c.ci_tests;
      oracle_queries += c.oracle_queries;
    } else if (op.cls == kSummarize) {
      pairs_scored += ref.PairsScored(op.source, op.state, op.k);
    }
  }

  RunContext ctx;
  ctx.w = &w;
  ctx.ref = &ref;

  // ---- Set-up. The first set-up's server is measured; the other
  // kSetups - 1 build throwaway servers spread across the measured phase,
  // so setup_s (the median) samples the machine at several moments rather
  // than in one burst.
  Samples setup_seconds, setup_cold_plans;
  Inputs inputs;
  SetupResult first = SetUp(w, args.seed, &inputs, &ctx, &setup_cold_plans);
  setup_seconds.Add(first.seconds);
  std::unique_ptr<Stack> stack = std::move(first.stack);
  ctx.in = &inputs;
  const std::uint64_t setup_failed = ctx.failed;
  const auto spare_setup = [&] {
    Inputs spare;
    setup_seconds.Add(
        SetUp(w, args.seed, &spare, &ctx, &setup_cold_plans).seconds);
  };

  // ---- Measured phase: whole passes until --seconds have elapsed. ------
  std::vector<Histogram> lat(kNumCls);
  Samples pass_busy;  // summed request latency of each pass
  // Per class: the median of each pass that has the class.
  std::vector<Samples> pass_p50(kNumCls);
  std::vector<Samples> in_pass(kNumCls);
  std::size_t passes = 0;
  std::string counters_line;
  std::string counter_mismatch;
  const Clock::time_point start = Clock::now();
  while (passes == 0 || SecondsBetween(start, Clock::now()) < args.seconds) {
    const cdi::serve::MetricsSnapshot before = stack->server.Metrics();
    double busy_in_pass = 0;
    for (Samples& s : in_pass) s.v.clear();
    for (const Op& op : w.pass) {
      const double sec = Issue(op, stack.get(), &ctx);
      if (op.kind == Op::kInvalidate) continue;
      lat[static_cast<std::size_t>(op.cls)].Add(sec);
      in_pass[static_cast<std::size_t>(op.cls)].Add(sec);
      busy_in_pass += sec;
    }
    pass_busy.Add(busy_in_pass);
    for (int c = 0; c < kNumCls; ++c) {
      const Samples& s = in_pass[static_cast<std::size_t>(c)];
      if (s.size() > 0) pass_p50[static_cast<std::size_t>(c)].Add(s.Median());
    }
    const cdi::serve::MetricsSnapshot after = stack->server.Metrics();
    const cdi::serve::MetricsSnapshot d = after.Since(before);
    if (std::string bad = CheckCounters(d, expected); !bad.empty()) {
      counter_mismatch = bad;
    }
    if (passes == 0) {
      char buf[1024];
      std::snprintf(
          buf, sizeof(buf),
          "counters workload=%s seed=%llu pass_requests=%zu "
          "request_hash=%016llx submitted=%llu served=%llu cache_hits=%llu "
          "executions=%llu plan_builds=%llu summary_builds=%llu "
          "evicted_stale=%llu epoch_rollovers=%llu rows_appended=%llu "
          "scenarios_registered=%llu result_cache_entries=%llu "
          "plan_cache_entries=%llu summary_cache_entries=%llu "
          "registry_bytes=%llu ci_tests=%llu oracle_queries=%llu "
          "pairs_scored=%llu",
          w.name.c_str(), static_cast<unsigned long long>(args.seed),
          w.pass.size(), static_cast<unsigned long long>(pass_hash),
          static_cast<unsigned long long>(d.submitted),
          static_cast<unsigned long long>(d.served),
          static_cast<unsigned long long>(d.cache_hits),
          static_cast<unsigned long long>(d.executions),
          static_cast<unsigned long long>(d.plan_builds),
          static_cast<unsigned long long>(d.summary_builds),
          static_cast<unsigned long long>(d.evicted_stale),
          static_cast<unsigned long long>(d.epoch_rollovers),
          static_cast<unsigned long long>(d.rows_appended),
          static_cast<unsigned long long>(d.scenarios_registered),
          static_cast<unsigned long long>(after.result_cache_entries),
          static_cast<unsigned long long>(after.plan_cache_entries),
          static_cast<unsigned long long>(after.summary_cache_entries),
          static_cast<unsigned long long>(after.registry_bytes),
          static_cast<unsigned long long>(ci_tests),
          static_cast<unsigned long long>(oracle_queries),
          static_cast<unsigned long long>(pairs_scored));
      counters_line = buf;
    }
    ++passes;
    const double elapsed = SecondsBetween(start, Clock::now());
    while (static_cast<int>(setup_seconds.size()) < kSetups &&
           elapsed * kSetups >=
               args.seconds * static_cast<double>(setup_seconds.size())) {
      spare_setup();
    }
  }
  const double measured_seconds = SecondsBetween(start, Clock::now());
  while (static_cast<int>(setup_seconds.size()) < kSetups) spare_setup();
  std::printf("workload %s seed=%llu seconds=%.1f passes=%zu pass_requests=%zu "
              "setups=%d workers=%d pipeline_threads=%d cpu=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              measured_seconds, passes, w.pass.size(), kSetups,
              kServerWorkers, kPipelineThreads, cpu);
  std::printf("%s\n", counters_line.c_str());
  std::printf("pass busy_ms p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f\n",
              pass_busy.Quantile(0.1) * 1e3, pass_busy.Quantile(0.25) * 1e3,
              pass_busy.Median() * 1e3, pass_busy.Quantile(0.75) * 1e3,
              pass_busy.Quantile(0.9) * 1e3);
  if (!counter_mismatch.empty()) {
    std::fprintf(stderr, "FAILED counters:%s\n", counter_mismatch.c_str());
  }

  std::size_t requests = 0;
  for (const Histogram& s : lat) requests += s.size();
  // The gated median of a class: per pass, then PassQuantile over passes.
  const auto p50 = [&](int c) {
    const std::size_t i = static_cast<std::size_t>(c);
    return pass_p50[i].Quantile(PassQuantile(per_pass[i]));
  };
  // Per-class report: whole-run quantiles, the tail percentile for this
  // workload's nominal sample count (per-pass count x passes of a nominal
  // run) and the gated per-pass median (pass_p50).
  const auto tail_of = [&](int c) {
    return TailQuantile(per_pass[static_cast<std::size_t>(c)] *
                        w.nominal_passes);
  };
  for (int c = 0; c < kNumCls; ++c) {
    const Histogram& s = lat[static_cast<std::size_t>(c)];
    if (s.size() == 0) continue;
    const double q = tail_of(c);
    const std::size_t beyond = static_cast<std::size_t>(
        std::floor((1.0 - q) * static_cast<double>(s.size())));
    std::printf("class %s n=%zu p10_us=%.3f p25_us=%.3f p50_us=%.3f "
                "p75_us=%.3f %s_us=%.3f beyond=%zu pass_p50_us=%.3f%s\n",
                kClsName[c], s.size(), s.Quantile(0.1) * 1e6,
                s.Quantile(0.25) * 1e6, s.Median() * 1e6,
                s.Quantile(0.75) * 1e6, PercentileName(q).c_str(),
                s.Quantile(q) * 1e6, beyond,
                p50(c) * 1e6,
                beyond < 10 ? " (fewer than 10 samples beyond the tail)" : "");
  }
  if (setup_cold_plans.size() > 0) {
    std::printf("class setup.cold_plan n=%zu p50_us=%.3f\n",
                setup_cold_plans.size(), setup_cold_plans.Median() * 1e6);
  }
  const auto ms = [&](int c, double q) {
    return lat[static_cast<std::size_t>(c)].Quantile(q) * 1e3;
  };
  // Class metrics that exist only on some workloads: reported here, not in
  // the JSON (which carries the metrics every workload has).
  for (const auto& [c, name] : std::vector<std::pair<int, std::string>>{
           {kColdPlan, "cold_plan"}, {kFull, "full"}}) {
    if (lat[static_cast<std::size_t>(c)].size() == 0) continue;
    std::printf("metric %s_p50_ms %.6f ms\n", name.c_str(), p50(c) * 1e3);
    std::printf("metric %s_tail_ms %.6f ms (%s)\n", name.c_str(),
                ms(c, tail_of(c)), PercentileName(tail_of(c)).c_str());
  }
  if (lat[kUpdate].size() > 0) {
    std::printf("metric update_p50_us %.6f us\n", p50(kUpdate) * 1e6);
  }
  if (lat[kRegister].size() > 0) {
    std::printf("metric register_p50_us %.6f us\n", p50(kRegister) * 1e6);
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", setup_seconds.Median(), "s"},
        {"peak_rss_mb", PeakRssMiB(), "MiB"},
        // Requests per second of client-observed service time at the
        // PassQuantile pass time.
        {"throughput_rps",
         static_cast<double>(requests / passes) /
             pass_busy.Quantile(PassQuantile(requests / passes)),
         "1/s"},
        {"hit_p50_us", p50(kHit) * 1e6, "us"},
        {"summary_hit_p50_us", p50(kSummaryHit) * 1e6, "us"},
        {"answer_p50_us", p50(kAnswer) * 1e6, "us"},
        {"summarize_p50_ms", p50(kSummarize) * 1e3, "ms"},
        {"summarize_tail_ms", ms(kSummarize, tail_of(kSummarize)), "ms"},
    };
  } else {
    // ---- Traced replay of the same passes on a fresh server. -----------
    stack.reset();
    TracedReplay replay(&w, &ref, &ctx);
    replay.SetUp(args.seed);
    const cdi::serve::MetricsSnapshot before = replay.stack()->server.Metrics();
    // Half the measured passes: the replay does every layer's work twice
    // (server, then direct calls), so this keeps it near --seconds.
    const std::size_t replayed = std::max<std::size_t>(1, passes / 2);
    for (std::size_t p = 0; p < replayed; ++p) replay.Pass();
    const cdi::serve::MetricsSnapshot after = replay.stack()->server.Metrics();
    const cdi::serve::MetricsSnapshot d = after.Since(before);
    const double per_replayed = static_cast<double>(replayed);
    const Spans& sp = replay.spans();
    // warm_queries builds plans only in set-up: its core.* spans time those.
    const bool core_from_setup = per_pass[kColdPlan] == 0;
    const Spans& core = core_from_setup ? replay.warm_spans() : sp;
    const double untraced_cold_plan =
        core_from_setup ? setup_cold_plans.Mean() : lat[kColdPlan].Mean();

    const double answer_us = sp.Median("answer.answer") * 1e6;
    // Same passes, same requests: the traced request path over the
    // untraced one.
    double untraced_path = 0;
    for (std::size_t p = 0; p < replayed; ++p) untraced_path += pass_busy.v[p];
    const double overhead = replay.request_path_seconds() / untraced_path - 1.0;

    // The ledger: each class's untraced mean split over the means of its
    // layer spans; the rest is the serve residual. Means, because a class
    // mixes scenarios of very different cost and medians of a mixture do
    // not add up (the sum of stage medians overshot the cold-plan median
    // by 15%).
    struct Ledger {
      std::string cls;
      double untraced;  // seconds
      std::vector<std::pair<std::string, double>> layers;
    };
    const auto layers_of = [](const Spans& s, const std::string& c,
                              std::vector<std::string> names) {
      std::vector<std::pair<std::string, double>> out;
      for (const auto& n : names) out.emplace_back(n, s.Mean(c + "." + n));
      return out;
    };
    std::vector<Ledger> ledgers;
    ledgers.push_back({"cold_plan", untraced_cold_plan,
                       layers_of(core, "cold_plan",
                                 {"parse", "extract", "organize",
                                  "cdag_build", "effect", "plan_build",
                                  "answer", "format"})});
    ledgers.push_back({"summarize", lat[kSummarize].Mean(),
                       layers_of(sp, "summarize",
                                 {"parse", "merge", "render", "format"})});
    ledgers.push_back({"answer", lat[kAnswer].Mean(),
                       layers_of(sp, "answer", {"parse", "answer", "format"})});
    ledgers.push_back({"hit", lat[kHit].Mean(),
                       layers_of(sp, "hit", {"parse", "execute", "format"})});
    ledgers.push_back(
        {"summary_hit", lat[kSummaryHit].Mean(),
         layers_of(sp, "summary_hit", {"parse", "execute", "format"})});
    if (per_pass[kFull] > 0) {
      ledgers.push_back({"full", lat[kFull].Mean(),
                         layers_of(sp, "full",
                                   {"parse", "extract", "organize",
                                    "cdag_build", "effect", "format"})});
    }
    std::map<std::string, double> share;
    for (const Ledger& l : ledgers) {
      double sum = 0;
      std::string line = "ledger " + l.cls;
      char buf[96];
      std::snprintf(buf, sizeof(buf), " untraced_mean_us=%.3f",
                    l.untraced * 1e6);
      line += buf;
      for (const auto& [n, v] : l.layers) {
        sum += v;
        const double f = l.untraced > 0 ? v / l.untraced : 0.0;
        share[l.cls + ".share." + n] = f;
        std::snprintf(buf, sizeof(buf), " %s=%.3fus(%.1f%%)", n.c_str(),
                      v * 1e6, 100 * f);
        line += buf;
      }
      const double residual = l.untraced - sum;
      share[l.cls + ".residual_share"] =
          l.untraced > 0 ? residual / l.untraced : 0.0;
      std::snprintf(buf, sizeof(buf), " residual=%.3fus(%.1f%%)",
                    residual * 1e6,
                    100 * share[l.cls + ".residual_share"]);
      line += buf;
      if (l.cls == "cold_plan" && core_from_setup) line += " source=setup";
      std::printf("%s\n", line.c_str());
    }
    if (lat[kUpdate].size() > 0) {
      std::printf("layer serve.update_tail_us %.3f us\n",
                  lat[kUpdate].Quantile(tail_of(kUpdate)) * 1e6);
    }
    if (per_pass[kFull] > 0) {
      std::printf("layer full.organize.fd_inventory_ms %.6g ms\n",
                  sp.Median("full.organize.fd_inventory") * 1e3);
    }

    const auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto served = d.served > 0 ? cnt(d.served) : 1.0;
    metrics = {
        {"serve.parse_us", sp.Median("serve.parse") * 1e6, "us"},
        {"serve.format_pair_us", sp.Median("serve.format_pair") * 1e6, "us"},
        {"serve.format_summary_us", sp.Median("serve.format_summary") * 1e6,
         "us"},
        {"serve.response_bytes", sp.Mean("serve.response_bytes"), "bytes"},
        {"serve.execute_hit_us", sp.Median("hit.execute") * 1e6, "us"},
        {"serve.cache_key_us", sp.Median("serve.cache_key") * 1e6, "us"},
        {"registry.snapshot_us", sp.Median("registry.snapshot") * 1e6, "us"},
        {"serve.handoff_us", lat[kAnswer].Median() * 1e6 - answer_us, "us"},
        {"serve.hit_tail_us", lat[kHit].Quantile(tail_of(kHit)) * 1e6, "us"},
        {"serve.answer_tail_us",
         lat[kAnswer].Quantile(tail_of(kAnswer)) * 1e6, "us"},
        {"serve.hit_share", cnt(d.cache_hits) / served, "ratio"},
        {"serve.executions", cnt(d.executions) / per_replayed, "count"},
        {"serve.plan_builds", cnt(d.plan_builds) / per_replayed, "count"},
        {"serve.summary_builds", cnt(d.summary_builds) / per_replayed, "count"},
        {"serve.evicted_stale", cnt(d.evicted_stale) / per_replayed, "count"},
        {"serve.epoch_rollovers", cnt(d.epoch_rollovers) / per_replayed,
         "count"},
        {"serve.rows_appended", cnt(d.rows_appended) / per_replayed, "count"},
        {"serve.result_cache_entries", cnt(after.result_cache_entries),
         "count"},
        {"serve.plan_cache_entries", cnt(after.plan_cache_entries), "count"},
        {"serve.summary_cache_entries", cnt(after.summary_cache_entries),
         "count"},
        {"registry.register_us", sp.Median("registry.register") * 1e6, "us"},
        {"registry.bytes", cnt(after.registry_bytes), "bytes"},
        {"core.extract_ms", core.Median("cold_plan.extract") * 1e3, "ms"},
        {"core.extract.kg_columns",
         core.Mean("cold_plan.extract.kg_columns"), "count"},
        {"core.extract.lake_columns",
         core.Mean("cold_plan.extract.lake_columns"), "count"},
        {"core.organize_ms", core.Median("cold_plan.organize") * 1e3, "ms"},
        {"core.organize.fd_inventory_ms",
         core.Median("cold_plan.organize.fd_inventory") * 1e3, "ms"},
        {"core.cdag_build_ms", core.Median("cold_plan.cdag_build") * 1e3, "ms"},
        {"core.cdag_build.ci_tests",
         core.Mean("cold_plan.cdag_build.ci_tests"), "count"},
        {"core.cdag_build.oracle_queries",
         core.Mean("cold_plan.cdag_build.oracle_queries"), "count"},
        {"core.cdag_build.clusters",
         core.Mean("cold_plan.cdag_build.clusters"), "count"},
        {"core.effect_ms", core.Median("cold_plan.effect") * 1e3, "ms"},
        {"core.plan_build_ms", core.Median("cold_plan.plan_build") * 1e3, "ms"},
        {"core.answer_us", answer_us, "us"},
        {"summarize.merge_ms", sp.Median("summarize.merge") * 1e3, "ms"},
        {"summarize.pairs_scored", sp.Mean("summarize.pairs_scored"), "count"},
    };
    for (const char* n :
         {"cold_plan.share.extract", "cold_plan.share.organize",
          "cold_plan.share.cdag_build", "cold_plan.share.effect",
          "cold_plan.share.plan_build", "cold_plan.share.answer",
          "cold_plan.residual_share", "summarize.share.merge",
          "summarize.share.render", "summarize.residual_share",
          "answer.share.answer", "answer.residual_share"}) {
      metrics.push_back({n, share[n], "ratio"});
    }
    metrics.push_back({"trace.overhead_share", overhead, "ratio"});
    for (const Metric& m : metrics) {
      std::printf("layer %s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  const bool correct = ctx.failed == 0 && counter_mismatch.empty();
  if (setup_failed > 0) {
    std::fprintf(stderr, "FAILED: %llu set-up requests\n",
                 static_cast<unsigned long long>(setup_failed));
  }
  PrintJson(correct, ctx.attempted, ctx.failed, metrics);
  return correct ? 0 : 1;
}
