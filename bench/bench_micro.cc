// google-benchmark microbenchmarks for the CDI substrates: correlation
// matrix and Gram kernels, Fisher-z CI tests, PC / GES / VARCLUS scaling,
// d-separation, the end-to-end pipeline stages and the serving layer.

#include <benchmark/benchmark.h>

#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "core/evaluation.h"
#include "core/plan.h"
#include "core/varclus.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "discovery/ci_test.h"
#include "discovery/ges.h"
#include "discovery/pc.h"
#include "graph/dsep.h"
#include "graph/random_graph.h"
#include "serve/query_server.h"
#include "serve/scenario_registry.h"
#include "summarize/summarize.h"
#include "stats/correlation.h"
#include "stats/gram_kernel.h"
#include "stats/linalg.h"
#include "stats/sufficient_stats.h"

namespace {

using cdi::Rng;

std::vector<std::vector<double>> ChainData(std::size_t vars, std::size_t n,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(vars, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    cols[0][i] = rng.Normal();
    for (std::size_t v = 1; v < vars; ++v) {
      cols[v][i] = 0.6 * cols[v - 1][i] + rng.Normal();
    }
  }
  return cols;
}

void BM_CorrelationMatrix(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto ds = cdi::stats::NumericDataset::Own(ChainData(vars, 1000, 5));
  for (auto _ : state) {
    auto corr = cdi::stats::CorrelationMatrix(ds);
    benchmark::DoNotOptimize(corr->rows());
  }
}
BENCHMARK(BM_CorrelationMatrix)->Arg(10)->Arg(30)->Arg(100)->Arg(200)->Arg(400);

// One full statistics pass (400 vars x 1000 rows) pinned to each SIMD
// backend compiled into this binary. Arg(0) indexes AvailableGramKernels()
// (0 = scalar, then avx2/neon, then avx512); unavailable indices report
// as skipped rather than silently re-measuring another backend. Results
// are bitwise identical across rows — only the speed may differ.
void BM_GramSimd(benchmark::State& state) {
  const auto kernels = cdi::stats::AvailableGramKernels();
  const auto idx = static_cast<std::size_t>(state.range(0));
  if (idx >= kernels.size()) {
    state.SkipWithError("backend not compiled in / not supported here");
    return;
  }
  cdi::stats::SetGramKernelForTesting(kernels[idx]);
  auto ds = cdi::stats::NumericDataset::Own(ChainData(400, 1000, 5));
  for (auto _ : state) {
    auto corr = cdi::stats::CorrelationMatrix(ds);
    benchmark::DoNotOptimize(corr->rows());
  }
  cdi::stats::SetGramKernelForTesting(nullptr);
  state.SetLabel(kernels[idx]->name);
}
BENCHMARK(BM_GramSimd)->Arg(0)->Arg(1)->Arg(2);

// ------------------------------------- sufficient-statistics sweep
// The blocked Gram kernel vs the retired scalar reference, a threads ×
// vars sweep, and incremental column append vs full recompute. See
// EXPERIMENTS.md "Sufficient-statistics sweep".

void BM_CovarianceReference(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto ds = cdi::stats::NumericDataset::Own(ChainData(vars, 2000, 5));
  for (auto _ : state) {
    auto cov = cdi::stats::ReferenceCovarianceMatrix(ds);
    benchmark::DoNotOptimize(cov->rows());
  }
}
BENCHMARK(BM_CovarianceReference)->Arg(100)->Arg(200)->Arg(400);

// Arg(0) = threads, Arg(1) = vars. The pool is created outside the timed
// region (long-lived in real use); results are bitwise identical across
// every thread count, so this sweep measures pure scheduling overhead /
// speedup.
void BM_CovarianceBlockedSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto vars = static_cast<std::size_t>(state.range(1));
  auto ds = cdi::stats::NumericDataset::Own(ChainData(vars, 2000, 5));
  std::unique_ptr<cdi::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<cdi::ThreadPool>(
        static_cast<std::size_t>(threads));
  }
  for (auto _ : state) {
    auto cov = cdi::stats::CovarianceMatrix(ds, pool.get());
    benchmark::DoNotOptimize(cov->rows());
  }
  state.SetLabel("t" + std::to_string(threads) + "/v" +
                 std::to_string(vars));
}
// UseRealTime: with a pool the work runs on worker threads, whose CPU the
// default (main-thread) cpu_time does not see — wall clock is the honest
// metric for the threaded rows.
BENCHMARK(BM_CovarianceBlockedSweep)
    ->UseRealTime()
    ->Args({1, 100})
    ->Args({1, 200})
    ->Args({1, 400})
    ->Args({2, 200})
    ->Args({4, 200})
    ->Args({8, 200})
    ->Args({8, 400});

// Streaming row ingest: delta-refreshing a 200-column Gram after a
// k-row batch vs recomputing from scratch over the grown data. The delta
// path must re-sweep the Gram (the means move, so every centered
// accumulation changes — bitwise contract), but it skips the full-table
// NaN prescan and column-sum scans, so it wins by the scan cost.
void BM_AppendRows(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t n0 = 2000;
  auto data = ChainData(200, n0 + k, 7);
  cdi::stats::NumericDataset base;
  for (const auto& col : data) {
    base.columns.push_back(cdi::DoubleSpan::Borrow(col.data(), n0));
  }
  std::vector<cdi::DoubleSpan> full;
  for (const auto& col : data) full.emplace_back(col);
  auto stats = cdi::stats::SufficientStats::Compute(base);
  CDI_CHECK(stats.ok());
  for (auto _ : state) {
    state.PauseTiming();
    auto s = *stats;
    state.ResumeTiming();
    CDI_CHECK(s.AppendRows(full, k).ok());
    benchmark::DoNotOptimize(s.num_rows());
  }
}
BENCHMARK(BM_AppendRows)->Arg(64)->Arg(512);

void BM_AppendRowsRecompute(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  auto data = ChainData(200, 2000 + k, 7);
  cdi::stats::NumericDataset ds;
  for (const auto& col : data) ds.columns.emplace_back(col);
  for (auto _ : state) {
    auto s = cdi::stats::SufficientStats::Compute(ds);
    CDI_CHECK(s.ok());
    benchmark::DoNotOptimize(s->num_rows());
  }
}
BENCHMARK(BM_AppendRowsRecompute)->Arg(64)->Arg(512);

void BM_FisherZPartialCorrelation(benchmark::State& state) {
  auto ds = cdi::stats::NumericDataset::Own(ChainData(20, 1000, 7));
  auto test = cdi::discovery::FisherZTest::Create(ds);
  const std::vector<std::size_t> cond = {2, 5, 9};
  for (auto _ : state) {
    benchmark::DoNotOptimize((*test)->PValue(0, 10, cond));
  }
}
BENCHMARK(BM_FisherZPartialCorrelation);

// PC's inner pattern — lexicographic subsets of one candidate pool as
// conditioning sets, each answered by one partial-correlation factor.
void BM_PartialCorrSubsets(benchmark::State& state) {
  auto ds = cdi::stats::NumericDataset::Own(ChainData(20, 1000, 7));
  auto test = cdi::discovery::FisherZTest::Create(ds);
  CDI_CHECK(test.ok());
  const std::vector<std::size_t> pool = {2, 4, 5, 8, 9, 11, 13, 16};
  std::vector<std::size_t> cond(4);
  for (auto _ : state) {
    double sum = 0.0;
    // All 70 4-subsets of the 8-candidate pool, in subset order.
    for (std::size_t a = 0; a < pool.size(); ++a) {
      for (std::size_t b = a + 1; b < pool.size(); ++b) {
        for (std::size_t c = b + 1; c < pool.size(); ++c) {
          for (std::size_t d = c + 1; d < pool.size(); ++d) {
            cond = {pool[a], pool[b], pool[c], pool[d]};
            sum += (*test)->PValue(0, 10, cond);
          }
        }
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_PartialCorrSubsets);

// Each variable loads on its three predecessors, so the skeleton keeps
// edges through the low levels and PC runs many size-2..4 conditioning
// sets — the regime where every query factors a submatrix. A plain chain
// separates almost every pair at level 0/1, where closed forms answer.
std::vector<std::vector<double>> DenseData(std::size_t vars, std::size_t n,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> cols(vars, std::vector<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t v = 0; v < vars; ++v) {
      double x = rng.Normal();
      for (std::size_t k = 1; k <= 3 && k <= v; ++k) {
        x += 0.45 * cols[v - k][i];
      }
      cols[v][i] = x;
    }
  }
  return cols;
}

// Full PC-stable skeleton over the dense 30-variable data.
void BM_PcSkeletonDense(benchmark::State& state) {
  const std::size_t vars = 30;
  auto ds = cdi::stats::NumericDataset::Own(DenseData(vars, 800, 9));
  std::vector<std::string> names;
  for (std::size_t v = 0; v < vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  auto test = cdi::discovery::FisherZTest::Create(ds);
  CDI_CHECK(test.ok());
  for (auto _ : state) {
    auto result = cdi::discovery::RunPc(**test, names);
    benchmark::DoNotOptimize(result->ci_tests);
  }
}
BENCHMARK(BM_PcSkeletonDense);

void BM_PcScaling(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto ds = cdi::stats::NumericDataset::Own(ChainData(vars, 800, 9));
  std::vector<std::string> names;
  for (std::size_t v = 0; v < vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  for (auto _ : state) {
    auto test = cdi::discovery::FisherZTest::Create(ds);
    auto result = cdi::discovery::RunPc(**test, names);
    benchmark::DoNotOptimize(result->ci_tests);
  }
}
BENCHMARK(BM_PcScaling)->Arg(5)->Arg(10)->Arg(20);

// Thread sweep over the PC-stable skeleton on one FisherZTest. The test
// (correlation matrix) is built once outside the timed region, so this
// times only the skeleton and orientation phases; compare against
// BM_PcScaling, which rebuilds the FisherZTest per run. Every query is a
// pure function of its arguments, so the result is the same at any
// thread count.
void BM_PcThreadsSweep(benchmark::State& state) {
  const std::size_t vars = 20;
  const int threads = static_cast<int>(state.range(0));
  auto ds = cdi::stats::NumericDataset::Own(ChainData(vars, 800, 9));
  std::vector<std::string> names;
  for (std::size_t v = 0; v < vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  cdi::discovery::PcOptions options;
  options.num_threads = threads;
  // The pool is long-lived in real use (one engine, many runs); spawning
  // threads inside the timed region would benchmark pthread_create.
  std::unique_ptr<cdi::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<cdi::ThreadPool>(
        static_cast<std::size_t>(threads));
    options.pool = pool.get();
  }
  auto test = cdi::discovery::FisherZTest::Create(ds);
  CDI_CHECK(test.ok());
  for (auto _ : state) {
    auto result = cdi::discovery::RunPc(**test, names, options);
    benchmark::DoNotOptimize(result->ci_tests);
  }
  state.SetLabel("t" + std::to_string(threads));
}
BENCHMARK(BM_PcThreadsSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GesScaling(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto data = ChainData(vars, 800, 11);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  for (auto _ : state) {
    auto result = cdi::discovery::RunGes(cdi::SpansOf(data), names);
    benchmark::DoNotOptimize(result->bic);
  }
}
BENCHMARK(BM_GesScaling)->Arg(5)->Arg(10)->Arg(20);

void BM_VarClus(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto data = ChainData(vars, 800, 13);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < vars; ++v) {
    names.push_back("v" + std::to_string(v));
  }
  cdi::core::VarClusOptions options;
  options.min_clusters = static_cast<int>(vars / 3);
  options.max_clusters = static_cast<int>(vars / 3);
  for (auto _ : state) {
    auto result = cdi::core::RunVarClus(cdi::SpansOf(data), names, options);
    benchmark::DoNotOptimize(result->clusters.size());
  }
}
BENCHMARK(BM_VarClus)->Arg(9)->Arg(18)->Arg(36);

// ------------------------------------------------- storage sweep
// Copy path (ToDoubles per access) vs the zero-copy DoubleSpan view over
// the typed column buffer. See EXPERIMENTS.md "Typed storage sweep".

cdi::table::Table WideDoubleTable(std::size_t vars, std::size_t n,
                                  uint64_t seed) {
  Rng rng(seed);
  cdi::table::Table t("wide");
  for (std::size_t v = 0; v < vars; ++v) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = rng.Normal();
    CDI_CHECK(t.AddColumn(cdi::table::Column::FromDoubles(
                              "v" + std::to_string(v), col))
                  .ok());
  }
  return t;
}

void BM_ColumnScanCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto t = WideDoubleTable(1, n, 21);
  const auto& col = t.ColumnAt(0);
  for (auto _ : state) {
    const std::vector<double> vals = col.ToDoubles();
    double s = 0;
    for (double v : vals) s += v;
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ColumnScanCopy)->Arg(10000)->Arg(100000)->Arg(1000000)->Arg(4000000);

// Per-cell boxed access: what a scan cost when columns stored
// std::vector<Value> (each read re-boxes a Value). ToDoubles() on the
// typed buffer is a single memcpy, so Copy-vs-View isolates just the
// materialization overhead; Boxed-vs-View is the full storage win.
void BM_ColumnScanBoxed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto t = WideDoubleTable(1, n, 21);
  const auto& col = t.ColumnAt(0);
  for (auto _ : state) {
    double s = 0;
    for (std::size_t r = 0; r < n; ++r) s += col.Get(r).ToNumeric();
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ColumnScanBoxed)->Arg(10000)->Arg(100000)->Arg(1000000)->Arg(4000000);

void BM_ColumnScanView(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto t = WideDoubleTable(1, n, 21);
  const auto& col = t.ColumnAt(0);
  for (auto _ : state) {
    const cdi::DoubleSpan vals = col.View();
    double s = 0;
    for (double v : vals) s += v;
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ColumnScanView)->Arg(10000)->Arg(100000)->Arg(1000000)->Arg(4000000);

void BM_CorrMatrixFromTableCopy(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto t = WideDoubleTable(vars, 2000, 23);
  for (auto _ : state) {
    std::vector<std::vector<double>> cols;
    cols.reserve(vars);
    for (std::size_t v = 0; v < vars; ++v) {
      cols.push_back(t.ColumnAt(v).ToDoubles());
    }
    auto ds = cdi::stats::NumericDataset::Own(std::move(cols));
    auto corr = cdi::stats::CorrelationMatrix(ds);
    benchmark::DoNotOptimize(corr->rows());
  }
}
BENCHMARK(BM_CorrMatrixFromTableCopy)->Arg(10)->Arg(30)->Arg(100);

void BM_CorrMatrixFromTableView(benchmark::State& state) {
  const auto vars = static_cast<std::size_t>(state.range(0));
  auto t = WideDoubleTable(vars, 2000, 23);
  for (auto _ : state) {
    cdi::stats::NumericDataset ds;
    ds.columns.reserve(vars);
    for (std::size_t v = 0; v < vars; ++v) {
      ds.columns.push_back(t.ColumnAt(v).View());
    }
    auto corr = cdi::stats::CorrelationMatrix(ds);
    benchmark::DoNotOptimize(corr->rows());
  }
}
BENCHMARK(BM_CorrMatrixFromTableView)->Arg(10)->Arg(30)->Arg(100);

void BM_PipelineEndToEnd(benchmark::State& state) {
  const bool covid = state.range(0) != 0;
  const cdi::datagen::ScenarioSpec spec =
      covid ? cdi::datagen::CovidSpec() : cdi::datagen::FlightsSpec();
  auto scenario = cdi::datagen::BuildScenario(spec);
  CDI_CHECK(scenario.ok());
  const auto& s = **scenario;
  const auto options = cdi::core::DefaultEvaluationOptions(s);
  for (auto _ : state) {
    cdi::core::Pipeline pipeline(&s.kg, &s.lake, s.oracle.get(), &s.topics,
                                 options);
    auto run = pipeline.Run(s.input_table, spec.entity_column,
                            s.exposure_attribute, s.outcome_attribute);
    CDI_CHECK(run.ok());
    benchmark::DoNotOptimize(run->direct_effect.effect);
  }
  state.SetLabel(covid ? "covid" : "flights");
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The Knowledge Extractor alone (KG properties + lake join + relevance
// scoring) on the default FLIGHTS (0) and COVID (1) specs and on one grid
// cell at 200 entities (2), shaped like the scenarios a served cold build
// extracts from (~200 rows, 2 references, a handful of KG and lake
// candidates), with the evaluation options the pipeline runs it under.
// The KG and lake indexes are built with the scenario, outside the timed
// loop, as registration does.
void BM_KnowledgeExtract(benchmark::State& state) {
  cdi::datagen::ScenarioSpec spec;
  if (state.range(0) == 2) {
    cdi::datagen::GridCell cell;
    cell.nonlinear = true;
    cell.attrs_per_cluster = 2;
    cell.mnar_level = 1;
    cell.oracle_noise = 2;
    spec = cdi::datagen::GridScenarioSpec(cell, 200);
  } else {
    spec = state.range(0) == 1 ? cdi::datagen::CovidSpec()
                               : cdi::datagen::FlightsSpec();
  }
  auto scenario = cdi::datagen::BuildScenario(spec);
  CDI_CHECK(scenario.ok());
  const auto& s = **scenario;
  const cdi::core::KnowledgeExtractor extractor(
      &s.kg, &s.lake, cdi::core::DefaultEvaluationOptions(s).extractor);
  for (auto _ : state) {
    auto extraction =
        extractor.Extract(s.input_table, spec.entity_column,
                          s.exposure_attribute, s.outcome_attribute);
    CDI_CHECK(extraction.ok());
    benchmark::DoNotOptimize(extraction->attributes.size());
  }
  const char* labels[] = {"flights", "covid", "grid200"};
  state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_KnowledgeExtract)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// The Data Organizer alone (dedup, FD screen, winsorization, missingness
// and IPW) on the same three inputs as BM_KnowledgeExtract: FLIGHTS (0),
// COVID (1) and the 200-entity grid cell (2). The extractor's output is
// built once, outside the timed loop.
void BM_DataOrganize(benchmark::State& state) {
  cdi::datagen::ScenarioSpec spec;
  if (state.range(0) == 2) {
    cdi::datagen::GridCell cell;
    cell.nonlinear = true;
    cell.attrs_per_cluster = 2;
    cell.mnar_level = 1;
    cell.oracle_noise = 2;
    spec = cdi::datagen::GridScenarioSpec(cell, 200);
  } else {
    spec = state.range(0) == 1 ? cdi::datagen::CovidSpec()
                               : cdi::datagen::FlightsSpec();
  }
  auto scenario = cdi::datagen::BuildScenario(spec);
  CDI_CHECK(scenario.ok());
  const auto& s = **scenario;
  const auto options = cdi::core::DefaultEvaluationOptions(s);
  const cdi::core::KnowledgeExtractor extractor(&s.kg, &s.lake,
                                                options.extractor);
  auto extraction = extractor.Extract(s.input_table, spec.entity_column,
                                      s.exposure_attribute,
                                      s.outcome_attribute);
  CDI_CHECK(extraction.ok());
  const cdi::core::DataOrganizer organizer(options.organizer);
  for (auto _ : state) {
    auto organized =
        organizer.Organize(extraction->augmented, spec.entity_column,
                           s.exposure_attribute, s.outcome_attribute);
    CDI_CHECK(organized.ok());
    benchmark::DoNotOptimize(organized->row_weights.data());
  }
  const char* labels[] = {"flights", "covid", "grid200"};
  state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_DataOrganize)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_DSeparation(benchmark::State& state) {
  Rng rng(17);
  auto g = cdi::graph::RandomDag(static_cast<std::size_t>(state.range(0)),
                                 0.15, &rng);
  const std::set<cdi::graph::NodeId> given = {2, 5};
  for (auto _ : state) {
    auto sep = cdi::graph::DSeparated(g, 0, 1, given);
    benchmark::DoNotOptimize(sep.ok());
  }
}
BENCHMARK(BM_DSeparation)->Arg(20)->Arg(100)->Arg(400);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  cdi::stats::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = rng.Normal();
      a(j, i) = a(i, j);
    }
  }
  for (auto _ : state) {
    auto e = cdi::stats::JacobiEigen(a);
    benchmark::DoNotOptimize(e->values[0]);
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(10)->Arg(30)->Arg(60);

// ----------------------------------------------------------Serving layer

/// Shared registry + server for the serving benches. Magic statics make
/// the one-time setup (scenario build, registration, warmup run) safe
/// under google-benchmark's ->Threads(N).
struct ServeFixture {
  cdi::serve::ScenarioRegistry registry;
  cdi::serve::QueryServer server;
  cdi::serve::CdiQuery query;

  ServeFixture()
      : server(&registry, [] {
          cdi::serve::QueryServerOptions options;
          options.num_workers = 4;
          return options;
        }()) {
    auto spec = cdi::datagen::CovidSpec();
    spec.num_entities = 120;
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok()) << built.status().ToString();
    auto bundle = registry.Register(
        "covid", std::unique_ptr<const cdi::datagen::Scenario>(
                     std::move(built).value()));
    CDI_CHECK(bundle.ok());
    const auto& attrs = (*bundle)->numeric_attributes;
    query.scenario = "covid";
    query.exposure = attrs[0];
    query.outcome = attrs[1];
    CDI_CHECK(server.Execute(query).status.ok());  // warm the cache
  }

  static ServeFixture& Get() {
    static ServeFixture fixture;
    return fixture;
  }
};

/// Warm-cache hit path: admission + cache lookup + response, no pipeline
/// work. ->Threads(8) measures lock contention on the hit path.
void BM_ServeCacheHit(benchmark::State& state) {
  auto& f = ServeFixture::Get();
  for (auto _ : state) {
    auto response = f.server.Execute(f.query);
    benchmark::DoNotOptimize(response.status.ok());
  }
}
BENCHMARK(BM_ServeCacheHit)->UseRealTime()->Threads(1)->Threads(8);

/// Cold path: every iteration invalidates the cache, so the request runs
/// the full pipeline on a worker (the serving-layer overhead rides on a
/// complete COVID run).
void BM_ServeCacheMiss(benchmark::State& state) {
  auto& f = ServeFixture::Get();
  for (auto _ : state) {
    f.server.InvalidateCache();
    auto response = f.server.Execute(f.query);
    benchmark::DoNotOptimize(response.status.ok());
  }
}
BENCHMARK(BM_ServeCacheMiss)->UseRealTime();

/// Single-flight under contention: 8 identical queries race on a cold
/// key; one executes, seven coalesce onto it.
void BM_ServeSingleFlight(benchmark::State& state) {
  auto& f = ServeFixture::Get();
  std::vector<std::future<cdi::serve::QueryResponse>> futures;
  for (auto _ : state) {
    f.server.InvalidateCache();
    futures.clear();
    for (int i = 0; i < 8; ++i) futures.push_back(f.server.Submit(f.query));
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get().status.ok());
    }
  }
}
BENCHMARK(BM_ServeSingleFlight)->UseRealTime();

/// Planner steady state: C-DAG plan warm, result cache cold (invalidated
/// each iteration; InvalidateCache leaves the plan cache alone). Each
/// iteration is admission + queue + a worker answering the pair off the
/// cached plan — identification + sufficient-statistics linear algebra,
/// no pipeline run. Compare against BM_ServeCacheMiss: this is the
/// amortization the planner buys.
void BM_ServePlannedQuery(benchmark::State& state) {
  auto& f = ServeFixture::Get();
  cdi::serve::CdiQuery query = f.query;
  query.mode = cdi::serve::QueryMode::kPlanned;
  CDI_CHECK(f.server.Execute(query).status.ok());  // warm the plan
  for (auto _ : state) {
    f.server.InvalidateCache();
    auto response = f.server.Execute(query);
    benchmark::DoNotOptimize(response.status.ok());
  }
}
BENCHMARK(BM_ServePlannedQuery)->UseRealTime();

/// One-time cost the planner amortizes: a full canonical-pair pipeline
/// run plus CdagPlan construction (panel statistics) — what the first
/// planned query on a scenario epoch pays under single-flight.
void BM_CdagArtifactBuild(benchmark::State& state) {
  static const cdi::datagen::Scenario* scenario = [] {
    auto spec = cdi::datagen::CovidSpec();
    spec.num_entities = 120;
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok()) << built.status().ToString();
    return std::move(built).value().release();
  }();
  const auto& sc = *scenario;
  cdi::core::PipelineOptions options =
      cdi::core::DefaultEvaluationOptions(sc);
  cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                               &sc.topics, options);
  for (auto _ : state) {
    auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                            sc.exposure_attribute, sc.outcome_attribute);
    CDI_CHECK(run.ok());
    auto artifact = std::make_shared<const cdi::core::PipelineResult>(
        *std::move(run));
    auto plan = cdi::core::CdagPlan::Build(std::move(artifact));
    CDI_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan->attributes().size());
  }
}
BENCHMARK(BM_CdagArtifactBuild)->UseRealTime();

/// Direct summarization cost: the greedy CaGreS-style merge pass on the
/// canonical COVID C-DAG, contracted to its safe floor (the deepest
/// budget that still succeeds, probed once downward). This is what a
/// cold `summarize` query pays on a worker once the plan is warm;
/// BM_ServeSummaryHit is the cached path that amortizes it.
void BM_SummarizeDag(benchmark::State& state) {
  struct Setup {
    cdi::core::ClusterDag cdag;
    cdi::summarize::SummarizeOptions options;
  };
  static const Setup* setup = [] {
    auto spec = cdi::datagen::CovidSpec();
    spec.num_entities = 120;
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok()) << built.status().ToString();
    const auto& sc = **built;
    cdi::core::PipelineOptions options =
        cdi::core::DefaultEvaluationOptions(sc);
    cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(),
                                 &sc.topics, options);
    auto run = pipeline.Run(sc.input_table, sc.spec.entity_column,
                            sc.exposure_attribute, sc.outcome_attribute);
    CDI_CHECK(run.ok()) << run.status().ToString();
    auto* s = new Setup{run->build.cdag, {}};
    const std::size_t n = s->cdag.num_clusters();
    std::size_t floor = n;  // budget == n is the identity summary
    for (std::size_t k = n; k >= 2; --k) {
      s->options.budget = k;
      if (!cdi::summarize::SummarizeClusterDag(s->cdag, s->options).ok()) {
        break;
      }
      floor = k;
    }
    s->options.budget = floor;
    return s;
  }();
  for (auto _ : state) {
    auto summary =
        cdi::summarize::SummarizeClusterDag(setup->cdag, setup->options);
    CDI_CHECK(summary.ok()) << summary.status().ToString();
    benchmark::DoNotOptimize(summary->Fingerprint());
  }
}
BENCHMARK(BM_SummarizeDag)->UseRealTime();

/// Warm summary-cache hit: admission + per-(scenario, epoch, budget)
/// summary-cache lookup + shared-artifact response, no merge pass. The
/// interactive-latency target for a cached summary rides on this path;
/// ->Threads(8) measures contention against readers of the same entry.
void BM_ServeSummaryHit(benchmark::State& state) {
  auto& f = ServeFixture::Get();
  static const cdi::serve::CdiQuery query = [&f] {
    cdi::serve::CdiQuery q = f.query;
    q.mode = cdi::serve::QueryMode::kSummarize;
    q.summarize_format = "dot";
    // Probe downward for the deepest achievable budget; each successful
    // probe also warms the summary cache for that budget.
    std::size_t deepest = 0;
    for (std::size_t k = 32; k >= 2; --k) {
      q.summarize_k = k;
      if (f.server.Execute(q).status.ok()) {
        deepest = k;
      } else if (deepest != 0) {
        break;  // below the safe floor
      }
    }
    CDI_CHECK(deepest >= 2);
    q.summarize_k = deepest;
    return q;
  }();
  for (auto _ : state) {
    auto response = f.server.Execute(query);
    benchmark::DoNotOptimize(response.summary() != nullptr);
  }
}
BENCHMARK(BM_ServeSummaryHit)->UseRealTime()->Threads(1)->Threads(8);

/// Epoch rollover: one 25-row batch through ScenarioRegistry's
/// UpdateScenario — table copy + typed chunk splice + sufficient-stats
/// delta refresh + publish. Iteration count is pinned so the table grows
/// by a bounded, reproducible amount (256 * 25 rows) instead of drifting
/// with the benchmark runner's time budget.
void BM_UpdateScenario(benchmark::State& state) {
  static cdi::serve::ScenarioRegistry* registry = [] {
    auto* r = new cdi::serve::ScenarioRegistry();
    auto spec = cdi::datagen::CovidSpec();
    spec.num_entities = 300;
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok());
    CDI_CHECK(r->Register("covid",
                          std::unique_ptr<const cdi::datagen::Scenario>(
                              std::move(built).value()))
                  .ok());
    return r;
  }();
  auto bundle = registry->Snapshot("covid");
  CDI_CHECK(bundle.ok());
  std::vector<std::size_t> picks;
  for (std::size_t r = 0; r < 25; ++r) picks.push_back(r);
  const cdi::table::Table batch = (*bundle)->input->TakeRows(picks);
  for (auto _ : state) {
    auto updated = registry->UpdateScenario("covid", batch);
    CDI_CHECK(updated.ok()) << updated.status().ToString();
    benchmark::DoNotOptimize((*updated)->epoch);
  }
}
BENCHMARK(BM_UpdateScenario)->Iterations(256);

/// The alternative streaming ingest replaces: a full re-ingest of the
/// scenario (source rebuild + registration with cold sufficient
/// statistics) via Replace. UpdateScenario must beat this by orders of
/// magnitude — that is the point of the delta path.
void BM_UpdateScenarioFullReingest(benchmark::State& state) {
  static cdi::serve::ScenarioRegistry* registry = [] {
    auto* r = new cdi::serve::ScenarioRegistry();
    auto spec = cdi::datagen::CovidSpec();
    spec.num_entities = 300;
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok());
    CDI_CHECK(r->Register("covid",
                          std::unique_ptr<const cdi::datagen::Scenario>(
                              std::move(built).value()))
                  .ok());
    return r;
  }();
  auto spec = cdi::datagen::CovidSpec();
  spec.num_entities = 300;
  for (auto _ : state) {
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok());
    auto replaced = registry->Replace(
        "covid", std::unique_ptr<const cdi::datagen::Scenario>(
                     std::move(built).value()));
    CDI_CHECK(replaced.ok());
    benchmark::DoNotOptimize((*replaced)->epoch);
  }
}
BENCHMARK(BM_UpdateScenarioFullReingest);

// ------------------------------------------------------ Sharded registry

/// One built scenario shared across registry benches: registration cost
/// then isolates the serving-layer work (stats recompute, byte
/// accounting, LRU maintenance) from data generation.
std::shared_ptr<const cdi::datagen::Scenario> BenchScenario() {
  static const std::shared_ptr<const cdi::datagen::Scenario> scenario = [] {
    auto spec = cdi::datagen::CovidSpec();
    spec.num_entities = 120;
    auto built = cdi::datagen::BuildScenario(spec);
    CDI_CHECK(built.ok()) << built.status().ToString();
    return std::shared_ptr<const cdi::datagen::Scenario>(
        std::move(built).value());
  }();
  return scenario;
}

/// Runtime registration end to end: a deterministic grid-cell build plus
/// the Replace publish (bundle assembly, sufficient statistics, byte
/// accounting) — the cost a `generate` verb pays per scenario.
void BM_RegisterScenario(benchmark::State& state) {
  cdi::serve::ScenarioRegistry registry;
  for (auto _ : state) {
    auto built =
        cdi::datagen::BuildGridScenario("grid_c4_lin_cont_m0_p1_o0", 120);
    CDI_CHECK(built.ok()) << built.status().ToString();
    auto bundle = registry.Replace(
        "bench", std::shared_ptr<const cdi::datagen::Scenario>(
                     std::move(built).value()));
    CDI_CHECK(bundle.ok());
    benchmark::DoNotOptimize((*bundle)->memory_bytes);
  }
}
BENCHMARK(BM_RegisterScenario);

/// Registries for the lookup contention sweep, keyed by shard count.
/// Unbudgeted, so Snapshot is a pure map find under the shard mutex —
/// the comparison isolates lock spreading from LRU maintenance.
cdi::serve::ScenarioRegistry& LookupRegistry(std::size_t shards) {
  static constexpr std::size_t kNames = 64;
  static auto* registries =
      new std::map<std::size_t,
                   std::unique_ptr<cdi::serve::ScenarioRegistry>>();
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*registries)[shards];
  if (slot == nullptr) {
    cdi::serve::RegistryOptions options;
    options.num_shards = shards;
    slot = std::make_unique<cdi::serve::ScenarioRegistry>(options);
    for (std::size_t i = 0; i < kNames; ++i) {
      CDI_CHECK(
          slot->Register("s" + std::to_string(i), BenchScenario()).ok());
    }
  }
  return *slot;
}

/// Snapshot throughput over 64 names at 1..8 reader threads, single
/// mutex (Arg = 1 shard) vs sharded (Arg = 8). The scale-out acceptance
/// bar: 8 shards at 8 threads >= 2x the 1-shard throughput.
void BM_RegistryLookupSharded(benchmark::State& state) {
  auto& registry =
      LookupRegistry(static_cast<std::size_t>(state.range(0)));
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 64; ++i) {
    names.push_back("s" + std::to_string(i));
  }
  // Per-thread stride keeps threads on different names (and shards).
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    auto bundle = registry.Snapshot(names[i++ & 63]);
    benchmark::DoNotOptimize(bundle.ok());
  }
}
BENCHMARK(BM_RegistryLookupSharded)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(8)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8);

/// Budget-forced churn: eight names round-robin through a budget that
/// holds four, so every Replace publishes one bundle and evicts another
/// (LRU pop, byte refund, eviction bookkeeping).
void BM_EvictionChurn(benchmark::State& state) {
  cdi::serve::ScenarioRegistry probe;
  const std::size_t per =
      (*probe.Register("probe", BenchScenario()))->memory_bytes;
  cdi::serve::RegistryOptions options;
  options.num_shards = 1;
  options.memory_budget_bytes = per * 4 + per / 2;
  cdi::serve::ScenarioRegistry registry(options);
  std::size_t i = 0;
  for (auto _ : state) {
    auto bundle =
        registry.Replace("c" + std::to_string(i++ & 7), BenchScenario());
    CDI_CHECK(bundle.ok());
    benchmark::DoNotOptimize((*bundle)->epoch);
  }
  state.counters["evicted"] = static_cast<double>(
      registry.Stats().scenarios_evicted);
}
BENCHMARK(BM_EvictionChurn);

}  // namespace

BENCHMARK_MAIN();
