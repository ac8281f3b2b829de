// cdi_serve — interactive line-protocol server over registered scenarios.
//
// Usage:
//   cdi_serve [--workers N] [--queue-depth D] [--pipeline-threads N]
//             [--entities N] [--scenarios covid,flights]
//             [--registry-shards N] [--memory-budget-kb K]
//
// --entities takes a plain non-negative integer of at most 100000 (0 keeps
// each scenario's default); anything else is a usage error (exit 2).
//
// Preloads the named benchmark scenarios (input table, knowledge graph,
// data lake, oracle, topics, shared sufficient statistics) into a
// ScenarioRegistry, then answers causal queries from stdin, one command
// per line:
//
//   query <scenario> <exposure> <outcome> [timeout=<seconds>]
//                  [mode=planned|full]
//   summarize <scenario> k=<n> [format=dot|json] [timeout=<seconds>]
//                  # k-node C-DAG summary (CaGreS-style greedy merge),
//                  # rendered as DOT or JSON in a one-line payload
//   update <scenario> rows=<csv-path>   # streaming row-batch ingest
//   register <name> input=<csv> entity=<col> [kg=<csv>]... [lake=<csv>]...
//            [knowledge=<file>] [exposure=<attr>] [outcome=<attr>]
//            [replace]                  # runtime registration from files
//   generate <name> grid=<cell> [entities=<n>] [seed=<s>] [replace]
//                                       # fast path: materialize a named
//                                       # generator-grid cell in process
//                                       # (entities at most 100000)
//   unregister <name>                   # runtime removal
//   metrics        # one-line MetricsSnapshot
//   scenarios      # registered scenarios and their numeric attributes
//   quit
//
// --registry-shards / --memory-budget-kb configure the sharded registry:
// with a budget, least-recently-used scenarios are evicted when the
// byte-accounted charge exceeds it; evicted names answer queries with a
// descriptive NotFound until re-registered (a `generate ... replace` of
// the same cell rebuilds bit-identical data).
//
// `update` appends the CSV's rows (header must match the scenario's
// input schema) under a fresh epoch: sufficient statistics are
// delta-refreshed rather than recomputed, in-flight queries finish
// against the old snapshot, and superseded cache entries are evicted on
// the next touch. The response line reports the new epoch and row count:
//   updated scenario=covid epoch=3 rows_appended=25 rows=175 latency_us=...
//
// mode=planned answers from the scenario's cached C-DAG plan (built once
// per scenario epoch under single-flight): adjustment sets read off the
// one C-DAG, effects from shared sufficient statistics — microsecond
// steady-state latency instead of a full pipeline run per cache miss.
//
// Every response is exactly one '\n'-terminated line, emitted with a
// single write, so responses never interleave or tear. Identical queries
// are answered from the single-flight result cache (source=hit /
// source=coalesced in the response line).
//
// Example session:
//   $ build/tools/cdi_serve --entities 200
//   ready scenarios=covid,flights workers=4 queue_depth=64
//   query covid country_code covid_death_rate
//   ok scenario=covid T=country_code O=covid_death_rate source=executed
//      direct=... fingerprint=... latency_us=...
//   query covid country_code covid_death_rate
//   ok ... source=hit ... latency_us=...

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "datagen/scenario.h"
#include "serve/bundle_loader.h"
#include "serve/line_protocol.h"
#include "serve/query_server.h"
#include "serve/scenario_registry.h"
#include "table/csv.h"

namespace {

struct Args {
  int workers = 4;
  std::size_t queue_depth = 64;
  int pipeline_threads = 1;
  std::size_t entities = 0;  // 0 = scenario default
  std::vector<std::string> scenarios = {"covid", "flights"};
  std::size_t registry_shards = 8;
  std::size_t memory_budget_kb = 0;  // 0 = unlimited
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--queue-depth D] "
               "[--pipeline-threads N] [--entities N] "
               "[--scenarios covid,flights] "
               "[--registry-shards N] [--memory-budget-kb K]\n",
               argv0);
  return 2;
}

/// Every count flag is digits only, within its floor and ceiling, checked
/// here, before any thread, queue or shard exists.
bool ParseArgs(int argc, char** argv, Args* args) {
  using cdi::serve::kMaxGenerateEntities;
  using cdi::serve::kMaxMemoryBudgetKbFlag;
  using cdi::serve::kMaxQueueDepthFlag;
  using cdi::serve::kMaxRegistryShardsFlag;
  using cdi::kMaxThreadsFlag;
  using cdi::ParseCountFlag;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--workers" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxThreadsFlag, &args->workers)) {
        return false;
      }
    } else if (flag == "--queue-depth" && (v = next())) {
      // A zero-depth queue would shed every request.
      if (!ParseCountFlag(flag, v, 1, kMaxQueueDepthFlag,
                          &args->queue_depth)) {
        return false;
      }
    } else if (flag == "--pipeline-threads" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxThreadsFlag,
                          &args->pipeline_threads)) {
        return false;
      }
    } else if (flag == "--entities" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxGenerateEntities,
                          &args->entities)) {
        return false;
      }
    } else if (flag == "--scenarios" && (v = next())) {
      args->scenarios = cdi::Split(v, ',');
    } else if (flag == "--registry-shards" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxRegistryShardsFlag,
                          &args->registry_shards)) {
        return false;
      }
    } else if (flag == "--memory-budget-kb" && (v = next())) {
      if (!ParseCountFlag(flag, v, 0, kMaxMemoryBudgetKbFlag,
                          &args->memory_budget_kb)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->scenarios.empty();
}

/// Single-write line emission: one fwrite + flush per response, so
/// concurrent stderr logging can never shear a protocol line.
void EmitLine(std::string line) {
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fflush(stdout);
}

cdi::Result<std::unique_ptr<const cdi::datagen::Scenario>> BuildNamed(
    const std::string& name, std::size_t entities) {
  cdi::datagen::ScenarioSpec spec;
  if (name == "covid") {
    spec = cdi::datagen::CovidSpec();
  } else if (name == "flights") {
    spec = cdi::datagen::FlightsSpec();
  } else {
    return cdi::Status::InvalidArgument(
        "unknown scenario '" + name + "' (available: covid, flights)");
  }
  if (entities > 0) spec.num_entities = entities;
  CDI_ASSIGN_OR_RETURN(auto scenario, cdi::datagen::BuildScenario(spec));
  return std::unique_ptr<const cdi::datagen::Scenario>(std::move(scenario));
}

/// "error scenario=<name> code=<code> message=\"...\"" for a failed
/// register/generate/unregister/update.
void EmitError(const std::string& scenario, const cdi::Status& status) {
  EmitLine("error scenario=" + scenario + " code=" +
           std::string(cdi::StatusCodeName(status.code())) + " message=\"" +
           status.message() + "\"");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);

  cdi::serve::RegistryOptions registry_options;
  registry_options.num_shards = args.registry_shards;
  registry_options.memory_budget_bytes = args.memory_budget_kb * 1024;
  cdi::serve::ScenarioRegistry registry(registry_options);
  for (const auto& name : args.scenarios) {
    auto scenario = BuildNamed(name, args.entities);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
      return 1;
    }
    auto registered =
        registry.Register(name, std::move(scenario).value());
    if (!registered.ok()) {
      std::fprintf(stderr, "%s\n", registered.status().ToString().c_str());
      return 1;
    }
  }

  cdi::serve::QueryServerOptions options;
  options.num_workers = args.workers;
  options.max_queue_depth = args.queue_depth;
  options.pipeline_threads = args.pipeline_threads;
  cdi::serve::QueryServer server(&registry, options);

  {
    std::string ready = "ready scenarios=";
    const auto names = registry.Names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) ready += ",";
      ready += names[i];
    }
    ready += " workers=" + std::to_string(args.workers) +
             " queue_depth=" + std::to_string(args.queue_depth);
    EmitLine(ready);
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    auto cmd = cdi::serve::ParseCommandLine(line);
    if (!cmd.ok()) {
      if (!cmd.status().message().empty()) {
        EmitLine("error code=" +
                 std::string(cdi::StatusCodeName(cmd.status().code())) +
                 " message=\"" + cmd.status().message() + "\"");
      }
      continue;  // blank line / comment
    }
    switch (cmd->kind) {
      case cdi::serve::ServerCommand::Kind::kQuery:
      case cdi::serve::ServerCommand::Kind::kSummarize: {
        const auto response = server.Execute(cmd->query);
        EmitLine(cdi::serve::FormatResponseLine(cmd->query, response));
        break;
      }
      case cdi::serve::ServerCommand::Kind::kMetrics:
        EmitLine("metrics " + server.Metrics().ToLine());
        break;
      case cdi::serve::ServerCommand::Kind::kScenarios: {
        for (const auto& name : registry.Names()) {
          auto bundle = registry.Snapshot(name);
          if (!bundle.ok()) continue;
          std::string out = "scenario name=" + name +
                            " epoch=" + std::to_string((*bundle)->epoch) +
                            " rows=" +
                            std::to_string((*bundle)->input->num_rows()) +
                            " attributes=";
          const auto& attrs = (*bundle)->numeric_attributes;
          for (std::size_t i = 0; i < attrs.size(); ++i) {
            if (i > 0) out += ",";
            out += attrs[i];
          }
          EmitLine(out);
        }
        break;
      }
      case cdi::serve::ServerCommand::Kind::kUpdate: {
        cdi::Stopwatch sw;
        auto batch = cdi::table::ReadCsvFile(cmd->update_rows_path);
        if (!batch.ok()) {
          EmitError(cmd->update_scenario, batch.status());
          break;
        }
        auto updated = server.UpdateScenario(cmd->update_scenario, *batch);
        if (!updated.ok()) {
          EmitError(cmd->update_scenario, updated.status());
          break;
        }
        char tail[64];
        std::snprintf(tail, sizeof(tail), " latency_us=%.1f",
                      sw.ElapsedSeconds() * 1e6);
        EmitLine("updated scenario=" + cmd->update_scenario + " epoch=" +
                 std::to_string((*updated)->epoch) + " rows_appended=" +
                 std::to_string((*updated)->rows_appended) + " rows=" +
                 std::to_string((*updated)->input->num_rows()) + tail);
        break;
      }
      case cdi::serve::ServerCommand::Kind::kRegister: {
        cdi::Stopwatch sw;
        cdi::serve::ScenarioFileInputs inputs;
        inputs.input_csv = cmd->register_input;
        inputs.entity_column = cmd->register_entity;
        inputs.kg_csvs = cmd->register_kg;
        inputs.lake_csvs = cmd->register_lake;
        inputs.knowledge_file = cmd->register_knowledge;
        inputs.exposure = cmd->register_exposure;
        inputs.outcome = cmd->register_outcome;
        // File-loaded scenarios have no ground-truth cluster DAG, so the
        // evaluation defaults don't apply: pass plain pipeline options.
        auto bundle = server.RegisterScenario(
            cmd->target,
            [&]() -> cdi::Result<
                      std::shared_ptr<const cdi::datagen::Scenario>> {
              CDI_ASSIGN_OR_RETURN(
                  auto scenario,
                  cdi::serve::LoadScenarioFromFiles(cmd->target, inputs));
              return std::shared_ptr<const cdi::datagen::Scenario>(
                  std::move(scenario));
            },
            cmd->replace, cdi::core::PipelineOptions{});
        if (!bundle.ok()) {
          EmitError(cmd->target, bundle.status());
          break;
        }
        char tail[64];
        std::snprintf(tail, sizeof(tail), " latency_us=%.1f",
                      sw.ElapsedSeconds() * 1e6);
        EmitLine("registered scenario=" + cmd->target + " epoch=" +
                 std::to_string((*bundle)->epoch) + " rows=" +
                 std::to_string((*bundle)->input->num_rows()) + " bytes=" +
                 std::to_string((*bundle)->memory_bytes) + tail);
        break;
      }
      case cdi::serve::ServerCommand::Kind::kGenerate: {
        cdi::Stopwatch sw;
        // Grid scenarios carry ground truth, so the evaluation defaults
        // (cluster-count bracket from the true C-DAG) apply unchanged.
        auto bundle = server.RegisterScenario(
            cmd->target,
            [&]() -> cdi::Result<
                      std::shared_ptr<const cdi::datagen::Scenario>> {
              CDI_ASSIGN_OR_RETURN(
                  auto scenario,
                  cdi::datagen::BuildGridScenario(cmd->grid_cell,
                                                  cmd->generate_entities,
                                                  cmd->generate_seed));
              return std::shared_ptr<const cdi::datagen::Scenario>(
                  std::move(scenario));
            },
            cmd->replace);
        if (!bundle.ok()) {
          EmitError(cmd->target, bundle.status());
          break;
        }
        char tail[64];
        std::snprintf(tail, sizeof(tail), " latency_us=%.1f",
                      sw.ElapsedSeconds() * 1e6);
        EmitLine("generated scenario=" + cmd->target + " grid=" +
                 cmd->grid_cell + " epoch=" +
                 std::to_string((*bundle)->epoch) + " rows=" +
                 std::to_string((*bundle)->input->num_rows()) + " bytes=" +
                 std::to_string((*bundle)->memory_bytes) + tail);
        break;
      }
      case cdi::serve::ServerCommand::Kind::kUnregister: {
        const auto status = server.UnregisterScenario(cmd->target);
        if (!status.ok()) {
          EmitError(cmd->target, status);
          break;
        }
        EmitLine("unregistered scenario=" + cmd->target);
        break;
      }
      case cdi::serve::ServerCommand::Kind::kQuit:
        server.Shutdown();
        EmitLine("bye " + server.Metrics().ToLine());
        return 0;
    }
  }
  server.Shutdown();
  return 0;
}
