// Regenerates the paper's §4 runtime result: "Our pipeline was executed
// end-to-end in 645 and 304 seconds for FLIGHTS and COVID-19, resp."
//
// Those times were dominated by remote GPT-3 / DBpedia / data-lake calls.
// Our substitutes run in-process, so this harness reports both the actual
// wall clock (milliseconds) and the *simulated external-service time* each
// call would have cost against real endpoints (GPT-3 completion ~1.5 s,
// KG lookup ~0.15 s, lake catalog scan ~0.4 s). The reproduction target is
// the shape: external time dwarfs compute, and FLIGHTS > COVID-19.
//
// `--json` switches the report to machine-readable JSON (one object with a
// "scenarios" array) so the perf trajectory can be tracked across PRs; see
// tools/perf_smoke.py and BENCH.json.

#include <cstdio>
#include <cstring>
#include <string>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "datagen/covid.h"
#include "datagen/flights.h"

namespace {

int RunOne(const char* label, const cdi::datagen::ScenarioSpec& spec,
           double paper_seconds, bool json, bool first) {
  auto scenario = cdi::datagen::BuildScenario(spec);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  const auto& s = **scenario;
  auto options = cdi::core::DefaultEvaluationOptions(s);
  cdi::core::Pipeline pipeline(&s.kg, &s.lake, s.oracle.get(), &s.topics,
                               options);
  auto run = pipeline.Run(s.input_table, spec.entity_column,
                          s.exposure_attribute, s.outcome_attribute);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  if (json) {
    std::printf("%s    {\"name\": \"%s\", \"entities\": %zu,\n",
                first ? "" : ",\n", label, spec.num_entities);
    std::printf("     \"wall_ms\": {\"extract\": %.3f, \"organize\": %.3f, "
                "\"build\": %.3f, \"total\": %.3f},\n",
                1e3 * run->timings.extract_seconds,
                1e3 * run->timings.organize_seconds,
                1e3 * run->timings.build_seconds,
                1e3 * run->timings.total_seconds);
    std::printf("     \"external\": [");
    bool first_entry = true;
    for (const auto& [service, entry] : run->external.entries()) {
      std::printf("%s{\"service\": \"%s\", \"calls\": %ld, "
                  "\"seconds\": %.1f}",
                  first_entry ? "" : ", ", service.c_str(),
                  static_cast<long>(entry.calls), entry.seconds);
      first_entry = false;
    }
    std::printf("],\n");
    std::printf("     \"simulated_end_to_end_seconds\": %.1f, "
                "\"paper_seconds\": %.0f}",
                run->external.TotalSeconds() + run->timings.total_seconds,
                paper_seconds);
    return 0;
  }
  std::printf("%s (%zu entities)\n", label, spec.num_entities);
  std::printf("  wall clock:  extract %6.1f ms | organize %6.1f ms | "
              "build %6.1f ms | total %6.1f ms\n",
              1e3 * run->timings.extract_seconds,
              1e3 * run->timings.organize_seconds,
              1e3 * run->timings.build_seconds,
              1e3 * run->timings.total_seconds);
  std::printf("  simulated external services:\n");
  for (const auto& [service, entry] : run->external.entries()) {
    std::printf("    %-16s %6ld calls  %8.1f s\n", service.c_str(),
                static_cast<long>(entry.calls), entry.seconds);
  }
  std::printf("  simulated end-to-end: %8.1f s   (paper: %.0f s)\n\n",
              run->external.TotalSeconds() + run->timings.total_seconds,
              paper_seconds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  if (json) {
    std::printf("{\n  \"benchmark\": \"bench_runtime\",\n"
                "  \"scenarios\": [\n");
  } else {
    std::printf("End-to-end runtime reproduction (see EXPERIMENTS.md)\n");
    std::printf("====================================================\n\n");
  }
  int rc = 0;
  rc |= RunOne("FLIGHTS", cdi::datagen::FlightsSpec(), 645.0, json, true);
  rc |= RunOne("COVID-19", cdi::datagen::CovidSpec(), 304.0, json, false);
  if (json) std::printf("\n  ]\n}\n");
  return rc;
}
