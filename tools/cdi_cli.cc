// cdi_cli — run the Causal Data Integration pipeline on CSV inputs.
//
// Usage:
//   cdi_cli --input cohort.csv --entity-col id --exposure t --outcome o
//           [--kg triples.csv] [--lake table.csv]...
//           [--knowledge domain.txt] [--clusters K] [--num-threads N]
//           [--out-prefix cdi]
//
// Inputs:
//   --input      the analyst's table (must contain the entity, exposure
//                and outcome columns)
//   --kg         optional knowledge-graph triples CSV with columns
//                entity,property,value (repeatable)
//   --lake       optional data-lake table CSV (repeatable; any string
//                column can serve as a join key)
//   --knowledge  optional domain-knowledge file for the causal oracle and
//                topic lexicon; line formats:
//                    edge <concept_a> <concept_b>     # a causes b
//                    alias <attribute> <concept>
//                    topic <name> <keyword> [keyword...]
//   --clusters   target number of (non-exposure/outcome) clusters, at
//                most 1000; default (or 0): VARCLUS's eigenvalue
//                criterion decides
//   --num-threads  worker threads for the CI-test stages, at most 256;
//                the result is bitwise-identical at any thread count
//                (default 1)
//
// A count flag takes digits only; anything else, or a value over its
// ceiling, is a usage error (exit 2).
//
// Outputs: <prefix>_augmented.csv (the organized, augmented dataset),
// <prefix>_cdag.dot (the C-DAG), and a report on stdout.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/pipeline.h"
#include "graph/dot.h"
#include "knowledge/data_lake.h"
#include "knowledge/knowledge_graph.h"
#include "knowledge/loaders.h"
#include "knowledge/text_oracle.h"
#include "knowledge/topic_model.h"
#include "table/csv.h"

namespace {

struct Args {
  std::string input;
  std::string entity_col;
  std::string exposure;
  std::string outcome;
  std::vector<std::string> kg_files;
  std::vector<std::string> lake_files;
  std::string knowledge_file;
  int clusters = -1;
  int num_threads = 1;
  std::string out_prefix = "cdi";
};

/// Ceiling of --clusters.
constexpr std::uint64_t kMaxClustersFlag = 1000;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input T.csv --entity-col C --exposure T "
               "--outcome O [--kg triples.csv]... [--lake table.csv]... "
               "[--knowledge domain.txt] [--clusters K] [--num-threads N] "
               "[--out-prefix P]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--input" && (v = next())) {
      args->input = v;
    } else if (flag == "--entity-col" && (v = next())) {
      args->entity_col = v;
    } else if (flag == "--exposure" && (v = next())) {
      args->exposure = v;
    } else if (flag == "--outcome" && (v = next())) {
      args->outcome = v;
    } else if (flag == "--kg" && (v = next())) {
      args->kg_files.push_back(v);
    } else if (flag == "--lake" && (v = next())) {
      args->lake_files.push_back(v);
    } else if (flag == "--knowledge" && (v = next())) {
      args->knowledge_file = v;
    } else if (flag == "--clusters" && (v = next())) {
      if (!cdi::ParseCountFlag(flag, v, 0, kMaxClustersFlag,
                               &args->clusters)) {
        return false;
      }
    } else if (flag == "--num-threads" && (v = next())) {
      if (!cdi::ParseCountFlag(flag, v, 0, cdi::kMaxThreadsFlag,
                               &args->num_threads)) {
        return false;
      }
    } else if (flag == "--out-prefix" && (v = next())) {
      args->out_prefix = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->input.empty() && !args->entity_col.empty() &&
         !args->exposure.empty() && !args->outcome.empty();
}

int Run(const Args& args) {
  auto input = cdi::table::ReadCsvFile(args.input);
  if (!input.ok()) {
    std::fprintf(stderr, "reading %s: %s\n", args.input.c_str(),
                 input.status().ToString().c_str());
    return 1;
  }

  cdi::knowledge::KnowledgeGraph kg;
  for (const auto& f : args.kg_files) {
    auto s = cdi::knowledge::LoadKgTriplesCsv(f, &kg);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  cdi::knowledge::DataLake lake;
  for (const auto& f : args.lake_files) {
    auto t = cdi::table::ReadCsvFile(f);
    if (!t.ok()) {
      std::fprintf(stderr, "reading %s: %s\n", f.c_str(),
                   t.status().ToString().c_str());
      return 1;
    }
    t->set_name(f);
    lake.AddTable(std::move(*t));
  }

  // Domain knowledge -> oracle + topics. With no file, the oracle knows
  // nothing and the build degrades to data-only augmentation + naming.
  cdi::knowledge::DomainKnowledge dk;
  if (!args.knowledge_file.empty()) {
    auto loaded = cdi::knowledge::LoadDomainKnowledge(args.knowledge_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    dk = std::move(*loaded);
  }
  auto concepts = cdi::knowledge::ConceptGraph(dk);
  if (!concepts.ok()) {
    std::fprintf(stderr, "%s\n", concepts.status().ToString().c_str());
    return 1;
  }
  cdi::knowledge::OracleOptions oracle_options;
  cdi::knowledge::TextCausalOracle oracle(*concepts, oracle_options);
  for (const auto& [attr, concept_name] : dk.aliases) {
    oracle.RegisterAlias(attr, concept_name);
  }
  cdi::knowledge::TopicModel topics;
  for (const auto& [name, keywords] : dk.topics) {
    topics.AddTopic(name, keywords);
  }

  cdi::core::PipelineOptions options;
  if (args.clusters > 0) {
    options.builder.varclus.min_clusters = args.clusters;
    options.builder.varclus.max_clusters = args.clusters;
  }
  options.num_threads = args.num_threads;
  cdi::core::Pipeline pipeline(&kg, &lake, &oracle, &topics, options);
  auto run = pipeline.Run(*input, args.entity_col, args.exposure,
                          args.outcome);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", run.status().ToString().c_str());
    return 1;
  }

  // ---- Report. ------------------------------------------------------------
  std::printf("extracted %zu candidate attributes (%zu kept)\n",
              run->extraction.attributes.size(),
              run->organization.organized.num_cols() - input->num_cols());
  for (const auto& a : run->extraction.attributes) {
    std::printf("  %-24s %-18s corrT=%.2f corrO=%.2f %s%s\n", a.name.c_str(),
                a.source.c_str(), a.corr_with_exposure, a.corr_with_outcome,
                a.kept ? "kept" : "dropped:", a.kept ? "" : a.drop_reason.c_str());
  }
  if (!run->organization.dropped_fd_attributes.empty()) {
    std::printf("dropped for functional dependencies:");
    for (const auto& d : run->organization.dropped_fd_attributes) {
      std::printf(" %s", d.c_str());
    }
    std::printf("\n");
  }
  for (const auto& m : run->organization.missingness) {
    std::printf("missingness %-20s %.1f%%%s\n", m.attribute.c_str(),
                100 * m.missing_fraction,
                m.selection_bias_risk ? "  (selection-bias risk, IPW on)"
                                      : "");
  }
  std::printf("\nC-DAG (%zu clusters, %zu edges):\n",
              run->build.cdag.num_clusters(), run->build.claims.size());
  for (const auto& [from, to] : run->build.claims) {
    std::printf("  %s -> %s\n", from.c_str(), to.c_str());
  }
  std::printf("mediators:");
  for (const auto& m : run->build.cdag.MediatorClusters()) {
    std::printf(" %s", m.c_str());
  }
  std::printf("\nconfounders:");
  for (const auto& c : run->build.cdag.ConfounderClusters()) {
    std::printf(" %s", c.c_str());
  }
  std::printf("\n\neffect of %s on %s (standardized):\n",
              args.exposure.c_str(), args.outcome.c_str());
  std::printf("  total  (backdoor adjusted): %+.4f (p=%.3g)\n",
              run->total_effect.effect, run->total_effect.p_value);
  std::printf("  direct (mediators adjusted): %+.4f (p=%.3g)\n",
              run->direct_effect.effect, run->direct_effect.p_value);

  // ---- Artifacts. ----------------------------------------------------------
  const std::string csv_path = args.out_prefix + "_augmented.csv";
  auto ws = cdi::table::WriteCsvFile(run->organization.organized, csv_path);
  if (!ws.ok()) {
    std::fprintf(stderr, "%s\n", ws.ToString().c_str());
    return 1;
  }
  cdi::graph::DotOptions dot;
  dot.highlighted = {run->build.cdag.exposure_cluster(),
                     run->build.cdag.outcome_cluster()};
  const std::string dot_path = args.out_prefix + "_cdag.dot";
  std::ofstream(dot_path) << ToDot(run->build.cdag.graph(), dot);
  std::printf("\nwrote %s and %s\n", csv_path.c_str(), dot_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  return Run(args);
}
