#include "serve/line_protocol.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/string_util.h"

namespace cdi::serve {

const char* ResponseSourceName(ResponseSource source) {
  switch (source) {
    case ResponseSource::kError:
      return "error";
    case ResponseSource::kExecuted:
      return "executed";
    case ResponseSource::kCacheHit:
      return "hit";
    case ResponseSource::kCoalesced:
      return "coalesced";
  }
  return "?";
}

namespace {

void MixEffect(Fnv1a& h, const core::EffectEstimate& e) {
  h.Mix(e.effect).Mix(e.abs_effect).Mix(e.std_error).Mix(e.p_value);
  h.Mix(static_cast<std::uint64_t>(e.n_used));
  h.Mix(static_cast<std::uint64_t>(e.adjusted_for.size()));
  for (const auto& a : e.adjusted_for) h.Mix(a);
}

void MixEdges(Fnv1a& h,
              const std::vector<std::pair<std::string, std::string>>& edges) {
  h.Mix(static_cast<std::uint64_t>(edges.size()));
  for (const auto& [from, to] : edges) h.Mix(from).Mix(to);
}

}  // namespace

std::uint64_t ResultFingerprint(const core::PipelineResult& result) {
  Fnv1a h("cdi::serve::ResultFingerprint/v1");

  const core::ExtractionResult& ex = result.extraction;
  h.Mix(static_cast<std::uint64_t>(ex.augmented.num_rows()))
      .Mix(static_cast<std::uint64_t>(ex.augmented.num_cols()))
      .Mix(static_cast<std::uint64_t>(ex.kg_columns_found))
      .Mix(static_cast<std::uint64_t>(ex.lake_columns_found))
      .Mix(static_cast<std::uint64_t>(ex.attributes.size()));
  for (const auto& a : ex.attributes) {
    h.Mix(a.name)
        .Mix(a.source)
        .Mix(a.corr_with_exposure)
        .Mix(a.corr_with_outcome)
        .Mix(a.kept)
        .Mix(a.drop_reason);
  }

  const core::OrganizerResult& org = result.organization;
  h.Mix(static_cast<std::uint64_t>(org.organized.num_rows()))
      .Mix(static_cast<std::uint64_t>(org.organized.num_cols()));
  for (const auto& name : org.organized.ColumnNames()) h.Mix(name);
  h.Mix(static_cast<std::uint64_t>(org.dropped_fd_attributes.size()));
  for (const auto& d : org.dropped_fd_attributes) h.Mix(d);
  h.Mix(static_cast<std::uint64_t>(org.winsorized_cells.size()));
  for (const auto& [attr, cells] : org.winsorized_cells) {
    h.Mix(attr).Mix(static_cast<std::uint64_t>(cells));
  }
  h.Mix(static_cast<std::uint64_t>(org.missingness.size()));
  for (const auto& m : org.missingness) {
    h.Mix(m.attribute)
        .Mix(m.missing_fraction)
        .Mix(m.p_vs_exposure)
        .Mix(m.p_vs_outcome)
        .Mix(m.selection_bias_risk);
  }
  h.Mix(static_cast<std::uint64_t>(org.row_weights.size()));
  for (double w : org.row_weights) h.Mix(w);
  h.Mix(static_cast<std::uint64_t>(org.duplicate_rows_removed));

  const core::CdagBuildResult& build = result.build;
  h.Mix(static_cast<std::uint64_t>(build.cdag.num_clusters()));
  MixEdges(h, build.claims);
  MixEdges(h, build.definite);
  MixEdges(h, build.pruned_edges);
  MixEdges(h, build.cycle_repaired_edges);
  h.Mix(static_cast<std::uint64_t>(build.cluster_topics.size()));
  for (const auto& t : build.cluster_topics) h.Mix(t);
  h.Mix(static_cast<std::uint64_t>(build.oracle_queries))
      .Mix(static_cast<std::uint64_t>(build.ci_tests));

  MixEffect(h, result.direct_effect);
  MixEffect(h, result.total_effect);
  h.Mix(result.direct_effect_sensitivity.risk_ratio)
      .Mix(result.direct_effect_sensitivity.e_value)
      .Mix(result.direct_effect_sensitivity.bias_bound_at_2x);

  // Simulated external latency is deterministic (unlike wall clock).
  h.Mix(static_cast<std::uint64_t>(result.external.entries().size()));
  for (const auto& [service, entry] : result.external.entries()) {
    h.Mix(service)
        .Mix(static_cast<std::int64_t>(entry.calls))
        .Mix(entry.seconds);
  }

  return h.Digest();
}

std::uint64_t PairAnswerFingerprint(const core::PairAnswer& answer) {
  Fnv1a h("cdi::serve::PairAnswerFingerprint/v1");
  h.Mix(answer.exposure)
      .Mix(answer.outcome)
      .Mix(answer.exposure_cluster)
      .Mix(answer.outcome_cluster);
  h.Mix(static_cast<std::uint64_t>(answer.mediator_clusters.size()));
  for (const auto& c : answer.mediator_clusters) h.Mix(c);
  h.Mix(static_cast<std::uint64_t>(answer.confounder_clusters.size()));
  for (const auto& c : answer.confounder_clusters) h.Mix(c);
  MixEffect(h, answer.direct_effect);
  MixEffect(h, answer.total_effect);
  return h.Digest();
}

std::string FormatPairAnswerPayload(const core::PairAnswer& answer) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "direct=%.17g direct_p=%.17g total=%.17g total_p=%.17g "
      "mediators=%zu confounders=%zu adj_direct=%zu adj_total=%zu n=%zu "
      "fingerprint=%016llx",
      answer.direct_effect.effect, answer.direct_effect.p_value,
      answer.total_effect.effect, answer.total_effect.p_value,
      answer.mediator_clusters.size(), answer.confounder_clusters.size(),
      answer.direct_effect.adjusted_for.size(),
      answer.total_effect.adjusted_for.size(), answer.direct_effect.n_used,
      static_cast<unsigned long long>(PairAnswerFingerprint(answer)));
  return buf;
}

std::uint64_t SummaryFingerprint(const SummaryArtifact& artifact) {
  Fnv1a h("cdi::serve::SummaryFingerprint/v1");
  h.Mix(artifact.summary != nullptr ? artifact.summary->Fingerprint()
                                    : std::uint64_t{0});
  h.Mix(artifact.dot).Mix(artifact.json);
  return h.Digest();
}

namespace {

/// Escapes a rendering for the one-line protocol: backslashes, quotes,
/// newlines, CRs and tabs become two-character escapes, so the payload
/// is a single quoted token that round-trips losslessly.
std::string EscapePayload(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  for (char c : payload) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string FormatSummaryPayload(const SummaryArtifact& artifact,
                                 const std::string& format) {
  const summarize::SummaryDag& summary = *artifact.summary;
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "nodes=%zu edges=%zu original_nodes=%zu original_edges=%zu "
      "compression=%.17g pairs_scored=%zu pairs_changed=%zu "
      "fingerprint=%016llx payload=\"",
      summary.num_nodes(), summary.num_edges(), summary.original_nodes(),
      summary.original_edges(), summary.CompressionRatio(),
      summary.pairs_scored(), summary.pairs_changed(),
      static_cast<unsigned long long>(SummaryFingerprint(artifact)));
  std::string out = buf;
  out += EscapePayload(format == "json" ? artifact.json : artifact.dot);
  out.push_back('"');
  return out;
}

std::string FormatResultPayload(const core::PipelineResult& result) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "direct=%.17g direct_p=%.17g total=%.17g total_p=%.17g "
      "e_value=%.17g clusters=%zu edges=%zu n=%zu fingerprint=%016llx",
      result.direct_effect.effect, result.direct_effect.p_value,
      result.total_effect.effect, result.total_effect.p_value,
      result.direct_effect_sensitivity.e_value,
      result.build.cdag.num_clusters(), result.build.claims.size(),
      result.direct_effect.n_used,
      static_cast<unsigned long long>(ResultFingerprint(result)));
  return buf;
}

namespace {

/// Error messages are folded onto one line and double quotes are
/// replaced so the response always parses as a single line of
/// space-separated key=value fields plus one quoted message.
std::string SanitizeMessage(std::string msg) {
  for (char& c : msg) {
    if (c == '\n' || c == '\r') c = ' ';
    if (c == '"') c = '\'';
  }
  return msg;
}

}  // namespace

std::string FormatResponseLine(const CdiQuery& query,
                               const QueryResponse& response) {
  std::ostringstream out;
  const bool summarize = query.mode == QueryMode::kSummarize;
  if (response.status.ok()) {
    out << "ok scenario=" << query.scenario;
    if (summarize) {
      out << " mode=summarize k=" << query.summarize_k
          << " format=" << query.summarize_format;
    } else {
      out << " T=" << query.exposure << " O=" << query.outcome;
      if (response.planned() != nullptr) out << " mode=planned";
    }
    out << " source=" << ResponseSourceName(response.source) << " ";
    if (response.summary() != nullptr) {
      out << FormatSummaryPayload(*response.summary(),
                                  query.summarize_format);
    } else if (response.planned() != nullptr) {
      out << FormatPairAnswerPayload(*response.planned());
    } else {
      out << FormatResultPayload(*response.result());
    }
    char tail[96];
    std::snprintf(tail, sizeof(tail), " latency_us=%.1f",
                  response.latency_seconds * 1e6);
    out << tail;
  } else {
    out << "error scenario=" << query.scenario;
    if (summarize) {
      out << " mode=summarize k=" << query.summarize_k
          << " format=" << query.summarize_format;
    } else {
      out << " T=" << query.exposure << " O=" << query.outcome;
    }
    out << " code=" << StatusCodeName(response.status.code())
        << " message=\"" << SanitizeMessage(response.status.message())
        << "\"";
  }
  return out.str();
}

Result<ServerCommand> ParseCommandLine(const std::string& line) {
  const std::string trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::InvalidArgument("");
  }
  std::istringstream in(trimmed);
  std::string verb;
  in >> verb;
  ServerCommand cmd;
  if (verb == "metrics") {
    cmd.kind = ServerCommand::Kind::kMetrics;
    return cmd;
  }
  if (verb == "scenarios") {
    cmd.kind = ServerCommand::Kind::kScenarios;
    return cmd;
  }
  if (verb == "quit" || verb == "exit") {
    cmd.kind = ServerCommand::Kind::kQuit;
    return cmd;
  }
  if (verb == "update") {
    cmd.kind = ServerCommand::Kind::kUpdate;
    in >> cmd.update_scenario;
    std::string arg;
    while (in >> arg) {
      if (arg.rfind("rows=", 0) == 0) {
        cmd.update_rows_path = arg.substr(5);
      } else {
        return Status::InvalidArgument("unknown update argument '" + arg +
                                       "'");
      }
    }
    if (cmd.update_scenario.empty() || cmd.update_rows_path.empty()) {
      return Status::InvalidArgument(
          "usage: update <scenario> rows=<csv-path>");
    }
    return cmd;
  }
  if (verb == "unregister") {
    cmd.kind = ServerCommand::Kind::kUnregister;
    in >> cmd.target;
    std::string extra;
    if (cmd.target.empty() || (in >> extra)) {
      return Status::InvalidArgument("usage: unregister <scenario>");
    }
    return cmd;
  }
  if (verb == "register") {
    cmd.kind = ServerCommand::Kind::kRegister;
    in >> cmd.target;
    std::string arg;
    while (in >> arg) {
      if (arg.rfind("input=", 0) == 0) {
        cmd.register_input = arg.substr(6);
      } else if (arg.rfind("entity=", 0) == 0) {
        cmd.register_entity = arg.substr(7);
      } else if (arg.rfind("kg=", 0) == 0) {
        cmd.register_kg.push_back(arg.substr(3));
      } else if (arg.rfind("lake=", 0) == 0) {
        cmd.register_lake.push_back(arg.substr(5));
      } else if (arg.rfind("knowledge=", 0) == 0) {
        cmd.register_knowledge = arg.substr(10);
      } else if (arg.rfind("exposure=", 0) == 0) {
        cmd.register_exposure = arg.substr(9);
      } else if (arg.rfind("outcome=", 0) == 0) {
        cmd.register_outcome = arg.substr(8);
      } else if (arg == "replace") {
        cmd.replace = true;
      } else {
        return Status::InvalidArgument("unknown register argument '" + arg +
                                       "'");
      }
    }
    if (cmd.target.empty() || cmd.register_input.empty() ||
        cmd.register_entity.empty()) {
      return Status::InvalidArgument(
          "usage: register <name> input=<csv> entity=<col> [kg=<csv>]... "
          "[lake=<csv>]... [knowledge=<file>] [exposure=<attr>] "
          "[outcome=<attr>] [replace]");
    }
    return cmd;
  }
  if (verb == "generate") {
    cmd.kind = ServerCommand::Kind::kGenerate;
    in >> cmd.target;
    std::string arg;
    while (in >> arg) {
      if (arg.rfind("grid=", 0) == 0) {
        cmd.grid_cell = arg.substr(5);
      } else if (arg.rfind("entities=", 0) == 0) {
        CDI_ASSIGN_OR_RETURN(cmd.generate_entities,
                             ParseBoundedCount("entities", arg.substr(9),
                                               kMaxGenerateEntities));
      } else if (arg.rfind("seed=", 0) == 0) {
        CDI_ASSIGN_OR_RETURN(
            cmd.generate_seed,
            ParseBoundedCount("seed", arg.substr(5),
                              std::numeric_limits<std::uint64_t>::max()));
      } else if (arg == "replace") {
        cmd.replace = true;
      } else {
        return Status::InvalidArgument("unknown generate argument '" + arg +
                                       "'");
      }
    }
    if (cmd.target.empty() || cmd.grid_cell.empty()) {
      return Status::InvalidArgument(
          "usage: generate <name> grid=<cell> [entities=<n>] [seed=<s>] "
          "[replace] (entities at most " +
          std::to_string(kMaxGenerateEntities) + ")");
    }
    return cmd;
  }
  if (verb == "summarize") {
    cmd.kind = ServerCommand::Kind::kSummarize;
    cmd.query.mode = QueryMode::kSummarize;
    in >> cmd.query.scenario;
    bool have_k = false;
    std::string arg;
    while (in >> arg) {
      if (arg.rfind("k=", 0) == 0) {
        const std::string value = arg.substr(2);
        CDI_ASSIGN_OR_RETURN(
            const std::uint64_t v,
            ParseBoundedCount("k", value,
                              std::numeric_limits<std::size_t>::max()));
        if (v < 2) {
          return Status::InvalidArgument(
              "summary budget k must be at least 2 (got " + value + ")");
        }
        cmd.query.summarize_k = static_cast<std::size_t>(v);
        have_k = true;
      } else if (arg.rfind("format=", 0) == 0) {
        const std::string value = arg.substr(7);
        if (value != "dot" && value != "json") {
          return Status::InvalidArgument("bad format value '" + value +
                                         "' (expected dot|json)");
        }
        cmd.query.summarize_format = value;
      } else if (arg.rfind("timeout=", 0) == 0) {
        char* end = nullptr;
        const std::string value = arg.substr(8);
        const double seconds = std::strtod(value.c_str(), &end);
        if (end == nullptr || *end != '\0' || value.empty()) {
          return Status::InvalidArgument("bad timeout value '" + value +
                                         "'");
        }
        if (!std::isfinite(seconds) || seconds < 0.0) {
          return Status::InvalidArgument(
              "timeout must be a finite non-negative number of seconds, "
              "got '" + value + "'");
        }
        cmd.query.timeout_seconds = seconds;
      } else {
        return Status::InvalidArgument("unknown summarize argument '" + arg +
                                       "'");
      }
    }
    if (cmd.query.scenario.empty() || !have_k) {
      return Status::InvalidArgument(
          "usage: summarize <scenario> k=<n> [format=dot|json] "
          "[timeout=<seconds>]");
    }
    return cmd;
  }
  if (verb != "query") {
    return Status::InvalidArgument("unknown command '" + verb +
                                   "' (expected query|summarize|update|"
                                   "register|generate|unregister|metrics|"
                                   "scenarios|quit)");
  }
  cmd.kind = ServerCommand::Kind::kQuery;
  in >> cmd.query.scenario >> cmd.query.exposure >> cmd.query.outcome;
  if (cmd.query.scenario.empty() || cmd.query.exposure.empty() ||
      cmd.query.outcome.empty()) {
    return Status::InvalidArgument(
        "usage: query <scenario> <exposure> <outcome> [timeout=<seconds>] "
        "[mode=planned|full]");
  }
  std::string extra;
  while (in >> extra) {
    if (extra.rfind("timeout=", 0) == 0) {
      char* end = nullptr;
      const std::string value = extra.substr(8);
      const double seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || value.empty()) {
        return Status::InvalidArgument("bad timeout value '" + value + "'");
      }
      // strtod happily parses "-5", "nan", "inf" — all of which would
      // silently mean "no deadline" downstream. Reject them here.
      if (!std::isfinite(seconds) || seconds < 0.0) {
        return Status::InvalidArgument(
            "timeout must be a finite non-negative number of seconds, "
            "got '" + value + "'");
      }
      cmd.query.timeout_seconds = seconds;
    } else if (extra.rfind("mode=", 0) == 0) {
      const std::string value = extra.substr(5);
      if (value == "planned") {
        cmd.query.mode = QueryMode::kPlanned;
      } else if (value == "full") {
        cmd.query.mode = QueryMode::kFull;
      } else {
        return Status::InvalidArgument(
            "bad mode value '" + value + "' (expected planned|full)");
      }
    } else {
      return Status::InvalidArgument("unknown query argument '" + extra +
                                     "'");
    }
  }
  return cmd;
}

}  // namespace cdi::serve
