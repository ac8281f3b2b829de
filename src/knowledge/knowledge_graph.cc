#include "knowledge/knowledge_graph.h"

#include <set>

namespace cdi::knowledge {

void KnowledgeGraph::AddLiteral(const std::string& entity,
                                const std::string& property,
                                table::Value value) {
  if (literals_.count(entity) == 0 && links_.count(entity) == 0) {
    linker_.AddEntity(entity);
  }
  literals_[entity][property] = std::move(value);
}

void KnowledgeGraph::AddLink(const std::string& entity,
                             const std::string& property,
                             const std::string& target_entity) {
  if (literals_.count(entity) == 0 && links_.count(entity) == 0) {
    linker_.AddEntity(entity);
  }
  links_[entity][property] = target_entity;
}

bool KnowledgeGraph::HasEntity(const std::string& entity) const {
  return literals_.count(entity) > 0 || links_.count(entity) > 0;
}

std::vector<std::string> KnowledgeGraph::LiteralProperties(
    const std::string& entity) const {
  std::vector<std::string> out;
  auto it = literals_.find(entity);
  if (it == literals_.end()) return out;
  for (const auto& [p, v] : it->second) out.push_back(p);
  return out;
}

std::vector<std::string> KnowledgeGraph::LinkProperties(
    const std::string& entity) const {
  std::vector<std::string> out;
  auto it = links_.find(entity);
  if (it == links_.end()) return out;
  for (const auto& [p, v] : it->second) out.push_back(p);
  return out;
}

Result<table::Value> KnowledgeGraph::GetLiteral(
    const std::string& entity, const std::string& property) const {
  auto it = literals_.find(entity);
  if (it == literals_.end()) return Status::NotFound("no entity " + entity);
  auto pit = it->second.find(property);
  if (pit == it->second.end()) {
    return Status::NotFound("entity " + entity + " has no " + property);
  }
  return pit->second;
}

Result<std::string> KnowledgeGraph::GetLink(const std::string& entity,
                                            const std::string& property) const {
  auto it = links_.find(entity);
  if (it == links_.end()) return Status::NotFound("no entity " + entity);
  auto pit = it->second.find(property);
  if (pit == it->second.end()) {
    return Status::NotFound("entity " + entity + " has no link " + property);
  }
  return pit->second;
}

Result<table::Table> KnowledgeGraph::ExtractProperties(
    const std::vector<std::string>& surface_keys, const std::string& key_name,
    bool follow_links, LatencyMeter* meter) const {
  using LiteralMap = std::map<std::string, table::Value>;
  using LinkMap = std::map<std::string, std::string>;
  static const LiteralMap kNoLiterals;
  static const LinkMap kNoLinks;
  // Resolve every key to its entity's literal and link maps, looked up
  // once per row (empty when the key does not link).
  const std::size_t n = surface_keys.size();
  std::vector<const LiteralMap*> row_literals(n, &kNoLiterals);
  std::vector<const LinkMap*> row_links(n, &kNoLinks);
  for (std::size_t i = 0; i < n; ++i) {
    if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerLookup);
    auto link = linker_.Link(surface_keys[i]);
    if (!link.ok()) continue;
    if (auto it = literals_.find(link->canonical); it != literals_.end()) {
      row_literals[i] = &it->second;
    }
    if (auto it = links_.find(link->canonical); it != links_.end()) {
      row_links[i] = &it->second;
    }
  }
  // The literals of a link's target (empty for a dangling link).
  auto target_literals = [&](const std::string& target) -> const LiteralMap* {
    auto it = target.empty() ? literals_.end() : literals_.find(target);
    return it == literals_.end() ? &kNoLiterals : &it->second;
  };

  // Collect the union of property columns in deterministic order.
  std::set<std::string> literal_cols;
  // link property -> set of sub-properties
  std::map<std::string, std::set<std::string>> link_cols;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [p, v] : *row_literals[i]) literal_cols.insert(p);
    if (!follow_links) continue;
    for (const auto& [lp, target] : *row_links[i]) {
      if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerLookup);
      for (const auto& [sp, v] : *target_literals(target)) {
        link_cols[lp].insert(sp);
      }
    }
  }

  // Assemble per-column value vectors.
  struct PendingColumn {
    std::string name;
    std::vector<table::Value> values;
  };
  std::vector<PendingColumn> pending;
  for (const auto& p : literal_cols) pending.push_back({p, {}});
  for (const auto& [lp, subs] : link_cols) {
    for (const auto& sp : subs) pending.push_back({lp + "_" + sp, {}});
  }

  // Each row walks the sorted column names beside its entity's sorted
  // property map: one pass per row, no per-cell lookup.
  std::size_t c = 0;
  auto emit_row = [&](const std::set<std::string>& cols,
                      const LiteralMap& values) {
    auto it = values.begin();
    for (const auto& p : cols) {
      while (it != values.end() && it->first < p) ++it;
      pending[c++].values.push_back(
          it != values.end() && it->first == p ? it->second : table::Value());
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    c = 0;
    emit_row(literal_cols, *row_literals[i]);
    auto link = row_links[i]->begin();
    for (const auto& [lp, subs] : link_cols) {
      while (link != row_links[i]->end() && link->first < lp) ++link;
      const bool has_link = link != row_links[i]->end() && link->first == lp;
      emit_row(subs, has_link ? *target_literals(link->second) : kNoLiterals);
    }
  }

  // Materialize, inferring each column's type from its values.
  table::Table out("kg_extraction");
  CDI_RETURN_IF_ERROR(out.AddColumn(
      table::Column::FromStrings(key_name, surface_keys)));
  for (auto& pc : pending) {
    bool any_string = false, any_double = false, any_int = false,
         any_bool = false;
    for (const auto& v : pc.values) {
      any_string |= v.is_string();
      any_double |= v.is_double();
      any_int |= v.is_int64();
      any_bool |= v.is_bool();
    }
    table::DataType type = table::DataType::kString;
    if (any_string) {
      type = table::DataType::kString;
    } else if (any_double) {
      type = table::DataType::kDouble;
    } else if (any_int) {
      type = table::DataType::kInt64;
    } else if (any_bool) {
      type = table::DataType::kBool;
    }
    table::Column col(pc.name, type);
    for (auto& v : pc.values) {
      // Coerce mixed numeric/bool into the column type's domain.
      if (type == table::DataType::kString && !v.is_null() &&
          !v.is_string()) {
        v = table::Value(v.ToString());
      } else if (type == table::DataType::kDouble && v.is_bool()) {
        v = table::Value(v.ToNumeric());
      } else if (type == table::DataType::kInt64 && v.is_bool()) {
        v = table::Value(static_cast<int64_t>(v.as_bool() ? 1 : 0));
      }
      CDI_RETURN_IF_ERROR(col.Append(std::move(v)));
    }
    CDI_RETURN_IF_ERROR(out.AddColumn(std::move(col)));
  }
  return out;
}

}  // namespace cdi::knowledge
