#include "knowledge/knowledge_graph.h"

#include <bit>

namespace cdi::knowledge {

namespace {

bool TestBit(const std::vector<std::uint64_t>& mask, std::uint32_t id) {
  const std::size_t word = id / 64;
  return word < mask.size() && ((mask[word] >> (id % 64)) & 1) != 0;
}

/// Set bits of `mask` below `id`: the index of id's value in a slot.
std::size_t Rank(const std::vector<std::uint64_t>& mask, std::uint32_t id) {
  const std::size_t word = id / 64;
  std::size_t rank = 0;
  for (std::size_t w = 0; w < word && w < mask.size(); ++w) {
    rank += static_cast<std::size_t>(std::popcount(mask[w]));
  }
  if (word < mask.size()) {
    const std::uint64_t below = (std::uint64_t{1} << (id % 64)) - 1;
    rank += static_cast<std::size_t>(std::popcount(mask[word] & below));
  }
  return rank;
}

/// Sets `id` to `value` in a (mask, values-in-id-order) pair.
template <typename T>
void Put(std::vector<std::uint64_t>* mask, std::vector<T>* values,
         std::uint32_t id, T value) {
  const std::size_t at = Rank(*mask, id);
  if (TestBit(*mask, id)) {
    (*values)[at] = std::move(value);
    return;
  }
  if (mask->size() <= id / 64) mask->resize(id / 64 + 1, 0);
  (*mask)[id / 64] |= std::uint64_t{1} << (id % 64);
  values->insert(values->begin() + static_cast<std::ptrdiff_t>(at),
                 std::move(value));
}

/// The value of `id` in a (mask, values) pair, null when absent.
template <typename T>
const T* Find(const std::vector<std::uint64_t>& mask,
              const std::vector<T>& values, std::uint32_t id) {
  return TestBit(mask, id) ? &values[Rank(mask, id)] : nullptr;
}

void OrInto(std::vector<std::uint64_t>* dst,
            const std::vector<std::uint64_t>& src) {
  if (dst->size() < src.size()) dst->resize(src.size(), 0);
  for (std::size_t w = 0; w < src.size(); ++w) (*dst)[w] |= src[w];
}

/// The id of `name`, added (as the next id) when new.
std::uint32_t PropertyId(std::map<std::string, std::uint32_t>* ids,
                         const std::string& name) {
  return ids->emplace(name, static_cast<std::uint32_t>(ids->size()))
      .first->second;
}

/// Appends one extracted cell, coerced into the column's type: strings
/// take any value's rendering, doubles any numeric or bool, int64 a bool
/// as 0/1.
Status AppendCell(const table::Value* v, table::Column* col) {
  if (v == nullptr || v->is_null()) {
    col->AppendNull();
    return Status::OK();
  }
  switch (col->type()) {
    case table::DataType::kString:
      return col->AppendString(v->is_string() ? v->as_string()
                                              : v->ToString());
    case table::DataType::kDouble:
      return col->AppendDouble(v->ToNumeric());
    case table::DataType::kInt64:
      return col->AppendInt64(
          v->is_bool() ? (v->as_bool() ? 1 : 0) : v->as_int64());
    case table::DataType::kBool:
      return col->AppendBool(v->as_bool());
  }
  return Status::Internal("bad column type");
}

}  // namespace

std::uint32_t KnowledgeGraph::FindSlot(const std::string& name) const {
  auto it = slot_of_.find(name);
  return it == slot_of_.end() ? kNoSlot : it->second;
}

std::uint32_t KnowledgeGraph::InternSlot(const std::string& name) {
  auto [it, added] =
      slot_of_.emplace(name, static_cast<std::uint32_t>(slots_.size()));
  if (added) {
    slots_.emplace_back();
    slots_.back().name = name;
  }
  return it->second;
}

KnowledgeGraph::Slot& KnowledgeGraph::Subject(const std::string& entity) {
  Slot& slot = slots_[InternSlot(entity)];
  if (!slot.is_entity) {
    linker_.AddEntity(entity);
    slot.is_entity = true;
  }
  return slot;
}

const table::Value* KnowledgeGraph::FindLiteral(
    std::uint32_t slot, std::uint32_t property_id) const {
  const Slot& s = slots_[slot];
  return Find(s.literal_mask, s.literals, property_id);
}

void KnowledgeGraph::AddLiteral(const std::string& entity,
                                const std::string& property,
                                table::Value value) {
  const std::uint32_t id = PropertyId(&literal_ids_, property);
  Slot& slot = Subject(entity);
  Put(&slot.literal_mask, &slot.literals, id, std::move(value));
}

void KnowledgeGraph::AddLink(const std::string& entity,
                             const std::string& property,
                             const std::string& target_entity) {
  const std::uint32_t id = PropertyId(&link_ids_, property);
  // Intern the target first: a new slot may move `slots_`.
  const std::uint32_t target =
      target_entity.empty() ? kNoSlot : InternSlot(target_entity);
  Slot& slot = Subject(entity);
  Put(&slot.link_mask, &slot.links, id, target);
}

bool KnowledgeGraph::HasEntity(const std::string& entity) const {
  const std::uint32_t slot = FindSlot(entity);
  return slot != kNoSlot && slots_[slot].is_entity;
}

Result<table::Value> KnowledgeGraph::GetLiteral(
    const std::string& entity, const std::string& property) const {
  const std::uint32_t slot = FindSlot(entity);
  if (slot == kNoSlot || slots_[slot].literals.empty()) {
    return Status::NotFound("no entity " + entity);
  }
  auto id = literal_ids_.find(property);
  const table::Value* v =
      id == literal_ids_.end() ? nullptr : FindLiteral(slot, id->second);
  if (v == nullptr) {
    return Status::NotFound("entity " + entity + " has no " + property);
  }
  return *v;
}

Result<std::string> KnowledgeGraph::GetLink(const std::string& entity,
                                            const std::string& property) const {
  const std::uint32_t slot = FindSlot(entity);
  if (slot == kNoSlot || slots_[slot].links.empty()) {
    return Status::NotFound("no entity " + entity);
  }
  const Slot& s = slots_[slot];
  auto id = link_ids_.find(property);
  const std::uint32_t* target =
      id == link_ids_.end() ? nullptr : Find(s.link_mask, s.links, id->second);
  if (target == nullptr) {
    return Status::NotFound("entity " + entity + " has no link " + property);
  }
  return *target == kNoSlot ? std::string() : slots_[*target].name;
}

Result<table::Table> KnowledgeGraph::ExtractProperties(
    const std::vector<std::string>& surface_keys, const std::string& key_name,
    bool follow_links, LatencyMeter* meter) const {
  // Resolve every key to its slot once (kNoSlot when it does not link).
  const std::size_t n = surface_keys.size();
  std::vector<std::uint32_t> row_slot(n, kNoSlot);
  for (std::size_t i = 0; i < n; ++i) {
    if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerLookup);
    auto link = linker_.Link(surface_keys[i]);
    if (link.ok()) row_slot[i] = FindSlot(link->canonical);
  }

  // The column union: the literal properties of any row's entity and, per
  // link property, the literal properties of any row's target.
  std::vector<std::uint64_t> literal_union;
  std::vector<std::vector<std::uint64_t>> link_union(link_ids_.size());
  for (std::uint32_t slot : row_slot) {
    if (slot == kNoSlot) continue;
    const Slot& s = slots_[slot];
    OrInto(&literal_union, s.literal_mask);
    if (!follow_links) continue;
    std::size_t k = 0;
    for (std::uint32_t id = 0; id < link_ids_.size(); ++id) {
      if (!TestBit(s.link_mask, id)) continue;
      if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerLookup);
      const std::uint32_t target = s.links[k++];
      if (target != kNoSlot) {
        OrInto(&link_union[id], slots_[target].literal_mask);
      }
    }
  }

  // One column per (link, literal) id pair in the union, in name order;
  // `link` is kNoSlot for the entity's own literals.
  struct Source {
    std::string name;
    std::uint32_t link;
    std::uint32_t literal;
  };
  std::vector<Source> sources;
  for (const auto& [p, id] : literal_ids_) {
    if (TestBit(literal_union, id)) sources.push_back({p, kNoSlot, id});
  }
  for (const auto& [lp, lid] : link_ids_) {
    for (const auto& [sp, sid] : literal_ids_) {
      if (TestBit(link_union[lid], sid)) {
        sources.push_back({lp + "_" + sp, lid, sid});
      }
    }
  }

  table::Table out("kg_extraction");
  if (!key_name.empty()) {
    CDI_RETURN_IF_ERROR(out.AddColumn(
        table::Column::FromStrings(key_name, surface_keys)));
  }
  std::vector<const table::Value*> cells(n);
  for (const Source& src : sources) {
    bool any_string = false, any_double = false, any_int = false,
         any_bool = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t slot = row_slot[i];
      if (slot != kNoSlot && src.link != kNoSlot) {
        const Slot& s = slots_[slot];
        const std::uint32_t* target = Find(s.link_mask, s.links, src.link);
        slot = target == nullptr ? kNoSlot : *target;
      }
      const table::Value* v =
          slot == kNoSlot ? nullptr : FindLiteral(slot, src.literal);
      cells[i] = v;
      if (v == nullptr) continue;
      any_string |= v->is_string();
      any_double |= v->is_double();
      any_int |= v->is_int64();
      any_bool |= v->is_bool();
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
    table::Column col(src.name, type);
    col.Reserve(n);
    for (const table::Value* v : cells) {
      CDI_RETURN_IF_ERROR(AppendCell(v, &col));
    }
    CDI_RETURN_IF_ERROR(out.AddColumn(std::move(col)));
  }
  return out;
}

}  // namespace cdi::knowledge
