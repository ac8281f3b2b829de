#ifndef CDI_KNOWLEDGE_KNOWLEDGE_GRAPH_H_
#define CDI_KNOWLEDGE_KNOWLEDGE_GRAPH_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "knowledge/entity_linker.h"
#include "table/table.h"

namespace cdi::knowledge {

/// In-memory RDF-style triple store standing in for DBpedia. Entities have
/// literal-valued properties ("avg_temp" -> 61.17) and entity-valued
/// properties ("governor" -> another entity), which the extractor can
/// follow one level deep — the paper's "follow links in the KG" idea.
///
/// The store is its own extraction index, kept current by AddLiteral and
/// AddLink (never built lazily, so concurrent const readers need no
/// lock). Every entity, and every link target, has a dense slot. Literal
/// and link property names have global ids, and a name-ordered map from
/// name to id. A slot holds one presence bit per property id and its
/// values (link targets as slots) in id order, so a cell is found by a
/// popcount, the column union of a row set is an OR of masks, and no
/// string is compared after the one slot lookup per row.
class KnowledgeGraph {
 public:
  /// Nominal per-lookup latency charged to a LatencyMeter (a remote SPARQL
  /// endpoint round-trip).
  static constexpr double kSecondsPerLookup = 0.15;
  static constexpr char kServiceName[] = "knowledge_graph";

  /// Adds entity if missing and sets a literal property value.
  void AddLiteral(const std::string& entity, const std::string& property,
                  table::Value value);

  /// Adds an entity-valued property (a link).
  void AddLink(const std::string& entity, const std::string& property,
               const std::string& target_entity);

  /// Registers an alias for entity disambiguation.
  void AddAlias(const std::string& entity, const std::string& alias) {
    linker_.AddAlias(entity, alias);
  }

  bool HasEntity(const std::string& entity) const;

  Result<table::Value> GetLiteral(const std::string& entity,
                                  const std::string& property) const;

  Result<std::string> GetLink(const std::string& entity,
                              const std::string& property) const;

  const EntityLinker& linker() const { return linker_; }
  EntityLinker& mutable_linker() { return linker_; }

  /// Extracts a property table for `surface_keys` (one row each, in
  /// order): links each key via the entity linker, emits one column per
  /// literal property observed on any linked entity (null where absent),
  /// and — when `follow_links` is true — additionally pulls the literal
  /// properties of link targets as "<link>_<property>" columns. Columns
  /// come in name order: literals, then per link its target properties.
  /// A column's type is string if any cell is a string, else double, else
  /// int64, else bool; other cells are coerced to it. Keys that fail to
  /// link produce all-null rows. Each entity lookup and each followed link
  /// is charged to `meter` (may be null). Unless `key_name` is empty, a
  /// first column of that name holds the original surface keys so the
  /// result joins back to the input table.
  Result<table::Table> ExtractProperties(
      const std::vector<std::string>& surface_keys,
      const std::string& key_name, bool follow_links,
      LatencyMeter* meter) const;

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// An entity or a link target. Masks hold one bit per property id;
  /// values are in id order.
  struct Slot {
    std::string name;
    /// Named as the subject of AddLiteral or AddLink; a slot made only as
    /// a link target is not an entity.
    bool is_entity = false;
    std::vector<std::uint64_t> literal_mask;
    std::vector<table::Value> literals;
    std::vector<std::uint64_t> link_mask;
    /// Target slot per link; kNoSlot for an empty target name.
    std::vector<std::uint32_t> links;
  };

  /// The slot named `name`, kNoSlot when there is none.
  std::uint32_t FindSlot(const std::string& name) const;
  /// The slot named `name`, made if missing.
  std::uint32_t InternSlot(const std::string& name);
  /// InternSlot(entity), registered as an entity with the linker.
  Slot& Subject(const std::string& entity);
  /// The value of the literal `property_id` of `slot`, null when absent.
  const table::Value* FindLiteral(std::uint32_t slot,
                                  std::uint32_t property_id) const;

  std::vector<Slot> slots_;
  std::unordered_map<std::string, std::uint32_t> slot_of_;
  /// Property name -> id (ids in first-use order; iteration is by name).
  std::map<std::string, std::uint32_t> literal_ids_;
  std::map<std::string, std::uint32_t> link_ids_;
  EntityLinker linker_;
};

}  // namespace cdi::knowledge

#endif  // CDI_KNOWLEDGE_KNOWLEDGE_GRAPH_H_
