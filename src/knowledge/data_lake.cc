#include "knowledge/data_lake.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/string_util.h"

namespace cdi::knowledge {

void DataLake::AddTable(table::Table t) {
  std::vector<std::size_t> numeric;
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    if (table::IsNumeric(t.ColumnAt(c).type())) numeric.push_back(c);
  }
  std::vector<KeyIndex> indexes;
  std::vector<std::int32_t> row_slot(t.num_rows());
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const table::Column& col = t.ColumnAt(c);
    if (col.type() != table::DataType::kString) continue;
    KeyIndex ki;
    ki.column = c;
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      row_slot[r] = -1;
      if (col.IsNull(r)) continue;
      std::string key = NormalizeEntityName(col.StringAt(r));
      if (key.empty()) continue;
      const auto next_id = static_cast<std::int64_t>(key_ids_.size());
      const auto id = static_cast<std::size_t>(
          key_ids_.try_emplace(std::move(key), next_id).first->second);
      if (id >= ki.slot_of_id.size()) ki.slot_of_id.resize(id + 1, -1);
      std::int32_t& slot = ki.slot_of_id[id];
      if (slot < 0) slot = static_cast<std::int32_t>(ki.num_slots++);
      row_slot[r] = slot;
    }
    // Mean per slot, summed in row order (the order a scan-and-aggregate
    // join would add them in, so the doubles match it bit for bit).
    for (std::size_t v : numeric) {
      const table::Column& vcol = t.ColumnAt(v);
      std::vector<double> sum(ki.num_slots, 0.0);
      std::vector<double> count(ki.num_slots, 0.0);
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        if (row_slot[r] < 0 || vcol.IsNull(r)) continue;
        sum[row_slot[r]] += vcol.NumericAt(r);
        count[row_slot[r]] += 1;
      }
      for (std::size_t s = 0; s < ki.num_slots; ++s) {
        sum[s] = count[s] > 0 ? sum[s] / count[s]
                              : std::numeric_limits<double>::quiet_NaN();
      }
      ki.value_columns.push_back(v);
      ki.means.push_back(std::move(sum));
    }
    indexes.push_back(std::move(ki));
  }
  tables_.push_back(std::move(t));
  key_indexes_.push_back(std::move(indexes));
}

DataLake::Probe DataLake::ProbeKeys(
    const std::vector<std::string>& keys) const {
  Probe probe;
  probe.ids.assign(keys.size(), -1);
  std::unordered_set<std::string> unknown;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::string key = NormalizeEntityName(keys[i]);
    if (key.empty()) continue;
    auto it = key_ids_.find(key);
    if (it == key_ids_.end()) {
      unknown.insert(std::move(key));
    } else {
      probe.ids[i] = it->second;
      probe.distinct_ids.push_back(it->second);
    }
  }
  std::sort(probe.distinct_ids.begin(), probe.distinct_ids.end());
  probe.distinct_ids.erase(
      std::unique(probe.distinct_ids.begin(), probe.distinct_ids.end()),
      probe.distinct_ids.end());
  probe.distinct_keys = probe.distinct_ids.size() + unknown.size();
  return probe;
}

std::vector<DataLake::Joinable> DataLake::FindJoinableIndexed(
    const Probe& probe, double min_containment, LatencyMeter* meter) const {
  std::vector<Joinable> out;
  if (probe.distinct_keys == 0) return out;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerTableScan);
    for (const KeyIndex& ki : key_indexes_[t]) {
      std::size_t hits = 0;
      for (std::int64_t id : probe.distinct_ids) hits += ki.Slot(id) >= 0;
      const double containment = static_cast<double>(hits) /
                                 static_cast<double>(probe.distinct_keys);
      if (containment >= min_containment) out.push_back({t, &ki, containment});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Joinable& a, const Joinable& b) {
                     return a.containment > b.containment;
                   });
  return out;
}

std::vector<DataLake::JoinedColumn> DataLake::JoinColumns(
    const std::vector<std::string>& keys, double min_containment,
    LatencyMeter* meter) const {
  const Probe probe = ProbeKeys(keys);
  std::vector<JoinedColumn> out;
  for (const Joinable& j :
       FindJoinableIndexed(probe, min_containment, meter)) {
    const table::Table& t = tables_[j.table_index];
    for (std::size_t v = 0; v < j.key->value_columns.size(); ++v) {
      const std::vector<double>& means = j.key->means[v];
      JoinedColumn jc;
      jc.table_index = j.table_index;
      jc.key_column = t.ColumnAt(j.key->column).name();
      jc.value_column = t.ColumnAt(j.key->value_columns[v]).name();
      jc.containment = j.containment;
      jc.values.resize(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::int32_t slot = j.key->Slot(probe.ids[i]);
        jc.values[i] = slot < 0 ? std::numeric_limits<double>::quiet_NaN()
                                : means[slot];
      }
      out.push_back(std::move(jc));
    }
  }
  return out;
}

std::size_t DataLake::IndexBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, id] : key_ids_) {
    bytes += key.size() + sizeof(std::string) + sizeof(id);
  }
  for (const auto& indexes : key_indexes_) {
    for (const KeyIndex& ki : indexes) {
      bytes += sizeof(KeyIndex) +
               ki.slot_of_id.size() * sizeof(std::int32_t) +
               ki.value_columns.size() * sizeof(std::size_t);
      for (const auto& m : ki.means) {
        bytes += sizeof(m) + m.size() * sizeof(double);
      }
    }
  }
  return bytes;
}

}  // namespace cdi::knowledge
