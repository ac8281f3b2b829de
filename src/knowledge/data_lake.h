#ifndef CDI_KNOWLEDGE_DATA_LAKE_H_
#define CDI_KNOWLEDGE_DATA_LAKE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "table/table.h"

namespace cdi::knowledge {

/// A corpus of tables standing in for an open-data lake (data.gov, FRED).
/// Provides joinability search by key containment (JOSIE-style): every
/// numeric column of every joinable table, aligned to the input keys.
/// Ranking those columns by correlation with a target (COCOA-style) is the
/// knowledge extractor's lake step.
///
/// Keys join by NormalizeEntityName. A key that normalizes to the empty
/// string (a null input cell, a lake cell like "-") never joins, on
/// either side, and does not count toward containment.
///
/// The lake is append-only, so AddTable builds a join index once per table
/// and every search reads it: a lake-wide dictionary of normalized keys,
/// per string column a map from dictionary id to the column's distinct-key
/// slot, and per (key column, numeric column) the column's mean per slot,
/// summed in lake row order. A search normalizes each input key once and
/// probes the dictionary; it never rescans lake rows.
class DataLake {
 public:
  /// Nominal latency charged per table scanned (a catalog/API request).
  static constexpr double kSecondsPerTableScan = 0.4;
  static constexpr char kServiceName[] = "data_lake";

  /// Adds a table to the lake (tables should carry distinct names) and
  /// indexes its string columns as join keys.
  void AddTable(table::Table t);

  const std::vector<table::Table>& tables() const { return tables_; }
  std::size_t num_tables() const { return tables_.size(); }

  /// A numeric lake column joined to the input keys: the column's mean per
  /// key (duplicates and 1:N tables aggregate by mean), one entry per
  /// input key, NaN where the key does not join or has no value.
  struct JoinedColumn {
    std::size_t table_index = 0;
    std::string key_column;
    std::string value_column;
    /// Fraction of the distinct input keys present in the key column.
    double containment = 0.0;
    std::vector<double> values;
  };

  /// Joins every numeric column of every joinable key column (one whose
  /// normalized values contain at least `min_containment` of the distinct
  /// normalized `keys`) to `keys`. Key columns come in descending
  /// containment (ties in lake order), each with its table's numeric
  /// columns in column order. Charges `meter` once per lake table.
  std::vector<JoinedColumn> JoinColumns(const std::vector<std::string>& keys,
                                        double min_containment,
                                        LatencyMeter* meter = nullptr) const;

  /// Deterministic heap-byte estimate of the join index, a pure function
  /// of the lake's contents (no capacity slack), for byte-accounted
  /// caches.
  std::size_t IndexBytes() const;

 private:
  /// One string column of a lake table, indexed as a join key.
  struct KeyIndex {
    std::size_t column = 0;
    /// Dictionary id -> slot (the column's distinct normalized keys in
    /// first-appearance order), -1 when absent. Ids past the end were
    /// added by later tables and are absent too.
    std::vector<std::int32_t> slot_of_id;
    std::size_t num_slots = 0;
    /// Per numeric column of the table (in column order): the column
    /// index and its mean per slot (NaN where no row carries a value).
    std::vector<std::size_t> value_columns;
    std::vector<std::vector<double>> means;

    std::int32_t Slot(std::int64_t id) const {
      return id < 0 || static_cast<std::size_t>(id) >= slot_of_id.size()
                 ? -1
                 : slot_of_id[static_cast<std::size_t>(id)];
    }
  };

  /// The input keys resolved against the dictionary.
  struct Probe {
    /// Per input key: its dictionary id, -1 when empty or unknown.
    std::vector<std::int64_t> ids;
    /// Distinct dictionary ids among the keys.
    std::vector<std::int64_t> distinct_ids;
    /// Distinct non-empty normalized keys (known or not).
    std::size_t distinct_keys = 0;
  };
  struct Joinable {
    std::size_t table_index = 0;
    const KeyIndex* key = nullptr;
    double containment = 0.0;
  };

  Probe ProbeKeys(const std::vector<std::string>& keys) const;
  std::vector<Joinable> FindJoinableIndexed(const Probe& probe,
                                            double min_containment,
                                            LatencyMeter* meter) const;

  std::vector<table::Table> tables_;
  /// Normalized key -> dictionary id; the empty key never enters.
  std::unordered_map<std::string, std::int64_t> key_ids_;
  /// Per table, its string columns' indexes in column order.
  std::vector<std::vector<KeyIndex>> key_indexes_;
};

}  // namespace cdi::knowledge

#endif  // CDI_KNOWLEDGE_DATA_LAKE_H_
