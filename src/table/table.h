#ifndef CDI_TABLE_TABLE_H_
#define CDI_TABLE_TABLE_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "table/column.h"

namespace cdi::table {

/// An in-memory relational table: a list of equally sized named columns.
///
/// `Table` is a value type (copyable); all mutating operations validate
/// their inputs and return `Status`. Row-producing operations return new
/// tables.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  /// Builds a table from columns; all columns must have equal length and
  /// distinct names.
  static Result<Table> FromColumns(std::string name,
                                   std::vector<Column> columns);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  std::size_t num_cols() const { return columns_.size(); }

  /// Column names in schema order.
  std::vector<std::string> ColumnNames() const;

  bool HasColumn(const std::string& name) const;

  /// Index of `name` in the schema, or error.
  Result<std::size_t> ColumnIndex(const std::string& name) const;

  /// Borrowed pointer into this table (invalidated by column add/drop).
  Result<const Column*> GetColumn(const std::string& name) const;
  Result<Column*> MutableColumn(const std::string& name);

  const Column& ColumnAt(std::size_t i) const {
    CDI_CHECK(i < columns_.size());
    return columns_[i];
  }
  Column& MutableColumnAt(std::size_t i) {
    CDI_CHECK(i < columns_.size());
    return columns_[i];
  }

  /// Appends a column; its length must equal num_rows() (any length is
  /// accepted for the first column) and its name must be fresh.
  Status AddColumn(Column column);

  Status DropColumn(const std::string& name);
  Status RenameColumn(const std::string& from, const std::string& to);

  /// Cell access.
  Result<Value> GetCell(std::size_t row, const std::string& column) const;
  Status SetCell(std::size_t row, const std::string& column, Value v);

  /// Appends one row; `values` must match the schema arity and types.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends every row of `batch` — the streaming-ingest fast path. The
  /// batch must carry exactly this table's columns (matched by name, any
  /// order) with compatible types (exact match, or int64 batch columns
  /// widened into double columns, as in AppendRow). Column buffers are
  /// spliced wholesale via Column::AppendChunk; no per-row Value boxing.
  /// All-or-nothing: on any schema mismatch the table is unchanged, with
  /// an error naming the offending column. Invalidates Column::View()
  /// spans, like any append.
  Status AppendRows(const Table& batch);

  /// New table with only the named columns, in the given order.
  Result<Table> SelectColumns(const std::vector<std::string>& names) const;

  /// New table with the given rows (indices may repeat / reorder).
  Table TakeRows(const std::vector<std::size_t>& rows) const;

  /// First `n` rows.
  Table Head(std::size_t n) const;

  /// Uniform sample of `n` distinct rows (all rows when n >= num_rows()),
  /// in original row order. Deterministic given `rng`.
  Table SampleRows(std::size_t n, Rng* rng) const;

  /// Rows sorted by `column` (nulls last). Strings sort lexicographically,
  /// numerics numerically. Stable.
  Result<Table> SortBy(const std::string& column, bool ascending = true) const;

  /// The first occurrence of every distinct row (all columns equal), in
  /// row order; every row when none repeats. Rows compare by their
  /// Column::AppendKeyBytes keys, so every NaN equals every NaN, nulls
  /// equal nulls, +0.0 and -0.0 stay distinct, and so do two int64 values
  /// above 2^53.
  std::vector<std::size_t> DistinctRowIndices() const;

  /// Pretty-prints up to `max_rows` rows in a fixed-width layout.
  std::string ToString(std::size_t max_rows = 20) const;

  /// Sum of Column::ByteSize over all columns — a deterministic estimate
  /// of the table's resident heap bytes, used by byte-accounted caches.
  std::size_t ByteSize() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
};

}  // namespace cdi::table

#endif  // CDI_TABLE_TABLE_H_
