#include "table/table.h"

#include <algorithm>
#include <memory_resource>
#include <numeric>
#include <sstream>
#include <string_view>
#include <unordered_set>

namespace cdi::table {

Result<Table> Table::FromColumns(std::string name,
                                 std::vector<Column> columns) {
  Table t(std::move(name));
  for (auto& c : columns) {
    CDI_RETURN_IF_ERROR(t.AddColumn(std::move(c)));
  }
  return t;
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name());
  return names;
}

bool Table::HasColumn(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name() == name) return true;
  }
  return false;
}

Result<std::size_t> Table::ColumnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return Status::NotFound("no column '" + name + "' in table '" + name_ + "'");
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(name));
  return &columns_[i];
}

Result<Column*> Table::MutableColumn(const std::string& name) {
  CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(name));
  return &columns_[i];
}

Status Table::AddColumn(Column column) {
  if (HasColumn(column.name())) {
    return Status::AlreadyExists("column '" + column.name() + "' exists");
  }
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + column.name() + "' has " +
        std::to_string(column.size()) + " rows, table has " +
        std::to_string(num_rows()));
  }
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status Table::DropColumn(const std::string& name) {
  CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(name));
  columns_.erase(columns_.begin() + static_cast<std::ptrdiff_t>(i));
  return Status::OK();
}

Status Table::RenameColumn(const std::string& from, const std::string& to) {
  if (from != to && HasColumn(to)) {
    return Status::AlreadyExists("column '" + to + "' exists");
  }
  CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(from));
  columns_[i].set_name(to);
  return Status::OK();
}

Result<Value> Table::GetCell(std::size_t row, const std::string& column) const {
  CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(column));
  if (row >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row));
  }
  return columns_[i].Get(row);
}

Status Table::SetCell(std::size_t row, const std::string& column, Value v) {
  CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(column));
  return columns_[i].Set(row, std::move(v));
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " != schema arity " +
        std::to_string(columns_.size()));
  }
  // Validate all before mutating any, so a failed append leaves the table
  // rectangular.
  for (std::size_t i = 0; i < values.size(); ++i) {
    Column probe(columns_[i].name(), columns_[i].type());
    CDI_RETURN_IF_ERROR(probe.Append(values[i]));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    CDI_RETURN_IF_ERROR(columns_[i].Append(values[i]));
  }
  return Status::OK();
}

Status Table::AppendRows(const Table& batch) {
  if (batch.num_cols() != num_cols()) {
    return Status::InvalidArgument(
        "batch arity " + std::to_string(batch.num_cols()) +
        " != schema arity " + std::to_string(num_cols()) + " (table '" +
        name_ + "' expects columns [" + [this] {
          std::string s;
          for (const auto& c : columns_) {
            if (!s.empty()) s += ", ";
            s += c.name();
          }
          return s;
        }() + "])");
  }
  // Resolve every batch column and validate types before mutating
  // anything, so a failed append leaves the table rectangular and
  // untouched.
  std::vector<const Column*> sources(columns_.size(), nullptr);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const auto idx = batch.ColumnIndex(columns_[i].name());
    if (!idx.ok()) {
      return Status::InvalidArgument("batch is missing column '" +
                                     columns_[i].name() + "' of table '" +
                                     name_ + "'");
    }
    const Column& src = batch.columns_[idx.value()];
    const bool widen_ints = columns_[i].type() == DataType::kDouble &&
                            src.type() == DataType::kInt64;
    if (src.type() != columns_[i].type() && !widen_ints) {
      return Status::InvalidArgument(
          "batch column '" + src.name() + "' has type " +
          DataTypeName(src.type()) + " but table '" + name_ + "' expects " +
          DataTypeName(columns_[i].type()));
    }
    sources[i] = &src;
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    CDI_RETURN_IF_ERROR(columns_[i].AppendChunk(*sources[i]));
  }
  return Status::OK();
}

Result<Table> Table::SelectColumns(
    const std::vector<std::string>& names) const {
  Table out(name_);
  for (const auto& n : names) {
    CDI_ASSIGN_OR_RETURN(std::size_t i, ColumnIndex(n));
    CDI_RETURN_IF_ERROR(out.AddColumn(columns_[i]));
  }
  return out;
}

Table Table::TakeRows(const std::vector<std::size_t>& rows) const {
  Table out(name_);
  for (const auto& c : columns_) {
    Status s = out.AddColumn(c.Take(rows));
    CDI_CHECK(s.ok()) << s.ToString();
  }
  return out;
}

Table Table::Head(std::size_t n) const {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < std::min(n, num_rows()); ++r) rows.push_back(r);
  return TakeRows(rows);
}

Table Table::SampleRows(std::size_t n, Rng* rng) const {
  std::vector<std::size_t> rows(num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  if (n < rows.size()) {
    rng->Shuffle(&rows);
    rows.resize(n);
    std::sort(rows.begin(), rows.end());
  }
  return TakeRows(rows);
}

Result<Table> Table::SortBy(const std::string& column, bool ascending) const {
  CDI_ASSIGN_OR_RETURN(std::size_t ci, ColumnIndex(column));
  const Column& c = columns_[ci];
  std::vector<std::size_t> order(num_rows());
  std::iota(order.begin(), order.end(), 0);
  auto less = [&](std::size_t a, std::size_t b) {
    const bool na = c.IsNull(a);
    const bool nb = c.IsNull(b);
    if (na || nb) return nb && !na;
    if (c.type() == DataType::kString) {
      return ascending ? c.StringAt(a) < c.StringAt(b)
                       : c.StringAt(b) < c.StringAt(a);
    }
    return ascending ? c.NumericAt(a) < c.NumericAt(b)
                     : c.NumericAt(b) < c.NumericAt(a);
  };
  std::stable_sort(order.begin(), order.end(), less);
  return TakeRows(order);
}

Table Table::DistinctRows() const {
  const std::size_t n = num_rows();
  // Every row's exact typed key, back to back in one arena; row r's bytes
  // are arena[offsets[r], offsets[r + 1]).
  std::string arena;
  arena.reserve(n * columns_.size() * (1 + sizeof(double)));
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& c : columns_) {
      c.AppendKeyBytes(r, &arena);
    }
    offsets[r + 1] = arena.size();
  }
  // The set holds views into the arena, and its nodes come from one
  // monotonic buffer, not a heap allocation per row.
  std::pmr::monotonic_buffer_resource pool;
  std::pmr::unordered_set<std::string_view> seen(&pool);
  seen.reserve(n);
  std::vector<std::size_t> keep;
  keep.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::string_view key(arena.data() + offsets[r],
                               offsets[r + 1] - offsets[r]);
    if (seen.insert(key).second) keep.push_back(r);
  }
  if (keep.size() == n) return *this;
  return TakeRows(keep);
}

std::size_t Table::ByteSize() const {
  std::size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.ByteSize();
  return bytes;
}

std::string Table::ToString(std::size_t max_rows) const {
  const std::size_t rows = std::min(max_rows, num_rows());
  std::vector<std::size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(rows);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    widths[i] = columns_[i].name().size();
  }
  for (std::size_t r = 0; r < rows; ++r) {
    cells[r].resize(columns_.size());
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      cells[r][i] = columns_[i].Get(r).ToString();
      widths[i] = std::max(widths[i], cells[r][i].size());
    }
  }
  std::ostringstream os;
  if (!name_.empty()) {
    os << name_ << " (" << num_rows() << " rows x " << num_cols()
       << " cols)\n";
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    os << (i ? " | " : "") << columns_[i].name()
       << std::string(widths[i] - columns_[i].name().size(), ' ');
  }
  os << '\n';
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    os << (i ? "-+-" : "") << std::string(widths[i], '-');
  }
  os << '\n';
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      os << (i ? " | " : "") << cells[r][i]
         << std::string(widths[i] - cells[r][i].size(), ' ');
    }
    os << '\n';
  }
  if (rows < num_rows()) {
    os << "... (" << (num_rows() - rows) << " more rows)\n";
  }
  return os.str();
}

}  // namespace cdi::table
