#include "core/fd.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

namespace cdi::core {

namespace {

/// A column's cells as dense ids of their Value::ToString renderings, a
/// null as the rendering "\x01<null>". Equal ids are exactly the cells the
/// string comparison groups together, so the g3 error below is the one a
/// map of rendered strings gives.
struct RenderedColumn {
  const table::Column* column;
  std::vector<std::uint32_t> ids;
  std::uint32_t num_ids = 0;
  /// The non-null rows grouped by id: rows[offsets[k], offsets[k + 1])
  /// hold id k, in row order.
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> rows;
};

RenderedColumn Render(const table::Column& column) {
  RenderedColumn out{&column, std::vector<std::uint32_t>(column.size()), 0,
                     {}, {}};
  std::unordered_map<std::string, std::uint32_t> index;
  for (std::size_t row = 0; row < column.size(); ++row) {
    const std::string v =
        column.IsNull(row) ? "\x01<null>" : column.Get(row).ToString();
    out.ids[row] = index.try_emplace(v, out.num_ids).first->second;
    if (out.ids[row] == out.num_ids) ++out.num_ids;
  }
  out.offsets.assign(out.num_ids + 1, 0);
  for (std::size_t row = 0; row < column.size(); ++row) {
    if (!column.IsNull(row)) ++out.offsets[out.ids[row] + 1];
  }
  for (std::uint32_t k = 0; k < out.num_ids; ++k) {
    out.offsets[k + 1] += out.offsets[k];
  }
  out.rows.resize(out.offsets[out.num_ids]);
  std::vector<std::uint32_t> next(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t row = 0; row < column.size(); ++row) {
    if (!column.IsNull(row)) {
      out.rows[next[out.ids[row]]++] = static_cast<std::uint32_t>(row);
    }
  }
  return out;
}

/// The g3 error of l -> r: for each lhs value, all but the most frequent
/// rhs value are violations; rows with a null lhs are ignored. `counts` is
/// scratch space.
Result<double> G3Error(const RenderedColumn& l, const RenderedColumn& r,
                       std::vector<std::uint32_t>* counts) {
  if (l.rows.empty()) {
    return Status::FailedPrecondition("no non-null lhs values");
  }
  counts->assign(r.num_ids, 0);
  std::size_t kept = 0;
  for (std::uint32_t k = 0; k < l.num_ids; ++k) {
    std::uint32_t best = 0;
    for (std::uint32_t i = l.offsets[k]; i < l.offsets[k + 1]; ++i) {
      best = std::max(best, ++(*counts)[r.ids[l.rows[i]]]);
    }
    for (std::uint32_t i = l.offsets[k]; i < l.offsets[k + 1]; ++i) {
      (*counts)[r.ids[l.rows[i]]] = 0;
    }
    kept += best;
  }
  return 1.0 -
         static_cast<double>(kept) / static_cast<double>(l.rows.size());
}

}  // namespace

Result<double> ApproximateFdError(const table::Table& t,
                                  const std::string& lhs,
                                  const std::string& rhs) {
  CDI_ASSIGN_OR_RETURN(const table::Column* l, t.GetColumn(lhs));
  CDI_ASSIGN_OR_RETURN(const table::Column* r, t.GetColumn(rhs));
  if (lhs == rhs) return Status::InvalidArgument("lhs == rhs");
  std::vector<std::uint32_t> counts;
  return G3Error(Render(*l), Render(*r), &counts);
}

Result<std::vector<FdCandidate>> FindApproximateFds(
    const table::Table& t, double max_error,
    double max_lhs_distinct_fraction) {
  std::vector<FdCandidate> out;
  const double max_distinct =
      max_lhs_distinct_fraction * static_cast<double>(t.num_rows());
  // Each column is rendered once, not once per pair it is in.
  std::vector<RenderedColumn> columns;
  columns.reserve(t.num_cols());
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    columns.push_back(Render(t.ColumnAt(c)));
  }
  std::vector<std::uint32_t> counts;
  for (const RenderedColumn& l : columns) {
    if (static_cast<double>(l.column->DistinctCount()) > max_distinct) {
      continue;
    }
    for (const RenderedColumn& r : columns) {
      if (&l == &r) continue;
      auto err = G3Error(l, r, &counts);
      if (!err.ok()) continue;
      if (*err <= max_error) {
        out.push_back({l.column->name(), r.column->name(), *err});
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FdCandidate& a, const FdCandidate& b) {
                     return a.g3_error < b.g3_error;
                   });
  return out;
}

}  // namespace cdi::core
