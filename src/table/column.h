#ifndef CDI_TABLE_COLUMN_H_
#define CDI_TABLE_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "table/value.h"

namespace cdi::table {

/// A named, typed, null-aware column of values.
///
/// Storage is typed and contiguous: one dense buffer per physical type
/// (`double` / `int64_t` / `uint8_t` bool / dictionary codes for strings)
/// plus a null bitmap. Null slots hold a type-specific filler (NaN for
/// doubles, 0 for ints/bools, code -1 for strings) so numeric bulk access
/// is a straight buffer read. `View()` exposes a double column zero-copy
/// as a `DoubleSpan`; `ToDoubles()` still materializes a dense copy for
/// callers that need one. String cells are dictionary-encoded: each
/// distinct string is stored once and rows hold 32-bit codes.
/// See DESIGN.md "Physical storage layout" for buffer and view lifetime
/// rules.
class Column {
 public:
  Column(std::string name, DataType type)
      : name_(std::move(name)), type_(type) {}

  /// Builds a double column from raw values (NaN becomes null).
  static Column FromDoubles(std::string name, std::vector<double> values);
  /// Builds an int64 column from raw values.
  static Column FromInts(std::string name, std::vector<int64_t> values);
  /// Builds a string column from raw values.
  static Column FromStrings(std::string name, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  DataType type() const { return type_; }
  std::size_t size() const { return size_; }

  /// Pre-sizes the buffers for `n` total rows.
  void Reserve(std::size_t n);

  /// Appends a value; a null is always accepted, otherwise the value's type
  /// must match the column type (int64 is implicitly widened into a double
  /// column).
  Status Append(Value v);

  /// Typed appends — the fast paths the CSV reader and table kernels use;
  /// same typing rules as Append without boxing through Value.
  void AppendNull();
  Status AppendDouble(double v);
  Status AppendInt64(int64_t v);
  Status AppendBool(bool v);
  Status AppendString(std::string v);
  /// Appends `src`'s cell at `row` (types must be compatible as in Append).
  Status AppendFrom(const Column& src, std::size_t row);

  /// Appends all of `src`'s cells in order — the batch-ingest fast path:
  /// typed buffers are spliced wholesale (no per-row Value boxing), the
  /// null bitmap is bit-shift merged word-at-a-time, and string cells are
  /// re-interned once per distinct dictionary code rather than per row.
  /// `src` must have the same type, or be an int64 column appended into a
  /// double column (the same widening Append performs). All-or-nothing:
  /// on type mismatch the column is unchanged.
  Status AppendChunk(const Column& src);

  /// Unchecked access; reconstructs a Value from the typed buffers.
  Value Get(std::size_t row) const;

  /// Overwrites a cell in place (same typing rules as Append). Never
  /// reallocates, so live views keep observing the column.
  Status Set(std::size_t row, Value v);

  bool IsNull(std::size_t row) const {
    CDI_CHECK(row < size_);
    return NullBit(row);
  }

  /// Number of null cells. O(1): maintained incrementally.
  std::size_t NullCount() const { return null_count_; }

  /// Null bitmap words, LSB-first (bit r set = row r null), sized
  /// (size() + 63) / 64. For wiring into NumericDataset::null_words —
  /// note the null <=> NaN caveat documented there: a double column can
  /// hold non-null NaN cells, so only non-double columns (whose views
  /// materialize NaN exactly at nulls) may rely on this unconditionally.
  /// Valid until the next Append/Reserve, like View().
  const uint64_t* NullWords() const { return null_bits_.data(); }

  /// Fraction of null cells (0 for an empty column).
  double NullFraction() const;

  /// Numeric value at `row` (nulls are NaN). Requires a non-string column.
  double NumericAt(std::size_t row) const;

  /// String content at `row`; requires a non-null string cell. The
  /// reference is into the dictionary and stays valid while the column
  /// lives.
  const std::string& StringAt(std::size_t row) const;

  /// Dense numeric copy; nulls become NaN. Requires a numeric or bool
  /// column. Prefer View() on hot paths.
  std::vector<double> ToDoubles() const;

  /// Numeric view (nulls are NaN). Zero-copy for double columns; int64 and
  /// bool columns materialize a shared buffer the span owns. Requires a
  /// non-string column. Valid until the next Append/Reserve (Set writes
  /// show through); see DESIGN.md for the lifetime rules.
  DoubleSpan View() const;

  /// Distinct non-null values in first-appearance order. Distinctness is
  /// exact typed equality (bit patterns for doubles, all NaNs equal).
  std::vector<Value> DistinctValues() const;

  /// Number of distinct non-null values. O(n) via typed hash sets; never
  /// materializes the values.
  std::size_t DistinctCount() const;

  /// New column with only the given rows, in order.
  Column Take(const std::vector<std::size_t>& rows) const;

  /// Structural invariants: buffer sizes match, dictionary codes in range.
  bool TypeChecks() const;

  /// Heap bytes held by the column's buffers (typed storage, null bitmap,
  /// string dictionary contents + index). A deterministic *estimate* of
  /// resident size — capacity slack and allocator overhead are excluded
  /// so the value is a pure function of the column's contents, which is
  /// what byte-accounted caches (the scenario registry's LRU budget) need
  /// to reconcile against.
  std::size_t ByteSize() const;

  /// Appends an exact typed encoding of the cell at `row` to `out`, for
  /// composite hash keys over rows of one table (distinct rows, FD
  /// checks): two cells of this column get equal bytes iff they hold the
  /// same value. Doubles encode as their bit pattern with NaN
  /// canonicalized (every NaN equals every NaN, +0.0 and -0.0 differ),
  /// int64 cells as their own 64 bits, strings as their dictionary code,
  /// and nulls as a dedicated tag. Keys compare only within one column:
  /// dictionary codes mean nothing across columns. Each cell's encoding is
  /// prefix-free, so concatenated composite keys are unambiguous.
  void AppendKeyBytes(std::size_t row, std::string* out) const;

 private:
  Status CheckType(const Value& v) const;
  bool NullBit(std::size_t row) const {
    return (null_bits_[row >> 6] >> (row & 63)) & 1;
  }
  void PushBack(bool is_null);
  void SetNullBit(std::size_t row, bool is_null);
  int32_t Intern(std::string s);

  std::string name_;
  DataType type_;
  std::size_t size_ = 0;
  std::size_t null_count_ = 0;
  /// Bit r set = row r is null.
  std::vector<uint64_t> null_bits_;
  /// Exactly one of these is active, per type_; null slots hold fillers
  /// (NaN / 0 / 0 / -1) so bulk numeric reads need no bitmap probe.
  std::vector<double> doubles_;
  std::vector<int64_t> ints_;
  std::vector<uint8_t> bools_;
  std::vector<int32_t> codes_;
  /// String dictionary: dict_[code] is the content, dict_index_ its
  /// reverse map. Entries are never removed (Set may strand one).
  std::vector<std::string> dict_;
  std::unordered_map<std::string, int32_t> dict_index_;
};

}  // namespace cdi::table

#endif  // CDI_TABLE_COLUMN_H_
