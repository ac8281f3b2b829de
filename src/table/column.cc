#include "table/column.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <utility>

namespace cdi::table {

namespace {

constexpr char kKeyNull = '\x00';
constexpr char kKeyDouble = 'd';
constexpr char kKeyInt64 = 'i';
constexpr char kKeyBool = 'b';
constexpr char kKeyCode = 'c';

/// One canonical bit pattern for every NaN, so NaN keys compare equal
/// (matching the old decimal-rendering behavior where every NaN printed
/// "nan"). +0.0 and -0.0 keep their distinct patterns, as before.
uint64_t CanonicalBits(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  return std::bit_cast<uint64_t>(v);
}

void AppendRaw(std::string* out, const void* p, std::size_t n) {
  out->append(static_cast<const char*>(p), n);
}

}  // namespace

Column Column::FromDoubles(std::string name, std::vector<double> values) {
  Column c(std::move(name), DataType::kDouble);
  c.Reserve(values.size());
  for (double v : values) {
    if (std::isnan(v)) {
      c.AppendNull();
    } else {
      c.doubles_.push_back(v);
      c.PushBack(/*is_null=*/false);
    }
  }
  return c;
}

Column Column::FromInts(std::string name, std::vector<int64_t> values) {
  Column c(std::move(name), DataType::kInt64);
  c.ints_ = std::move(values);
  c.null_bits_.assign((c.ints_.size() + 63) / 64, 0);
  c.size_ = c.ints_.size();
  return c;
}

Column Column::FromStrings(std::string name, std::vector<std::string> values) {
  Column c(std::move(name), DataType::kString);
  c.Reserve(values.size());
  for (auto& v : values) {
    c.codes_.push_back(c.Intern(std::move(v)));
    c.PushBack(/*is_null=*/false);
  }
  return c;
}

void Column::Reserve(std::size_t n) {
  null_bits_.reserve((n + 63) / 64);
  switch (type_) {
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
  }
}

Status Column::CheckType(const Value& v) const {
  if (v.is_null()) return Status::OK();
  switch (type_) {
    case DataType::kDouble:
      if (v.is_double() || v.is_int64()) return Status::OK();
      break;
    case DataType::kInt64:
      if (v.is_int64()) return Status::OK();
      break;
    case DataType::kString:
      if (v.is_string()) return Status::OK();
      break;
    case DataType::kBool:
      if (v.is_bool()) return Status::OK();
      break;
  }
  return Status::InvalidArgument("value does not match column '" + name_ +
                                 "' of type " + DataTypeName(type_));
}

void Column::PushBack(bool is_null) {
  const std::size_t word = size_ >> 6;
  if (word >= null_bits_.size()) null_bits_.push_back(0);
  if (is_null) {
    null_bits_[word] |= uint64_t{1} << (size_ & 63);
    ++null_count_;
  }
  ++size_;
}

void Column::SetNullBit(std::size_t row, bool is_null) {
  const uint64_t mask = uint64_t{1} << (row & 63);
  uint64_t& word = null_bits_[row >> 6];
  const bool was_null = (word & mask) != 0;
  if (is_null == was_null) return;
  if (is_null) {
    word |= mask;
    ++null_count_;
  } else {
    word &= ~mask;
    --null_count_;
  }
}

int32_t Column::Intern(std::string s) {
  const auto it = dict_index_.find(s);
  if (it != dict_index_.end()) return it->second;
  const int32_t code = static_cast<int32_t>(dict_.size());
  dict_index_.emplace(s, code);
  dict_.push_back(std::move(s));
  return code;
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(std::nan(""));
      break;
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kString:
      codes_.push_back(-1);
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
  }
  PushBack(/*is_null=*/true);
}

Status Column::AppendDouble(double v) {
  if (type_ != DataType::kDouble) {
    return Status::InvalidArgument("value does not match column '" + name_ +
                                   "' of type " + DataTypeName(type_));
  }
  doubles_.push_back(v);
  PushBack(/*is_null=*/false);
  return Status::OK();
}

Status Column::AppendInt64(int64_t v) {
  if (type_ == DataType::kDouble) {
    doubles_.push_back(static_cast<double>(v));
  } else if (type_ == DataType::kInt64) {
    ints_.push_back(v);
  } else {
    return Status::InvalidArgument("value does not match column '" + name_ +
                                   "' of type " + DataTypeName(type_));
  }
  PushBack(/*is_null=*/false);
  return Status::OK();
}

Status Column::AppendBool(bool v) {
  if (type_ != DataType::kBool) {
    return Status::InvalidArgument("value does not match column '" + name_ +
                                   "' of type " + DataTypeName(type_));
  }
  bools_.push_back(v ? 1 : 0);
  PushBack(/*is_null=*/false);
  return Status::OK();
}

Status Column::AppendString(std::string v) {
  if (type_ != DataType::kString) {
    return Status::InvalidArgument("value does not match column '" + name_ +
                                   "' of type " + DataTypeName(type_));
  }
  codes_.push_back(Intern(std::move(v)));
  PushBack(/*is_null=*/false);
  return Status::OK();
}

Status Column::Append(Value v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (v.is_double()) return AppendDouble(v.as_double());
  if (v.is_int64()) return AppendInt64(v.as_int64());
  if (v.is_bool()) return AppendBool(v.as_bool());
  return AppendString(v.as_string());
}

Status Column::AppendFrom(const Column& src, std::size_t row) {
  CDI_CHECK(row < src.size_);
  if (src.NullBit(row)) {
    AppendNull();
    return Status::OK();
  }
  switch (src.type_) {
    case DataType::kDouble:
      return AppendDouble(src.doubles_[row]);
    case DataType::kInt64:
      return AppendInt64(src.ints_[row]);
    case DataType::kString:
      return AppendString(src.dict_[src.codes_[row]]);
    case DataType::kBool:
      return AppendBool(src.bools_[row] != 0);
  }
  return Status::Internal("bad column type");
}

Status Column::AppendChunk(const Column& src) {
  const bool widen_ints =
      type_ == DataType::kDouble && src.type_ == DataType::kInt64;
  if (src.type_ != type_ && !widen_ints) {
    return Status::InvalidArgument(
        "cannot append " + std::string(DataTypeName(src.type_)) +
        " chunk '" + src.name_ + "' to column '" + name_ + "' of type " +
        DataTypeName(type_));
  }
  if (src.size_ == 0) return Status::OK();

  // 1. Splice the typed value buffers (null slots already hold the right
  //    fillers in `src`, except the int64 -> double widening, which must
  //    rewrite null filler 0 as NaN).
  switch (type_) {
    case DataType::kDouble:
      if (widen_ints) {
        doubles_.reserve(size_ + src.size_);
        for (std::size_t r = 0; r < src.size_; ++r) {
          doubles_.push_back(src.NullBit(r)
                                 ? std::nan("")
                                 : static_cast<double>(src.ints_[r]));
        }
      } else {
        doubles_.insert(doubles_.end(), src.doubles_.begin(),
                        src.doubles_.end());
      }
      break;
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
      break;
    case DataType::kBool:
      bools_.insert(bools_.end(), src.bools_.begin(), src.bools_.end());
      break;
    case DataType::kString: {
      // Remap dictionary codes: intern each distinct referenced string
      // once, then push remapped codes.
      std::vector<int32_t> code_map(src.dict_.size(), -1);
      codes_.reserve(size_ + src.size_);
      for (std::size_t r = 0; r < src.size_; ++r) {
        const int32_t c = src.codes_[r];
        if (c < 0) {
          codes_.push_back(-1);
          continue;
        }
        int32_t& mapped = code_map[static_cast<std::size_t>(c)];
        if (mapped < 0) mapped = Intern(src.dict_[static_cast<std::size_t>(c)]);
        codes_.push_back(mapped);
      }
      break;
    }
  }

  // 2. Merge the null bitmap: shift src's words onto our bit offset. Bits
  //    past src.size_ in its last word are zero by construction, so the
  //    shifted OR never sets stray bits.
  const std::size_t offset = size_ & 63;
  const std::size_t new_size = size_ + src.size_;
  null_bits_.resize((new_size + 63) / 64, 0);
  const std::size_t src_words = (src.size_ + 63) / 64;
  for (std::size_t w = 0; w < src_words; ++w) {
    const uint64_t bits = src.null_bits_[w];
    const std::size_t base_word = (size_ >> 6) + w;
    null_bits_[base_word] |= bits << offset;
    if (offset != 0 && base_word + 1 < null_bits_.size()) {
      null_bits_[base_word + 1] |= bits >> (64 - offset);
    }
  }

  size_ = new_size;
  null_count_ += src.null_count_;
  return Status::OK();
}

Value Column::Get(std::size_t row) const {
  CDI_CHECK(row < size_);
  if (NullBit(row)) return Value::Null();
  switch (type_) {
    case DataType::kDouble:
      return Value(doubles_[row]);
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kString:
      return Value(dict_[codes_[row]]);
    case DataType::kBool:
      return Value(bools_[row] != 0);
  }
  return Value::Null();
}

Status Column::Set(std::size_t row, Value v) {
  if (row >= size_) {
    return Status::OutOfRange("row " + std::to_string(row) + " out of range");
  }
  CDI_RETURN_IF_ERROR(CheckType(v));
  if (v.is_null()) {
    switch (type_) {
      case DataType::kDouble:
        doubles_[row] = std::nan("");
        break;
      case DataType::kInt64:
        ints_[row] = 0;
        break;
      case DataType::kString:
        codes_[row] = -1;
        break;
      case DataType::kBool:
        bools_[row] = 0;
        break;
    }
    SetNullBit(row, true);
    return Status::OK();
  }
  switch (type_) {
    case DataType::kDouble:
      doubles_[row] = v.is_int64() ? static_cast<double>(v.as_int64())
                                   : v.as_double();
      break;
    case DataType::kInt64:
      ints_[row] = v.as_int64();
      break;
    case DataType::kString:
      codes_[row] = Intern(v.as_string());
      break;
    case DataType::kBool:
      bools_[row] = v.as_bool() ? 1 : 0;
      break;
  }
  SetNullBit(row, false);
  return Status::OK();
}

double Column::NullFraction() const {
  return size_ == 0 ? 0.0
                    : static_cast<double>(null_count_) /
                          static_cast<double>(size_);
}

double Column::NumericAt(std::size_t row) const {
  CDI_CHECK(row < size_);
  CDI_CHECK(type_ != DataType::kString)
      << "NumericAt on string column '" << name_ << "'";
  switch (type_) {
    case DataType::kDouble:
      return doubles_[row];  // null slots already hold NaN
    case DataType::kInt64:
      return NullBit(row) ? std::nan("")
                          : static_cast<double>(ints_[row]);
    case DataType::kBool:
      return NullBit(row) ? std::nan("") : (bools_[row] ? 1.0 : 0.0);
    case DataType::kString:
      break;
  }
  return std::nan("");
}

const std::string& Column::StringAt(std::size_t row) const {
  CDI_CHECK(row < size_);
  CDI_CHECK(type_ == DataType::kString)
      << "StringAt on non-string column '" << name_ << "'";
  CDI_CHECK(!NullBit(row)) << "StringAt on null cell of '" << name_ << "'";
  return dict_[codes_[row]];
}

std::vector<double> Column::ToDoubles() const {
  CDI_CHECK(type_ != DataType::kString)
      << "ToDoubles on string column '" << name_ << "'";
  if (type_ == DataType::kDouble) return doubles_;
  std::vector<double> out;
  out.reserve(size_);
  for (std::size_t r = 0; r < size_; ++r) out.push_back(NumericAt(r));
  return out;
}

DoubleSpan Column::View() const {
  CDI_CHECK(type_ != DataType::kString)
      << "View on string column '" << name_ << "'";
  if (type_ == DataType::kDouble) {
    return DoubleSpan::Borrow(doubles_.data(), size_);
  }
  return DoubleSpan(ToDoubles());  // owning span over the widened copy
}

std::vector<Value> Column::DistinctValues() const {
  std::vector<Value> out;
  switch (type_) {
    case DataType::kDouble: {
      std::unordered_set<uint64_t> seen;
      for (std::size_t r = 0; r < size_; ++r) {
        if (NullBit(r)) continue;
        if (seen.insert(CanonicalBits(doubles_[r])).second) {
          out.emplace_back(doubles_[r]);
        }
      }
      break;
    }
    case DataType::kInt64: {
      std::unordered_set<int64_t> seen;
      for (std::size_t r = 0; r < size_; ++r) {
        if (NullBit(r)) continue;
        if (seen.insert(ints_[r]).second) out.emplace_back(ints_[r]);
      }
      break;
    }
    case DataType::kString: {
      // The dictionary may hold entries stranded by Set, so walk the rows.
      std::vector<char> seen(dict_.size(), 0);
      for (std::size_t r = 0; r < size_; ++r) {
        if (NullBit(r)) continue;
        const int32_t c = codes_[r];
        if (!seen[static_cast<std::size_t>(c)]) {
          seen[static_cast<std::size_t>(c)] = 1;
          out.emplace_back(dict_[static_cast<std::size_t>(c)]);
        }
      }
      break;
    }
    case DataType::kBool: {
      bool seen[2] = {false, false};
      for (std::size_t r = 0; r < size_; ++r) {
        if (NullBit(r)) continue;
        const int b = bools_[r] ? 1 : 0;
        if (!seen[b]) {
          seen[b] = true;
          out.emplace_back(b != 0);
        }
      }
      break;
    }
  }
  return out;
}

std::size_t Column::DistinctCount() const {
  switch (type_) {
    case DataType::kDouble: {
      std::unordered_set<uint64_t> seen;
      seen.reserve(size_ - null_count_);
      for (std::size_t r = 0; r < size_; ++r) {
        if (!NullBit(r)) seen.insert(CanonicalBits(doubles_[r]));
      }
      return seen.size();
    }
    case DataType::kInt64: {
      std::unordered_set<int64_t> seen;
      seen.reserve(size_ - null_count_);
      for (std::size_t r = 0; r < size_; ++r) {
        if (!NullBit(r)) seen.insert(ints_[r]);
      }
      return seen.size();
    }
    case DataType::kString: {
      std::vector<char> seen(dict_.size(), 0);
      std::size_t n = 0;
      for (std::size_t r = 0; r < size_; ++r) {
        if (NullBit(r)) continue;
        char& flag = seen[static_cast<std::size_t>(codes_[r])];
        n += flag ? 0 : 1;
        flag = 1;
      }
      return n;
    }
    case DataType::kBool: {
      bool seen[2] = {false, false};
      for (std::size_t r = 0; r < size_; ++r) {
        if (!NullBit(r)) seen[bools_[r] ? 1 : 0] = true;
      }
      return static_cast<std::size_t>(seen[0]) +
             static_cast<std::size_t>(seen[1]);
    }
  }
  return 0;
}

Column Column::Take(const std::vector<std::size_t>& rows) const {
  Column out(name_, type_);
  out.Reserve(rows.size());
  switch (type_) {
    case DataType::kDouble:
      for (std::size_t r : rows) {
        CDI_CHECK(r < size_);
        out.doubles_.push_back(doubles_[r]);
        out.PushBack(NullBit(r));
      }
      break;
    case DataType::kInt64:
      for (std::size_t r : rows) {
        CDI_CHECK(r < size_);
        out.ints_.push_back(ints_[r]);
        out.PushBack(NullBit(r));
      }
      break;
    case DataType::kString:
      // Codes stay valid because the whole dictionary is shared (copied);
      // stranded entries cost memory, not correctness.
      out.dict_ = dict_;
      out.dict_index_ = dict_index_;
      for (std::size_t r : rows) {
        CDI_CHECK(r < size_);
        out.codes_.push_back(codes_[r]);
        out.PushBack(NullBit(r));
      }
      break;
    case DataType::kBool:
      for (std::size_t r : rows) {
        CDI_CHECK(r < size_);
        out.bools_.push_back(bools_[r]);
        out.PushBack(NullBit(r));
      }
      break;
  }
  return out;
}

std::size_t Column::ByteSize() const {
  std::size_t bytes = null_bits_.size() * sizeof(uint64_t);
  bytes += doubles_.size() * sizeof(double);
  bytes += ints_.size() * sizeof(int64_t);
  bytes += bools_.size() * sizeof(uint8_t);
  bytes += codes_.size() * sizeof(int32_t);
  for (const std::string& s : dict_) bytes += s.size() + sizeof(std::string);
  // Each dictionary-index entry stores the string once more plus a code.
  for (const auto& [s, code] : dict_index_) {
    bytes += s.size() + sizeof(std::string) + sizeof(code);
  }
  return bytes;
}

bool Column::TypeChecks() const {
  const std::size_t active = type_ == DataType::kDouble   ? doubles_.size()
                             : type_ == DataType::kInt64  ? ints_.size()
                             : type_ == DataType::kString ? codes_.size()
                                                          : bools_.size();
  if (active != size_) return false;
  if (null_bits_.size() != (size_ + 63) / 64) return false;
  if (type_ == DataType::kString) {
    for (std::size_t r = 0; r < size_; ++r) {
      const int32_t c = codes_[r];
      if (NullBit(r) ? c != -1
                     : (c < 0 || static_cast<std::size_t>(c) >= dict_.size())) {
        return false;
      }
    }
  }
  return true;
}

void Column::AppendKeyBytes(std::size_t row, std::string* out) const {
  CDI_CHECK(row < size_);
  if (NullBit(row)) {
    out->push_back(kKeyNull);
    return;
  }
  switch (type_) {
    case DataType::kDouble: {
      out->push_back(kKeyDouble);
      const uint64_t bits = CanonicalBits(doubles_[row]);
      AppendRaw(out, &bits, sizeof(bits));
      break;
    }
    case DataType::kInt64:
      out->push_back(kKeyInt64);
      AppendRaw(out, &ints_[row], sizeof(int64_t));
      break;
    case DataType::kString:
      out->push_back(kKeyCode);
      AppendRaw(out, &codes_[row], sizeof(int32_t));
      break;
    case DataType::kBool:
      out->push_back(kKeyBool);
      out->push_back(bools_[row] ? '\x01' : '\x00');
      break;
  }
}

std::size_t Column::KeyWidth() const {
  switch (type_) {
    case DataType::kDouble:
      return 1 + sizeof(uint64_t);
    case DataType::kInt64:
      return 1 + sizeof(int64_t);
    case DataType::kString:
      return 1 + sizeof(int32_t);
    case DataType::kBool:
      return 2;
  }
  return 0;
}

void Column::WriteKeyBytes(char* arena, std::size_t* cursor) const {
  const std::size_t width = KeyWidth();
  // One pass per column: `payload(r, dst)` writes a non-null cell's value
  // bytes after its tag.
  const auto fill = [&](char tag, auto payload) {
    for (std::size_t r = 0; r < size_; ++r) {
      char* dst = arena + cursor[r];
      if (null_count_ != 0 && NullBit(r)) {
        *dst = kKeyNull;
        cursor[r] += 1;
        continue;
      }
      *dst = tag;
      payload(r, dst + 1);
      cursor[r] += width;
    }
  };
  switch (type_) {
    case DataType::kDouble:
      fill(kKeyDouble, [this](std::size_t r, char* dst) {
        const uint64_t bits = CanonicalBits(doubles_[r]);
        std::memcpy(dst, &bits, sizeof(bits));
      });
      break;
    case DataType::kInt64:
      fill(kKeyInt64, [this](std::size_t r, char* dst) {
        std::memcpy(dst, &ints_[r], sizeof(int64_t));
      });
      break;
    case DataType::kString:
      fill(kKeyCode, [this](std::size_t r, char* dst) {
        std::memcpy(dst, &codes_[r], sizeof(int32_t));
      });
      break;
    case DataType::kBool:
      fill(kKeyBool, [this](std::size_t r, char* dst) {
        *dst = bools_[r] ? '\x01' : '\x00';
      });
      break;
  }
}

}  // namespace cdi::table
