#include "storage/column.h"

#include <cassert>
#include <cstring>
#include <functional>

namespace eve {

namespace {

// Variant rank of a Value, matching the std::variant alternative order in
// types/value.h (monostate, bool, int64_t, double, string, Date). Used for
// the operator< fallback when Compare() says kIncomparable.
int RankOf(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt:
      return 2;
    case DataType::kDouble:
      return 3;
    case DataType::kString:
      return 4;
    case DataType::kDate:
      return 5;
  }
  return 0;
}

int Sign(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

int SignI(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

// Three-way comparison of two Values with exactly the semantics of
// Value::operator< (Compare() first; on kNull/kIncomparable fall back to
// variant rank, so NULL sorts first and NULL == NULL).
int CompareValues(const Value& a, const Value& b) {
  switch (Compare(a, b)) {
    case CompareResult::kLess:
      return -1;
    case CompareResult::kEqual:
      return 0;
    case CompareResult::kGreater:
      return 1;
    default:
      return SignI(RankOf(a.type()), RankOf(b.type()));
  }
}

uint64_t HashDouble(double d) {
  // +0.0 and -0.0 compare equal; normalize so they hash equal too.
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  // splitmix64 finalizer.
  bits ^= bits >> 30;
  bits *= 0xbf58476d1ce4e5b9ULL;
  bits ^= bits >> 27;
  bits *= 0x94d049bb133111ebULL;
  bits ^= bits >> 31;
  return bits;
}

constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kTrueHash = 0x2545f4914f6cdd1dULL;
constexpr uint64_t kFalseHash = 0x1234567887654321ULL;
constexpr uint64_t kDateTag = 0xda942042e4dd58b5ULL;

uint64_t HashValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return kNullHash;
    case DataType::kBool:
      return v.bool_value() ? kTrueHash : kFalseHash;
    case DataType::kInt:
      // Ints hash as their double widening so cross-type numeric equality
      // (Compare says kEqual) implies hash equality.
      return HashDouble(static_cast<double>(v.int_value()));
    case DataType::kDouble:
      return HashDouble(v.double_value());
    case DataType::kString:
      return std::hash<std::string>{}(v.string_value());
    case DataType::kDate:
      return HashDouble(
                 static_cast<double>(v.date_value().days_since_epoch())) ^
             kDateTag;
  }
  return kNullHash;
}

}  // namespace

Value ColumnChunk::GetValue(size_t row) const {
  assert(row < size_);
  if (IsNull(row)) return Value::Null();
  if (boxed_) return values_[row];
  const size_t p = Phys(row);
  switch (type_) {
    case DataType::kBool:
      return Value::Bool(bools_[p] != 0);
    case DataType::kInt:
      return Value::Int(ints_[p]);
    case DataType::kDouble:
      return Value::Double(doubles_[p]);
    case DataType::kString:
      return Value::String(strings_[p]);
    case DataType::kDate:
      return Value::MakeDate(Date(ints_[p]));
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void ColumnChunk::PushNullBit(bool is_null) {
  const size_t p = size_ - null_prefix_;
  size_t word = p >> 6;
  if (word >= null_words_.size()) null_words_.push_back(0);
  if (is_null) null_words_[word] |= (1ULL << (p & 63));
}

void ColumnChunk::Demote() {
  if (boxed_) return;
  values_.clear();
  values_.reserve(size_);
  // Boxed storage indexes by row directly, so the null prefix collapses
  // into the bitmap.
  std::vector<uint64_t> words((size_ + 63) / 64, 0);
  for (size_t i = 0; i < size_; ++i) {
    if (IsNull(i)) words[i >> 6] |= (1ULL << (i & 63));
    values_.push_back(GetValue(i));
  }
  null_words_ = std::move(words);
  null_prefix_ = 0;
  ints_.clear();
  ints_.shrink_to_fit();
  doubles_.clear();
  doubles_.shrink_to_fit();
  strings_.clear();
  strings_.shrink_to_fit();
  bools_.clear();
  bools_.shrink_to_fit();
  boxed_ = true;
}

void ColumnChunk::AppendNull() {
  if (!boxed_ && size_ == null_prefix_) {
    // Still an all-null run: extend the prefix, no payload.
    ++null_prefix_;
    ++size_;
    return;
  }
  PushNullBit(true);
  if (boxed_) {
    values_.push_back(Value::Null());
  } else {
    switch (type_) {
      case DataType::kBool:
        bools_.push_back(0);
        break;
      case DataType::kInt:
      case DataType::kDate:
        ints_.push_back(0);
        break;
      case DataType::kDouble:
        doubles_.push_back(0.0);
        break;
      case DataType::kString:
        strings_.emplace_back();
        break;
      case DataType::kNull:
        break;  // all-null column: bitmap alone carries the data
    }
  }
  ++size_;
}

void ColumnChunk::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return;
  }
  if (!boxed_) {
    bool match = false;
    switch (type_) {
      case DataType::kBool:
        match = value.type() == DataType::kBool;
        if (match) bools_.push_back(value.bool_value() ? 1 : 0);
        break;
      case DataType::kInt:
        match = value.type() == DataType::kInt;
        if (match) ints_.push_back(value.int_value());
        break;
      case DataType::kDouble:
        match = value.type() == DataType::kDouble;
        if (match) doubles_.push_back(value.double_value());
        break;
      case DataType::kString:
        match = value.type() == DataType::kString;
        if (match) strings_.push_back(value.string_value());
        break;
      case DataType::kDate:
        match = value.type() == DataType::kDate;
        if (match) ints_.push_back(value.date_value().days_since_epoch());
        break;
      case DataType::kNull:
        match = false;  // non-null value into a kNull-typed column: box it
        break;
    }
    if (!match) Demote();
  }
  if (boxed_) values_.push_back(value);
  PushNullBit(false);
  ++size_;
}

void ColumnChunk::AppendFrom(const ColumnChunk& other, size_t row) {
  if (other.IsNull(row)) {
    AppendNull();
    return;
  }
  if (!boxed_ && !other.boxed_ && type_ == other.type_) {
    const size_t p = other.Phys(row);
    switch (type_) {
      case DataType::kBool:
        bools_.push_back(other.bools_[p]);
        break;
      case DataType::kInt:
      case DataType::kDate:
        ints_.push_back(other.ints_[p]);
        break;
      case DataType::kDouble:
        doubles_.push_back(other.doubles_[p]);
        break;
      case DataType::kString:
        strings_.push_back(other.strings_[p]);
        break;
      case DataType::kNull:
        // non-null cell in a kNull chunk is impossible (bitmap says null)
        break;
    }
    PushNullBit(false);
    ++size_;
    return;
  }
  Append(other.GetValue(row));
}

void ColumnChunk::Reserve(size_t rows) {
  null_words_.reserve((rows + 63) / 64);
  if (boxed_) {
    values_.reserve(rows);
    return;
  }
  switch (type_) {
    case DataType::kBool:
      bools_.reserve(rows);
      break;
    case DataType::kInt:
    case DataType::kDate:
      ints_.reserve(rows);
      break;
    case DataType::kDouble:
      doubles_.reserve(rows);
      break;
    case DataType::kString:
      strings_.reserve(rows);
      break;
    case DataType::kNull:
      break;
  }
}

int ColumnChunk::CompareRows(size_t row, const ColumnChunk& other,
                             size_t other_row) const {
  bool an = IsNull(row), bn = other.IsNull(other_row);
  // Value::operator<: Compare()==kNull falls through to the variant-rank
  // fallback, so NULL sorts before everything and NULL == NULL.
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  if (!boxed_ && !other.boxed_) {
    const size_t pa = Phys(row);
    const size_t pb = other.Phys(other_row);
    if (type_ == other.type_) {
      switch (type_) {
        case DataType::kBool:
          return SignI(bools_[pa], other.bools_[pb]);
        case DataType::kInt:
        case DataType::kDate:
          return SignI(ints_[pa], other.ints_[pb]);
        case DataType::kDouble:
          return Sign(doubles_[pa], other.doubles_[pb]);
        case DataType::kString: {
          int c = strings_[pa].compare(other.strings_[pb]);
          return c < 0 ? -1 : (c > 0 ? 1 : 0);
        }
        case DataType::kNull:
          return 0;  // unreachable: both cells non-null
      }
    }
    // Cross-type numeric widening, exactly as Compare() does.
    bool a_num = type_ == DataType::kInt || type_ == DataType::kDouble;
    bool b_num =
        other.type_ == DataType::kInt || other.type_ == DataType::kDouble;
    if (a_num && b_num) {
      double a = type_ == DataType::kInt ? static_cast<double>(ints_[pa])
                                         : doubles_[pa];
      double b = other.type_ == DataType::kInt
                     ? static_cast<double>(other.ints_[pb])
                     : other.doubles_[pb];
      int s = Sign(a, b);
      if (s != 0) return s;
      // Equal-valued int vs double: Compare says kEqual, so operator< is
      // false both ways — a tie.
      return 0;
    }
    // Incomparable types: variant-rank fallback.
    return SignI(RankOf(type_), RankOf(other.type_));
  }
  return CompareValues(GetValue(row), other.GetValue(other_row));
}

bool ColumnChunk::RowsEqual(size_t row, const ColumnChunk& other,
                            size_t other_row) const {
  bool an = IsNull(row), bn = other.IsNull(other_row);
  if (an || bn) return an == bn;
  if (!boxed_ && !other.boxed_) {
    // Strict equality: types must match exactly (no int==double widening in
    // Value::operator==).
    if (type_ != other.type_) return false;
    const size_t pa = Phys(row);
    const size_t pb = other.Phys(other_row);
    switch (type_) {
      case DataType::kBool:
        return bools_[pa] == other.bools_[pb];
      case DataType::kInt:
      case DataType::kDate:
        return ints_[pa] == other.ints_[pb];
      case DataType::kDouble:
        return doubles_[pa] == other.doubles_[pb];
      case DataType::kString:
        return strings_[pa] == other.strings_[pb];
      case DataType::kNull:
        return true;  // unreachable: both non-null
    }
  }
  return GetValue(row) == other.GetValue(other_row);
}

uint64_t ColumnChunk::HashRow(size_t row) const {
  if (IsNull(row)) return kNullHash;
  if (!boxed_) {
    const size_t p = Phys(row);
    switch (type_) {
      case DataType::kBool:
        return bools_[p] ? kTrueHash : kFalseHash;
      case DataType::kInt:
        return HashDouble(static_cast<double>(ints_[p]));
      case DataType::kDouble:
        return HashDouble(doubles_[p]);
      case DataType::kString:
        return std::hash<std::string>{}(strings_[p]);
      case DataType::kDate:
        return HashDouble(static_cast<double>(ints_[p])) ^ kDateTag;
      case DataType::kNull:
        return kNullHash;
    }
  }
  return HashValue(values_[row]);
}

ColumnChunk ColumnChunk::Gather(const std::vector<uint32_t>& rows) const {
  ColumnChunk out(type_);
  out.Reserve(rows.size());
  for (uint32_t r : rows) out.AppendFrom(*this, r);
  return out;
}

}  // namespace eve
