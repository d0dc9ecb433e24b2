// ColumnChunk: one typed column vector of a relation extent, with a packed
// null bitmap. The columnar substrate under Table (storage/table.h) and the
// executor (algebra/executor.h).
//
// Representation contract: a chunk declared with column type T stores its
// non-null cells in a flat std::vector of T's physical type as long as every
// appended Value is EXACTLY of type T (no widening — Value equality is
// strict, and extent byte-identity tests depend on values round-tripping
// unchanged). The first append of a differently-typed value demotes the
// chunk to a boxed std::vector<Value> representation that preserves the
// exact values; all operators keep working, just slower. Homogeneous
// columns — every real workload — never leave the typed fast path.

#ifndef EVE_STORAGE_COLUMN_H_
#define EVE_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/data_type.h"
#include "types/value.h"

namespace eve {

class ColumnChunk {
 public:
  ColumnChunk() = default;
  explicit ColumnChunk(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  bool boxed() const { return boxed_; }
  // Rows [0, null_prefix()) are implicitly NULL and carry no payload.
  size_t null_prefix() const { return null_prefix_; }
  // True when the typed borrow vectors below index directly by row id —
  // the precondition for vectorized fast paths.
  bool plain() const { return !boxed_ && null_prefix_ == 0; }

  bool IsNull(size_t row) const {
    if (row < null_prefix_) return true;
    const size_t p = row - null_prefix_;
    return (null_words_[p >> 6] >> (p & 63)) & 1;
  }

  // Materializes the cell as a Value (exactly the Value that was appended).
  Value GetValue(size_t row) const;

  // Appends a cell. Values of exactly the declared type (or NULL) stay on
  // the typed path; anything else demotes the chunk to boxed storage.
  void Append(const Value& value);
  void AppendNull();
  // Appends `other`'s cell `row` (typed-to-typed copies skip Value boxing).
  void AppendFrom(const ColumnChunk& other, size_t row);

  void Reserve(size_t rows);

  // Three-way row comparison mirroring Value::operator< / operator==
  // exactly (NULL sorts first and compares equal to NULL; numeric values
  // compare widened; then bool < int/double < string < date by variant
  // rank). Used for columnar sort/dedup/containment so results are
  // byte-identical to the historical row-store TupleLess path.
  int CompareRows(size_t row, const ColumnChunk& other,
                  size_t other_row) const;

  // Strict cell equality (Value::operator== semantics: same type, same
  // value; NULL equals NULL).
  bool RowsEqual(size_t row, const ColumnChunk& other,
                 size_t other_row) const;

  // 64-bit cell hash with Compare()-consistent normalization: int cells
  // hash as their double widening, so an int and a double that compare
  // equal hash equal (join keys mix the two). NULL hashes to a fixed tag.
  uint64_t HashRow(size_t row) const;

  // Gathers `rows` into a fresh chunk of the same declared type.
  ColumnChunk Gather(const std::vector<uint32_t>& rows) const;

  // Typed borrows for vectorized operators. Valid only when plain() and
  // type() matches; cells at null rows hold unspecified defaults.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  // Dates store as days-since-epoch.
  const std::vector<int64_t>& dates() const { return ints_; }

 private:
  void Demote();  // switch to boxed storage, preserving exact values
  void PushNullBit(bool is_null);
  // Physical payload/bitmap index of logical row `row`.
  size_t Phys(size_t row) const { return row - null_prefix_; }

  DataType type_ = DataType::kNull;
  size_t size_ = 0;
  size_t null_prefix_ = 0;
  bool boxed_ = false;
  // One bit per row past the null prefix, little-endian within each 64-bit
  // word; 1 = NULL.
  std::vector<uint64_t> null_words_;
  // Exactly one of these is active: the typed vector matching type_ (dates
  // share ints_ as days-since-epoch), or boxed_ values.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> bools_;
  std::vector<Value> values_;
};

}  // namespace eve

#endif  // EVE_STORAGE_COLUMN_H_
