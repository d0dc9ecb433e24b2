// Table: an in-memory relation extent with a schema. Used to evaluate views
// so legal rewritings can be checked semantically (extent containment),
// not just syntactically.
//
// Storage is columnar: one ColumnChunk per attribute, shared across Table
// copies via shared_ptr with copy-on-write (a Table copy is O(#columns);
// columns are cloned only when mutated). Schema-evolution ops
// (DropColumn/RenameColumn/AddColumn) are column-pointer operations, not
// per-row splices. Rows go in as Tuples (Insert) and are read cell by cell
// through the columnar accessors.

#ifndef EVE_STORAGE_TABLE_H_
#define EVE_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "types/schema.h"

namespace eve {

class Table {
 public:
  // Copies share column chunks (copy-on-write).
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }

  // Columnar accessors. `column(i)` follows schema attribute order.
  const ColumnChunk& column(size_t i) const { return *columns_[i]; }
  const std::shared_ptr<const ColumnChunk>& column_handle(size_t i) const {
    return columns_[i];
  }

  // Builds a table from pre-built column handles (all of length
  // `num_rows`); the executor's zero-copy projection path.
  static Table FromColumns(
      Schema schema,
      std::vector<std::shared_ptr<const ColumnChunk>> columns,
      size_t num_rows);

  // Appends `tuple` after validating it against the schema.
  Status Insert(Tuple tuple);

  // Appends without validation (trusted internal producers only). The
  // tuple arity must match the schema.
  void InsertUnchecked(Tuple tuple);

  void Reserve(size_t rows);

  // Set semantics helpers (relational extents are sets in the paper's
  // model): sorts rows (TupleLess order: columns left-to-right, NULLs
  // first) and removes duplicate rows in place. Tables that went through
  // Deduplicate stay dedup-sorted until the next mutation, so a second
  // Deduplicate is free.
  void Deduplicate();

  // True if every row of *this appears in `other` (bag-to-set containment:
  // both sides deduplicated first). Schemas must match positionally by type.
  bool IsSubsetOf(const Table& other) const;

  // True if both tables hold the same set of rows.
  bool SetEquals(const Table& other) const;

  // Renders header + rows, for examples and debugging.
  std::string ToString(size_t max_rows = 20) const;

 private:
  // Column for in-place mutation; clones the chunk first if it is shared
  // with another table (copy-on-write).
  ColumnChunk& MutableColumn(size_t i);

  // Three-way row comparison across all columns (TupleLess semantics).
  static int CompareTableRows(const Table& a, size_t ra, const Table& b,
                              size_t rb);
  static bool TableRowsEqual(const Table& a, size_t ra, const Table& b,
                             size_t rb);
  // Row indexes of `t` in sorted order (optionally unique).
  static std::vector<uint32_t> SortedRowIndex(const Table& t, bool unique);
  // Rebuilds *this to hold exactly `rows` (by index) of *this.
  void GatherInPlace(const std::vector<uint32_t>& rows);

  Schema schema_;
  std::vector<std::shared_ptr<const ColumnChunk>> columns_;
  size_t num_rows_ = 0;
  bool dedup_sorted_ = false;
};

}  // namespace eve

#endif  // EVE_STORAGE_TABLE_H_
