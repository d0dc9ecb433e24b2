// Database: the federation's materialized state — one Table per catalog
// relation. Substitutes for the paper's live autonomous ISs (see DESIGN.md
// substitutions); capability changes are applied through eve/.

#ifndef EVE_STORAGE_DATABASE_H_
#define EVE_STORAGE_DATABASE_H_

#include <map>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/table.h"

namespace eve {

class Database {
 public:
  Database() = default;

  // Creates an empty table for `relation` using the catalog schema.
  Status CreateTable(const Catalog& catalog, const std::string& relation);

  // Creates empty tables for every catalog relation that has none yet.
  Status CreateAllTables(const Catalog& catalog);

  Status DropTable(const std::string& relation);

  bool HasTable(const std::string& relation) const {
    return tables_.count(relation) > 0;
  }

  Result<Table*> GetTable(const std::string& relation);
  Result<const Table*> GetTable(const std::string& relation) const;

  // Convenience: inserts a row into `relation`, validating its schema.
  Status Insert(const std::string& relation, Tuple tuple);

  size_t NumTables() const { return tables_.size(); }

 private:
  std::map<std::string, Table> tables_;
};

}  // namespace eve

#endif  // EVE_STORAGE_DATABASE_H_
