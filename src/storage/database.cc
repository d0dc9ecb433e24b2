#include "storage/database.h"

namespace eve {

Status Database::CreateTable(const Catalog& catalog,
                             const std::string& relation) {
  if (tables_.count(relation) > 0) {
    return Status::AlreadyExists("table already exists: " + relation);
  }
  EVE_ASSIGN_OR_RETURN(const RelationDef* def, catalog.GetRelation(relation));
  tables_.emplace(relation, Table(def->schema));
  return Status::OK();
}

Status Database::CreateAllTables(const Catalog& catalog) {
  for (const std::string& relation : catalog.RelationNames()) {
    if (!HasTable(relation)) {
      EVE_RETURN_IF_ERROR(CreateTable(catalog, relation));
    }
  }
  return Status::OK();
}

Status Database::DropTable(const std::string& relation) {
  if (tables_.erase(relation) == 0) {
    return Status::NotFound("table not found: " + relation);
  }
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& relation) {
  auto it = tables_.find(relation);
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + relation);
  }
  return &it->second;
}

Result<const Table*> Database::GetTable(const std::string& relation) const {
  auto it = tables_.find(relation);
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + relation);
  }
  return &it->second;
}

Status Database::Insert(const std::string& relation, Tuple tuple) {
  EVE_ASSIGN_OR_RETURN(Table * table, GetTable(relation));
  return table->Insert(std::move(tuple));
}

}  // namespace eve
