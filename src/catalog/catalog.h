// Catalog: structural descriptions of the federation — information sources
// and the relations they export (the data-structure part of MISD, Sec. 2).
// Semantic constraints (join, function-of, PC, ...) live in mkb/.

#ifndef EVE_CATALOG_CATALOG_H_
#define EVE_CATALOG_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/attribute_ref.h"
#include "common/persistent_table.h"
#include "common/result.h"
#include "types/schema.h"

namespace eve {

// One exported relation IS.R(A1, ..., An). The schema doubles as the
// MISD type-integrity constraint TC_{R,Ai} (Fig. 1): attribute Ai has
// type Type_i.
struct RelationDef {
  std::string source;    // owning information source, e.g. "IS1"
  std::string name;      // relation name, unique across the federation
  Schema schema;
  // MISD order-integrity constraint OC_R: the attributes (by name) whose
  // ordering the source guarantees; empty when unordered.
  std::vector<std::string> ordered_by;

  std::string QualifiedName() const { return source + "." + name; }
};

// Registry of information sources and relation definitions. Relation names
// are unique across sources; attribute names sharing a name across
// relations are assumed to share a type (paper, Sec. 2).
//
// Persistent: each relation is one shared, immutable RelationDef in a
// name-ordered SortedTable, so copying a catalog is O(1) and an edit
// copies one leaf of at most SortedTable::kLeafEntries relations (plus the
// leaf list). The same-name-same-type convention is checked against a
// per-attribute-name index, not a scan of every relation. A RelationDef
// pointer handed out stays valid while any copy of the catalog holding
// that relation unchanged lives.
class Catalog {
 public:
  Catalog() = default;

  // Registers `def`; rejects duplicate relation names, empty names, and
  // attribute-name/type clashes with the same-name-same-type convention.
  Status AddRelation(RelationDef def);

  // Removes a relation; error if absent.
  Status DropRelation(const std::string& relation);

  // Renames a relation; error if absent or the new name clashes.
  Status RenameRelation(const std::string& relation,
                        const std::string& new_name);

  // Adds an attribute to an existing relation.
  Status AddAttribute(const std::string& relation, AttributeDef attr);

  // Drops an attribute from an existing relation.
  Status DropAttribute(const std::string& relation,
                       const std::string& attribute);

  // Renames an attribute within a relation.
  Status RenameAttribute(const std::string& relation,
                         const std::string& attribute,
                         const std::string& new_name);

  bool HasRelation(const std::string& relation) const;
  bool HasAttribute(const AttributeRef& ref) const;

  Result<const RelationDef*> GetRelation(const std::string& relation) const;

  // Type of `ref`; NotFound if the relation or attribute is unknown.
  Result<DataType> TypeOf(const AttributeRef& ref) const;

  // All relation names, sorted.
  std::vector<std::string> RelationNames() const;

  // All relations exported by `source`, sorted by name.
  std::vector<std::string> RelationsOfSource(const std::string& source) const;

  // All distinct owning sources, sorted.
  std::vector<std::string> SourceNames() const;

  size_t NumRelations() const { return relations_.size(); }

  // The relations by name, in leaves; two catalogs holding one leaf
  // pointer hold the same relations there.
  const SortedTable<RelationDef>& relation_table() const { return relations_; }

  // Multi-line dump for debugging and docs.
  std::string ToString() const;

 private:
  // How many relations export an attribute name, and its type.
  struct AttributeUse {
    DataType type;
    size_t relations = 0;
  };

  // Type-checks `attr` against every relation but `relation` exporting its
  // name.
  Status CheckSameNameSameType(const std::string& relation,
                               const AttributeDef& attr) const;
  // Counts one more (delta 1) or one fewer (-1) relation exporting `attr`.
  void CountAttribute(const AttributeDef& attr, int delta);
  // Installs `def` under its name, replacing a relation of that name.
  void Put(std::shared_ptr<const RelationDef> def) {
    const std::string name = def->name;
    relations_.Set(name, std::move(def));
  }

  SortedTable<RelationDef> relations_;
  PersistentHashMap<AttributeUse> attribute_uses_;
};

}  // namespace eve

#endif  // EVE_CATALOG_CATALOG_H_
