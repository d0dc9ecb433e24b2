#include "catalog/catalog.h"

#include <set>
#include <sstream>

namespace eve {

// Enforces the paper's convention that attributes exported under the same
// name have the same type, across all relations in the catalog. Every
// relation exporting a name shares its type, so the index decides; only a
// refusal scans, in name order, for the relation its message names.
Status Catalog::CheckSameNameSameType(const std::string& relation,
                                      const AttributeDef& attr) const {
  const AttributeUse* use = attribute_uses_.Find(attr.name);
  if (use == nullptr || use->type == attr.type) return Status::OK();
  Status refusal = Status::OK();
  relations_.ForEach([&](const std::string& name, const RelationDef& def) {
    if (!refusal.ok() || name == relation) return;
    if (auto idx = def.schema.IndexOf(attr.name)) {
      const DataType existing = def.schema.attribute(*idx).type;
      if (existing != attr.type) {
        refusal = Status::TypeError(
            "attribute '" + attr.name + "' already exported by relation '" +
            name + "' with type " + std::string(DataTypeToString(existing)) +
            ", conflicting with type " +
            std::string(DataTypeToString(attr.type)));
      }
    }
  });
  return refusal;
}

void Catalog::CountAttribute(const AttributeDef& attr, int delta) {
  const AttributeUse* use = attribute_uses_.Find(attr.name);
  const size_t count = (use != nullptr ? use->relations : 0) +
                       static_cast<size_t>(static_cast<long>(delta));
  if (count == 0) {
    attribute_uses_.Erase(attr.name);
  } else {
    attribute_uses_.Set(attr.name, AttributeUse{attr.type, count});
  }
}

Status Catalog::AddRelation(RelationDef def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("relation name must not be empty");
  }
  if (def.source.empty()) {
    return Status::InvalidArgument("information source must not be empty");
  }
  if (relations_.Find(def.name) != nullptr) {
    return Status::AlreadyExists("relation already exists: " + def.name);
  }
  for (const AttributeDef& attr : def.schema.attributes()) {
    EVE_RETURN_IF_ERROR(CheckSameNameSameType(def.name, attr));
  }
  for (const std::string& ordered_attr : def.ordered_by) {
    if (!def.schema.Contains(ordered_attr)) {
      return Status::InvalidArgument(
          "order-integrity constraint references unknown attribute: " +
          ordered_attr);
    }
  }
  for (const AttributeDef& attr : def.schema.attributes()) {
    CountAttribute(attr, 1);
  }
  Put(std::make_shared<const RelationDef>(std::move(def)));
  return Status::OK();
}

Status Catalog::DropRelation(const std::string& relation) {
  const RelationDef* def = relations_.Find(relation);
  if (def == nullptr) {
    return Status::NotFound("relation not found: " + relation);
  }
  for (const AttributeDef& attr : def->schema.attributes()) {
    CountAttribute(attr, -1);
  }
  relations_.Erase(relation);
  return Status::OK();
}

Status Catalog::RenameRelation(const std::string& relation,
                               const std::string& new_name) {
  if (new_name.empty()) {
    return Status::InvalidArgument("new relation name must not be empty");
  }
  const RelationDef* def = relations_.Find(relation);
  if (def == nullptr) {
    return Status::NotFound("relation not found: " + relation);
  }
  if (relation == new_name) return Status::OK();
  if (relations_.Find(new_name) != nullptr) {
    return Status::AlreadyExists("relation already exists: " + new_name);
  }
  auto renamed = std::make_shared<RelationDef>(*def);
  renamed->name = new_name;
  relations_.Erase(relation);
  Put(std::move(renamed));
  return Status::OK();
}

Status Catalog::AddAttribute(const std::string& relation, AttributeDef attr) {
  const RelationDef* def = relations_.Find(relation);
  if (def == nullptr) {
    return Status::NotFound("relation not found: " + relation);
  }
  if (def->schema.Contains(attr.name)) {
    return Status::AlreadyExists("attribute already exists: " + relation +
                                 "." + attr.name);
  }
  EVE_RETURN_IF_ERROR(CheckSameNameSameType(relation, attr));
  std::vector<AttributeDef> attrs = def->schema.attributes();
  attrs.push_back(attr);
  auto next = std::make_shared<RelationDef>(*def);
  EVE_ASSIGN_OR_RETURN(next->schema, Schema::Create(std::move(attrs)));
  CountAttribute(attr, 1);
  Put(std::move(next));
  return Status::OK();
}

Status Catalog::DropAttribute(const std::string& relation,
                              const std::string& attribute) {
  const RelationDef* def = relations_.Find(relation);
  if (def == nullptr) {
    return Status::NotFound("relation not found: " + relation);
  }
  std::vector<AttributeDef> attrs = def->schema.attributes();
  auto pos = def->schema.IndexOf(attribute);
  if (!pos) {
    return Status::NotFound("attribute not found: " + relation + "." +
                            attribute);
  }
  const AttributeDef dropped = attrs[*pos];
  attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(*pos));
  auto next = std::make_shared<RelationDef>(*def);
  EVE_ASSIGN_OR_RETURN(next->schema, Schema::Create(std::move(attrs)));
  std::erase(next->ordered_by, attribute);
  CountAttribute(dropped, -1);
  Put(std::move(next));
  return Status::OK();
}

Status Catalog::RenameAttribute(const std::string& relation,
                                const std::string& attribute,
                                const std::string& new_name) {
  if (new_name.empty()) {
    return Status::InvalidArgument("new attribute name must not be empty");
  }
  const RelationDef* def = relations_.Find(relation);
  if (def == nullptr) {
    return Status::NotFound("relation not found: " + relation);
  }
  auto pos = def->schema.IndexOf(attribute);
  if (!pos) {
    return Status::NotFound("attribute not found: " + relation + "." +
                            attribute);
  }
  if (attribute == new_name) return Status::OK();
  if (def->schema.Contains(new_name)) {
    return Status::AlreadyExists("attribute already exists: " + relation +
                                 "." + new_name);
  }
  std::vector<AttributeDef> attrs = def->schema.attributes();
  const AttributeDef old_attr = attrs[*pos];
  const AttributeDef new_attr{new_name, old_attr.type};
  EVE_RETURN_IF_ERROR(CheckSameNameSameType(relation, new_attr));
  attrs[*pos].name = new_name;
  auto next = std::make_shared<RelationDef>(*def);
  EVE_ASSIGN_OR_RETURN(next->schema, Schema::Create(std::move(attrs)));
  for (std::string& ordered_attr : next->ordered_by) {
    if (ordered_attr == attribute) ordered_attr = new_name;
  }
  CountAttribute(old_attr, -1);
  CountAttribute(new_attr, 1);
  Put(std::move(next));
  return Status::OK();
}

bool Catalog::HasRelation(const std::string& relation) const {
  return relations_.Find(relation) != nullptr;
}

bool Catalog::HasAttribute(const AttributeRef& ref) const {
  const RelationDef* def = relations_.Find(ref.relation);
  return def != nullptr && def->schema.Contains(ref.attribute);
}

Result<const RelationDef*> Catalog::GetRelation(
    const std::string& relation) const {
  const RelationDef* def = relations_.Find(relation);
  if (def == nullptr) {
    return Status::NotFound("relation not found: " + relation);
  }
  return def;
}

Result<DataType> Catalog::TypeOf(const AttributeRef& ref) const {
  EVE_ASSIGN_OR_RETURN(const RelationDef* def, GetRelation(ref.relation));
  auto idx = def->schema.IndexOf(ref.attribute);
  if (!idx) {
    return Status::NotFound("attribute not found: " + ref.ToString());
  }
  return def->schema.attribute(*idx).type;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  relations_.ForEach(
      [&](const std::string& name, const RelationDef&) { names.push_back(name); });
  return names;
}

std::vector<std::string> Catalog::RelationsOfSource(
    const std::string& source) const {
  std::vector<std::string> names;
  relations_.ForEach([&](const std::string& name, const RelationDef& def) {
    if (def.source == source) names.push_back(name);
  });
  return names;
}

std::vector<std::string> Catalog::SourceNames() const {
  std::set<std::string> sources;
  relations_.ForEach([&](const std::string&, const RelationDef& def) {
    sources.insert(def.source);
  });
  return std::vector<std::string>(sources.begin(), sources.end());
}

std::string Catalog::ToString() const {
  std::ostringstream os;
  relations_.ForEach([&](const std::string&, const RelationDef& def) {
    os << def.QualifiedName() << def.schema.ToString() << "\n";
  });
  return os.str();
}

}  // namespace eve
