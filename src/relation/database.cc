#include "relation/database.h"

namespace codb {

Status Database::CreateRelation(RelationSchema schema) {
  std::string name = schema.name();  // copy: `schema` is moved below
  if (name.size() > RelationSchema::kMaxNameBytes) {
    return Status::InvalidArgument(
        "relation name longer than " +
        std::to_string(RelationSchema::kMaxNameBytes) + " bytes");
  }
  if (relations_.find(name) != relations_.end()) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  auto relation = std::make_unique<Relation>(std::move(schema));
  relations_.emplace(std::move(name), std::move(relation));
  return Status::Ok();
}

Relation* Database::Find(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

Result<Relation*> Database::Get(const std::string& name) {
  Relation* r = Find(name);
  if (r == nullptr) {
    return Status::NotFound("relation '" + name + "' does not exist");
  }
  return r;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

DatabaseSchema Database::Schema() const {
  DatabaseSchema schema;
  for (const auto& [name, relation] : relations_) {
    // Names are unique in the catalog, so AddRelation cannot fail.
    schema.AddRelation(relation->schema());
  }
  return schema;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, relation] : relations_) total += relation->size();
  return total;
}

std::map<std::string, std::vector<Tuple>> Database::Snapshot() const {
  std::map<std::string, std::vector<Tuple>> snapshot;
  for (const auto& [name, relation] : relations_) {
    snapshot[name] = relation->rows();
  }
  return snapshot;
}

Status Database::Restore(
    const std::map<std::string, std::vector<Tuple>>& snapshot) {
  for (const auto& [name, rows] : snapshot) {
    Relation* r = Find(name);
    if (r == nullptr) {
      return Status::NotFound("restore: relation '" + name + "' missing");
    }
    r->Clear();
    for (const Tuple& t : rows) r->Insert(t);
  }
  return Status::Ok();
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, relation] : relations_) {
    out += relation->ToString();
    out += "\n";
  }
  return out;
}

}  // namespace codb
