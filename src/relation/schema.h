// Relation schemas and database schemas.
//
// The Database Schema (DBS in Figure 1 of the paper) is the part of a node's
// local database that is shared with the network; a node must always publish
// a DBS to participate, even when the local database itself is absent
// (mediator nodes).

#ifndef CODB_RELATION_SCHEMA_H_
#define CODB_RELATION_SCHEMA_H_

#include <cstddef>
#include <string>
#include <vector>

#include "relation/value.h"
#include "util/status.h"

namespace codb {

struct Attribute {
  std::string name;
  ValueType type = ValueType::kInt;

  friend bool operator==(const Attribute& a, const Attribute& b) {
    return a.name == b.name && a.type == b.type;
  }
};

// Schema of one relation: a name plus an ordered attribute list.
class RelationSchema {
 public:
  // Relation names are identifiers. The bound keeps a decoded data payload
  // linear in its size: a head-tuple run sends its name once, and each of
  // its rows decodes to a copy of it (core/protocol.h).
  static constexpr size_t kMaxNameBytes = 64;

  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<Attribute> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {}

  const std::string& name() const { return name_; }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  int arity() const { return static_cast<int>(attributes_.size()); }

  // Index of the attribute with the given name, or -1.
  int AttributeIndex(const std::string& attribute_name) const;

  // "r(a:int, b:string)".
  std::string ToString() const;

  friend bool operator==(const RelationSchema& a, const RelationSchema& b) {
    return a.name_ == b.name_ && a.attributes_ == b.attributes_;
  }

 private:
  std::string name_;
  std::vector<Attribute> attributes_;
};

// Schema of a whole (exported) database: the DBS repository contents.
class DatabaseSchema {
 public:
  DatabaseSchema() = default;

  // Fails with kAlreadyExists on duplicate relation names.
  Status AddRelation(RelationSchema schema);

  const RelationSchema* FindRelation(const std::string& name) const;
  const std::vector<RelationSchema>& relations() const { return relations_; }

  std::string ToString() const;

 private:
  std::vector<RelationSchema> relations_;
};

}  // namespace codb

#endif  // CODB_RELATION_SCHEMA_H_
