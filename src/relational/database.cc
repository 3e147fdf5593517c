#include "relational/database.h"

#include <unordered_set>
#include <utility>

#include "relational/tnf.h"

namespace tupelo {

namespace {

// COW telemetry, per thread (see Database::ThreadCowStats).
thread_local uint64_t tl_cow_copies = 0;
thread_local uint64_t tl_relations_shared = 0;

}  // namespace

Database::CowStats Database::ThreadCowStats() {
  CowStats out;
  out.cow_copies = tl_cow_copies;
  out.relations_shared = tl_relations_shared;
  return out;
}

const Database::RelationMap& Database::EmptyRelations() {
  static const RelationMap* const empty = new RelationMap();
  return *empty;
}

Database::RelationMap& Database::MutableRelations() {
  if (relations_ == nullptr) {
    relations_ = std::make_shared<RelationMap>();
  } else if (relations_.use_count() != 1) {
    relations_ = std::make_shared<RelationMap>(*relations_);
  }
  return *relations_;
}

Database::Database(const Database& other)
    : relations_(other.relations_), fingerprint_(other.fingerprint_) {
  tl_relations_shared += relations().size();
}

Database& Database::operator=(const Database& other) {
  if (this != &other) {
    // Count only pointers this assignment newly shares: a pointer already
    // held under the same name (repeated `a = b`) was counted when it was
    // first shared, and the relations dropped by the assignment must not
    // inflate the tally either.
    uint64_t newly_shared = 0;
    if (relations_ != other.relations_) {
      const RelationMap& mine = relations();
      for (const auto& [name, rel] : other.relations()) {
        auto it = mine.find(name);
        if (it == mine.end() || it->second != rel) ++newly_shared;
      }
    }
    relations_ = other.relations_;
    fingerprint_ = other.fingerprint_;
    tl_relations_shared += newly_shared;
  }
  return *this;
}

Status Database::AddRelation(Relation relation) {
  std::string name = relation.name();
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (relations().contains(name)) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  RelationPtr ptr = std::make_shared<Relation>(std::move(relation));
  if (fingerprint_.has_value()) fingerprint_->Add(ptr->Fingerprint());
  MutableRelations().emplace(std::move(name), std::move(ptr));
  return Status::OK();
}

void Database::PutRelation(Relation relation) {
  PutRelation(std::make_shared<Relation>(std::move(relation)));
}

void Database::PutRelation(RelationPtr relation) {
  std::string name = relation->name();
  RelationMap& map = MutableRelations();
  auto it = map.find(name);
  if (fingerprint_.has_value()) {
    if (it != map.end()) {
      fingerprint_->Subtract(it->second->Fingerprint());
    }
    fingerprint_->Add(relation->Fingerprint());
  }
  if (it != map.end()) {
    it->second = std::move(relation);
  } else {
    map.emplace(std::move(name), std::move(relation));
  }
}

Status Database::RemoveRelation(std::string_view name) {
  if (!HasRelation(name)) {
    return Status::NotFound("relation '" + std::string(name) + "' not found");
  }
  RelationMap& map = MutableRelations();
  auto it = map.find(std::string(name));
  if (fingerprint_.has_value()) {
    fingerprint_->Subtract(it->second->Fingerprint());
  }
  map.erase(it);
  return Status::OK();
}

Status Database::RenameRelation(std::string_view from, const std::string& to) {
  if (to.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (!HasRelation(from)) {
    return Status::NotFound("relation '" + std::string(from) + "' not found");
  }
  if (HasRelation(to)) {
    return Status::AlreadyExists("relation '" + to + "' already exists");
  }
  RelationMap& map = MutableRelations();
  auto it = map.find(std::string(from));
  RelationPtr r = std::move(it->second);
  if (fingerprint_.has_value()) fingerprint_->Subtract(r->Fingerprint());
  map.erase(it);
  if (r.use_count() == 1) {
    // Sole owner: rename in place. Safe because every Relation is created
    // non-const via make_shared<Relation>.
    const_cast<Relation*>(r.get())->set_name(to);
  } else {
    auto clone = std::make_shared<Relation>(*r);
    clone->set_name(to);
    r = std::move(clone);
    ++tl_cow_copies;
  }
  if (fingerprint_.has_value()) fingerprint_->Add(r->Fingerprint());
  map.emplace(to, std::move(r));
  return Status::OK();
}

bool Database::HasRelation(std::string_view name) const {
  return relations().contains(std::string(name));
}

Result<const Relation*> Database::GetRelation(std::string_view name) const {
  const RelationMap& map = relations();
  auto it = map.find(std::string(name));
  if (it == map.end()) {
    return Status::NotFound("relation '" + std::string(name) + "' not found");
  }
  return it->second.get();
}

Result<Relation*> Database::GetMutableRelation(std::string_view name) {
  if (!HasRelation(name)) {
    return Status::NotFound("relation '" + std::string(name) + "' not found");
  }
  auto it = MutableRelations().find(std::string(name));
  // The caller may mutate through the pointer at any later time, so the
  // cached fingerprint cannot be maintained incrementally here.
  fingerprint_.reset();
  if (it->second.use_count() != 1) {
    it->second = std::make_shared<Relation>(*it->second);
    ++tl_cow_copies;
  }
  return const_cast<Relation*>(it->second.get());
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relation_count());
  for (const auto& [name, rel] : relations()) names.push_back(name);
  return names;
}

size_t Database::TupleCount() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations()) n += rel->size();
  return n;
}

Status Database::Validate() const {
  for (const auto& [key, rel] : relations()) {
    if (rel == nullptr) {
      return Status::Internal("relation '" + key + "' is null");
    }
    if (rel->name() != key) {
      return Status::Internal("relation keyed '" + key + "' is named '" +
                              rel->name() + "'");
    }
    if (rel->name().empty()) {
      return Status::InvalidArgument("relation with empty name");
    }
    std::unordered_set<std::string_view> attr_names;
    for (const std::string& attr : rel->attributes()) {
      if (attr.empty()) {
        return Status::InvalidArgument("relation '" + key +
                                       "' has an empty attribute name");
      }
      if (!attr_names.insert(attr).second) {
        return Status::InvalidArgument("relation '" + key +
                                       "' has duplicate attribute '" + attr +
                                       "'");
      }
    }
    size_t arity = rel->arity();
    for (const Tuple& tuple : rel->tuples()) {
      if (tuple.size() != arity) {
        return Status::InvalidArgument(
            "relation '" + key + "' has a tuple of arity " +
            std::to_string(tuple.size()) + " against a schema of arity " +
            std::to_string(arity));
      }
    }
    // A relation claiming to be the TNF encoding must actually decode.
    if (rel->name() == kTnfRelationName && arity == 4 &&
        rel->HasAttribute(kTnfTid) && rel->HasAttribute(kTnfRel) &&
        rel->HasAttribute(kTnfAtt) && rel->HasAttribute(kTnfValue)) {
      Result<Database> decoded = DecodeTnf(*rel);
      if (!decoded.ok()) {
        return Status::InvalidArgument("relation '" + key +
                                       "' claims TNF but does not decode: " +
                                       decoded.status().message());
      }
    }
  }
  return Status::OK();
}

bool Database::Contains(const Database& target) const {
  const RelationMap& mine = relations();
  for (const auto& [name, trel] : target.relations()) {
    auto it = mine.find(name);
    if (it == mine.end()) return false;
    const Relation& srel = *it->second;
    // Target attributes must all be present here.
    for (const std::string& attr : trel->attributes()) {
      if (!srel.HasAttribute(attr)) return false;
    }
    Result<std::vector<Tuple>> projected =
        srel.ProjectTuples(trel->attributes());
    if (!projected.ok()) return false;
    // Every target tuple must match some projected tuple.
    for (const Tuple& want : trel->tuples()) {
      bool found = false;
      for (const Tuple& have : projected.value()) {
        if (have == want) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

std::string Database::CanonicalKey() const {
  std::string key;
  for (const auto& [name, rel] : relations()) {
    key += rel->CanonicalKey();
    key += ";";
  }
  return key;
}

Fp128 Database::Fingerprint128() const {
  if (!fingerprint_.has_value()) {
    Fp128 fp;
    for (const auto& [name, rel] : relations()) fp.Add(rel->Fingerprint());
    fingerprint_ = fp;
  }
  return *fingerprint_;
}

std::string Database::ToString() const {
  std::string out;
  bool first = true;
  for (const auto& [name, rel] : relations()) {
    if (!first) out += "\n";
    first = false;
    out += rel->ToString();
  }
  return out;
}

}  // namespace tupelo
