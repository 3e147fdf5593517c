#ifndef TUPELO_RELATIONAL_DATABASE_H_
#define TUPELO_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "relational/relation.h"

namespace tupelo {

// A database instance: a set of relations keyed by name. Database values
// are the states of TUPELO's search space; they are value types (copied
// freely) with a stable structural fingerprint for duplicate detection.
//
// Copies share at two levels, each copy-on-write. The name-to-relation
// map sits behind one pointer, so copying a Database copies that pointer;
// the first mutator called on a copy whose map is still shared clones the
// map (relation pointers only). Relations are held by shared_ptr-to-const,
// and only a relation actually mutated through GetMutableRelation (or
// renamed) is cloned, and only when still shared; a relation clone shares
// its tuple body in turn (relational/relation.h). A successor state
// produced by a FIRA operator therefore materializes exactly what the
// operator changed. A shared map or relation is never written, so copies
// may be read from several threads at once.
class Database {
 public:
  using RelationPtr = std::shared_ptr<const Relation>;
  using RelationMap = std::map<std::string, RelationPtr>;

  // Copy-on-write telemetry: the events performed by the calling thread.
  // All COW work happens synchronously on the thread applying the
  // operator, so per-search attribution diffs these counts, and the
  // deltas stay correct when several searches (pool workers, serve jobs)
  // run concurrently.
  struct CowStats {
    uint64_t cow_copies = 0;        // relations cloned by mutable access
    uint64_t relations_shared = 0;  // relation pointers newly shared by copies
  };
  static CowStats ThreadCowStats();

  Database() = default;
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  // Adds a relation; fails if one with the same name exists.
  Status AddRelation(Relation relation);

  // Replaces or inserts. The shared_ptr overload shares the relation
  // without copying it (the caller promises not to mutate it afterwards).
  void PutRelation(Relation relation);
  void PutRelation(RelationPtr relation);

  Status RemoveRelation(std::string_view name);

  // Renames relation `from` to `to`; `to` must not exist.
  Status RenameRelation(std::string_view from, const std::string& to);

  bool HasRelation(std::string_view name) const;

  // Fails with NotFound if absent.
  Result<const Relation*> GetRelation(std::string_view name) const;

  // Mutable access with copy-on-write: clones the relation first when it
  // is still shared with other Database copies, so the mutation never
  // leaks into them.
  Result<Relation*> GetMutableRelation(std::string_view name);

  // Relation names in sorted order.
  std::vector<std::string> RelationNames() const;

  // Relations in name-sorted order.
  const RelationMap& relations() const {
    return relations_ != nullptr ? *relations_ : EmptyRelations();
  }

  size_t relation_count() const { return relations().size(); }
  bool empty() const { return relations().empty(); }

  // Total number of tuples across relations.
  size_t TupleCount() const;

  // Structural integrity check, run on every .tdb/checkpoint load so a
  // corrupted or hand-edited file fails with a descriptive Status instead
  // of tripping undefined behavior later. Verifies: map keys agree with
  // relation names, names are non-empty, attribute names are non-empty and
  // pairwise distinct, every tuple's arity matches its schema, and a
  // relation claiming to be TNF (named kTnfRelationName with exactly the
  // four TNF attributes) actually decodes.
  Status Validate() const;

  // True if this database "contains" `target` in the sense of TUPELO's
  // goal test (§2.3): every relation of `target` has a same-named relation
  // here whose attributes are a superset, and every target tuple equals the
  // projection of some tuple here onto the target's attributes.
  bool Contains(const Database& target) const;

  // Stable text fingerprint of the whole instance (relation canonical keys
  // joined in name order); equal keys <=> equal instances.
  std::string CanonicalKey() const;

  // 128-bit structural fingerprint: the commutative combine of the
  // per-relation fingerprints (names are unique, so the bag of relation
  // fingerprints identifies the instance). Cached, and maintained
  // incrementally across PutRelation/RemoveRelation so a successor that
  // replaced one relation re-hashes only that relation.
  Fp128 Fingerprint128() const;

  // 64-bit stable fingerprint (the low lane of Fingerprint128), kept for
  // the search-layer StateKey contract.
  uint64_t Fingerprint() const { return Fingerprint128().lo; }

  bool ContentsEqual(const Database& other) const {
    if (!(Fingerprint128() == other.Fingerprint128())) return false;
    return CanonicalKey() == other.CanonicalKey();
  }

  std::string ToString() const;

 private:
  static const RelationMap& EmptyRelations();

  // The map, cloned first when a copy still shares it.
  RelationMap& MutableRelations();

  // Null until the first relation; shared between copies (see above).
  std::shared_ptr<RelationMap> relations_;
  mutable std::optional<Fp128> fingerprint_;
};

}  // namespace tupelo

#endif  // TUPELO_RELATIONAL_DATABASE_H_
