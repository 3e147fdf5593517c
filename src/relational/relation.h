#ifndef TUPELO_RELATIONAL_RELATION_H_
#define TUPELO_RELATIONAL_RELATION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "relational/tuple.h"

namespace tupelo {

// A named relation: an attribute list (the schema) plus a bag of tuples.
// Attribute names are unique within a relation; tuple order is not
// semantically meaningful (canonicalization sorts tuples), but insertion
// order is preserved for display.
//
// Copies share the tuple body: copying a relation copies its name, its
// attributes and a pointer, and the first tuple or column mutation of a
// copy whose body is still shared clones the body first (the rule
// Database applies to relations). Renaming the relation or an attribute
// never touches the body, so it costs O(arity). A shared body is never
// written, so copies may be read from several threads at once.
class Relation {
 public:
  Relation() = default;

  // The fingerprint cache lives in atomics (see below), so the compiler
  // cannot generate these.
  Relation(const Relation& other)
      : name_(other.name_),
        attributes_(other.attributes_),
        order_(other.order_),
        body_(other.body_) {
    CopyFingerprintCache(other);
  }
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      name_ = other.name_;
      attributes_ = other.attributes_;
      order_ = other.order_;
      body_ = other.body_;
      CopyFingerprintCache(other);
    }
    return *this;
  }
  // A moved-from relation reads as empty.
  Relation(Relation&& other) noexcept
      : name_(std::move(other.name_)),
        attributes_(std::move(other.attributes_)),
        order_(std::move(other.order_)),
        body_(std::move(other.body_)) {
    CopyFingerprintCache(other);
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      name_ = std::move(other.name_);
      attributes_ = std::move(other.attributes_);
      order_ = std::move(other.order_);
      body_ = std::move(other.body_);
      CopyFingerprintCache(other);
    }
    return *this;
  }

  // Builds an empty relation, validating that `name` is non-empty and the
  // attribute names are non-empty and pairwise distinct.
  static Result<Relation> Create(std::string name,
                                 std::vector<std::string> attributes);

  const std::string& name() const { return name_; }
  void set_name(std::string name) {
    name_ = std::move(name);
    InvalidateFingerprint();
  }

  const std::vector<std::string>& attributes() const { return attributes_; }
  size_t arity() const { return attributes_.size(); }

  const std::vector<Tuple>& tuples() const {
    return body_ != nullptr ? *body_ : kNoTuples;
  }
  size_t size() const { return tuples().size(); }
  bool empty() const { return tuples().empty(); }

  // Position of attribute `attr`, or nullopt.
  std::optional<size_t> AttributeIndex(std::string_view attr) const;
  bool HasAttribute(std::string_view attr) const {
    return AttributeIndex(attr).has_value();
  }

  // Appends a tuple; fails unless its arity matches the schema.
  Status AddTuple(Tuple tuple);

  // Pre-allocates tuple storage for bulk builders (compiled apply loops).
  void ReserveTuples(size_t n) { MutableTuples().reserve(n); }

  // Convenience for tests/fixtures: appends a tuple of non-null atoms.
  Status AddRow(const std::vector<std::string>& atoms);

  // Appends attribute `attr` (must be fresh) with value `fill` in all
  // existing tuples.
  Status AddAttribute(const std::string& attr, const Value& fill = Value());

  // Removes attribute `attr` and its column of values.
  Status DropAttribute(std::string_view attr);

  // Renames attribute `from` to `to`; `to` must not already exist.
  Status RenameAttribute(std::string_view from, const std::string& to);

  // The distinct non-null values appearing in column `attr`, in first-seen
  // order. Fails if the attribute does not exist.
  Result<std::vector<std::string>> DistinctValues(std::string_view attr) const;

  // Projection of every tuple onto `attrs` (all must exist), preserving
  // duplicates. Used by the containment test.
  Result<std::vector<Tuple>> ProjectTuples(
      const std::vector<std::string>& attrs) const;

  // Stable text fingerprint of the canonical form, used for state hashing.
  // Computed via index permutations over the live representation; no
  // canonical copy of the relation is materialized.
  std::string CanonicalKey() const;

  // 128-bit structural fingerprint of the canonical form (name, schema as
  // a set, tuple bag), hashed directly from schema and tuples: attributes
  // contribute in name order and tuples through a commutative combine,
  // so presentation order never matters and no string is materialized.
  // Cached until the next mutation; relations shared immutably between
  // databases therefore pay the O(arity * tuples) cost once, ever.
  Fp128 Fingerprint() const;

  // Multi-line display: header then one tuple per line.
  std::string ToString() const;

  // Contents-equal after canonicalization (name, schema as a set, tuple
  // bag). operator== is intentionally not provided: column/tuple order is
  // presentation detail and an accidental ordered comparison is a bug trap.
  bool ContentsEqual(const Relation& other) const {
    if (!(Fingerprint() == other.Fingerprint())) return false;
    return CanonicalKey() == other.CanonicalKey();
  }

 private:
  inline static const std::vector<Tuple> kNoTuples;

  // The tuple body, cloned first when a copy still shares it.
  std::vector<Tuple>& MutableTuples();

  // Where attribute `attr` sits, or would sit, in order_.
  size_t OrderPosition(std::string_view attr) const;

  void CopyFingerprintCache(const Relation& other) {
    if (other.fp_valid_.load(std::memory_order_acquire)) {
      fp_lo_.store(other.fp_lo_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      fp_hi_.store(other.fp_hi_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      fp_valid_.store(true, std::memory_order_release);
    } else {
      fp_valid_.store(false, std::memory_order_relaxed);
    }
  }

  void InvalidateFingerprint() {
    fp_valid_.store(false, std::memory_order_relaxed);
  }

  std::string name_;
  std::vector<std::string> attributes_;
  // Attribute indices in name order: the column permutation behind
  // CanonicalKey and Fingerprint. Create sorts it once; each attribute
  // mutation moves, removes or inserts one index, so it always equals a
  // fresh sort (names are distinct).
  std::vector<uint32_t> order_;
  // Null until the first tuple; shared between copies (see above).
  std::shared_ptr<std::vector<Tuple>> body_;
  // Lazy fingerprint cache. A Relation is shared immutably across Database
  // copies — and, under the parallel runtime, across threads — so the lazy
  // fill must be race-free without a mutex: the writer stores both lanes
  // relaxed and publishes with a release store of fp_valid_; readers pair
  // it with an acquire load. Concurrent first computations store identical
  // values (the fingerprint is a pure function of the immutable contents).
  // Mutators require exclusive ownership and just drop validity.
  mutable std::atomic<uint64_t> fp_lo_{0};
  mutable std::atomic<uint64_t> fp_hi_{0};
  mutable std::atomic<bool> fp_valid_{false};
};

}  // namespace tupelo

#endif  // TUPELO_RELATIONAL_RELATION_H_
