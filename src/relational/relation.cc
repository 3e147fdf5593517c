#include "relational/relation.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "common/text.h"

namespace tupelo {

Result<Relation> Relation::Create(std::string name,
                                  std::vector<std::string> attributes) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  std::unordered_set<std::string_view> seen;
  for (const std::string& attr : attributes) {
    if (attr.empty()) {
      return Status::InvalidArgument("attribute name must be non-empty (in " +
                                     name + ")");
    }
    if (!seen.insert(attr).second) {
      return Status::InvalidArgument("duplicate attribute '" + attr + "' in " +
                                     name);
    }
  }
  Relation r;
  r.name_ = std::move(name);
  r.attributes_ = std::move(attributes);
  r.order_.resize(r.attributes_.size());
  std::iota(r.order_.begin(), r.order_.end(), 0u);
  std::sort(r.order_.begin(), r.order_.end(), [&r](uint32_t a, uint32_t b) {
    return r.attributes_[a] < r.attributes_[b];
  });
  return r;
}

std::vector<Tuple>& Relation::MutableTuples() {
  if (body_ == nullptr) {
    body_ = std::make_shared<std::vector<Tuple>>();
  } else if (body_.use_count() != 1) {
    body_ = std::make_shared<std::vector<Tuple>>(*body_);
  }
  return *body_;
}

size_t Relation::OrderPosition(std::string_view attr) const {
  return static_cast<size_t>(
      std::lower_bound(order_.begin(), order_.end(), attr,
                       [this](uint32_t i, std::string_view a) {
                         return attributes_[i] < a;
                       }) -
      order_.begin());
}

std::optional<size_t> Relation::AttributeIndex(std::string_view attr) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i] == attr) return i;
  }
  return std::nullopt;
}

Status Relation::AddTuple(Tuple tuple) {
  if (tuple.size() != attributes_.size()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " != schema arity " +
        std::to_string(attributes_.size()) + " in " + name_);
  }
  MutableTuples().push_back(std::move(tuple));
  InvalidateFingerprint();
  return Status::OK();
}

Status Relation::AddRow(const std::vector<std::string>& atoms) {
  return AddTuple(Tuple::OfAtoms(atoms));
}

Status Relation::AddAttribute(const std::string& attr, const Value& fill) {
  if (attr.empty()) {
    return Status::InvalidArgument("attribute name must be non-empty");
  }
  if (HasAttribute(attr)) {
    return Status::AlreadyExists("attribute '" + attr + "' already in " +
                                 name_);
  }
  order_.insert(order_.begin() + static_cast<ptrdiff_t>(OrderPosition(attr)),
                static_cast<uint32_t>(attributes_.size()));
  attributes_.push_back(attr);
  if (!empty()) {
    for (Tuple& t : MutableTuples()) t.Append(fill);
  }
  InvalidateFingerprint();
  return Status::OK();
}

Status Relation::DropAttribute(std::string_view attr) {
  std::optional<size_t> idx = AttributeIndex(attr);
  if (!idx.has_value()) {
    return Status::NotFound("attribute '" + std::string(attr) + "' not in " +
                            name_);
  }
  order_.erase(order_.begin() + static_cast<ptrdiff_t>(OrderPosition(attr)));
  for (uint32_t& i : order_) {
    if (i > *idx) --i;
  }
  attributes_.erase(attributes_.begin() + static_cast<ptrdiff_t>(*idx));
  if (!empty()) {
    for (Tuple& t : MutableTuples()) t.Erase(*idx);
  }
  InvalidateFingerprint();
  return Status::OK();
}

Status Relation::RenameAttribute(std::string_view from, const std::string& to) {
  std::optional<size_t> idx = AttributeIndex(from);
  if (!idx.has_value()) {
    return Status::NotFound("attribute '" + std::string(from) + "' not in " +
                            name_);
  }
  if (to.empty()) {
    return Status::InvalidArgument("attribute name must be non-empty");
  }
  if (HasAttribute(to)) {
    return Status::AlreadyExists("attribute '" + to + "' already in " + name_);
  }
  order_.erase(order_.begin() + static_cast<ptrdiff_t>(OrderPosition(from)));
  attributes_[*idx] = to;
  order_.insert(order_.begin() + static_cast<ptrdiff_t>(OrderPosition(to)),
                static_cast<uint32_t>(*idx));
  InvalidateFingerprint();
  return Status::OK();
}

Result<std::vector<std::string>> Relation::DistinctValues(
    std::string_view attr) const {
  std::optional<size_t> idx = AttributeIndex(attr);
  if (!idx.has_value()) {
    return Status::NotFound("attribute '" + std::string(attr) + "' not in " +
                            name_);
  }
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  for (const Tuple& t : tuples()) {
    const Value& v = t[*idx];
    if (v.is_null()) continue;
    if (seen.insert(v.atom()).second) out.push_back(v.atom());
  }
  return out;
}

Result<std::vector<Tuple>> Relation::ProjectTuples(
    const std::vector<std::string>& attrs) const {
  std::vector<size_t> indices;
  indices.reserve(attrs.size());
  for (const std::string& a : attrs) {
    std::optional<size_t> idx = AttributeIndex(a);
    if (!idx.has_value()) {
      return Status::NotFound("attribute '" + a + "' not in " + name_);
    }
    indices.push_back(*idx);
  }
  std::vector<Tuple> out;
  out.reserve(size());
  for (const Tuple& t : tuples()) {
    std::vector<Value> vs;
    vs.reserve(indices.size());
    for (size_t i : indices) vs.push_back(t[i]);
    out.emplace_back(std::move(vs));
  }
  return out;
}

std::string Relation::CanonicalKey() const {
  const std::vector<Tuple>& tuples = this->tuples();

  // Tuple rows in canonical order: compare columns through the attribute
  // permutation instead of materializing permuted tuples.
  std::vector<size_t> rows(tuples.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
    const Tuple& ta = tuples[a];
    const Tuple& tb = tuples[b];
    for (uint32_t i : order_) {
      auto cmp = ta[i] <=> tb[i];
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });

  std::string key = Quote(name_) + "[";
  for (size_t i = 0; i < order_.size(); ++i) {
    if (i > 0) key += ",";
    key += Quote(attributes_[order_[i]]);
  }
  key += "]{";
  for (size_t r : rows) {
    const Tuple& t = tuples[r];
    key += "(";
    for (size_t i = 0; i < order_.size(); ++i) {
      if (i > 0) key += ",";
      const Value& v = t[order_[i]];
      key += v.is_null() ? std::string("@null") : Quote(v.atom());
    }
    key += ")";
  }
  key += "}";
  return key;
}

namespace {

// Per-cell hash for one fingerprint lane; a tagged constant keeps null
// distinct from every atom (including "").
uint64_t HashCell(const Value& v, uint64_t seed) {
  if (v.is_null()) return Mix64(seed ^ 0x6e756c6cULL);
  return Fnv1aSeeded(v.atom(), seed);
}

}  // namespace

Fp128 Relation::Fingerprint() const {
  if (fp_valid_.load(std::memory_order_acquire)) {
    return Fp128{fp_lo_.load(std::memory_order_relaxed),
                 fp_hi_.load(std::memory_order_relaxed)};
  }
  // Header: name then attributes in canonical order, chained sequentially
  // (the order is already canonical, so sequence-sensitivity is fine and
  // keeps attribute positions from commuting with each other).
  uint64_t lo = Fnv1aSeeded(name_, kFpSeedLo);
  uint64_t hi = Fnv1aSeeded(name_, kFpSeedHi);
  for (uint32_t i : order_) {
    lo = HashChain(lo, Fnv1aSeeded(attributes_[i], kFpSeedLo));
    hi = HashChain(hi, Fnv1aSeeded(attributes_[i], kFpSeedHi));
  }

  // Body: per-tuple hashes over the canonical column permutation, folded
  // with a wrapping sum so the tuple bag hashes the same in any order.
  uint64_t bag_lo = 0;
  uint64_t bag_hi = 0;
  for (const Tuple& t : tuples()) {
    uint64_t tlo = kFpSeedLo;
    uint64_t thi = kFpSeedHi;
    for (uint32_t i : order_) {
      tlo = HashChain(tlo, HashCell(t[i], kFpSeedLo));
      thi = HashChain(thi, HashCell(t[i], kFpSeedHi));
    }
    bag_lo += Mix64(tlo);
    bag_hi += Mix64(thi);
  }

  Fp128 fp;
  fp.lo = HashChain(HashChain(lo, bag_lo), size());
  fp.hi = HashChain(HashChain(hi, bag_hi), size());
  fp_lo_.store(fp.lo, std::memory_order_relaxed);
  fp_hi_.store(fp.hi, std::memory_order_relaxed);
  fp_valid_.store(true, std::memory_order_release);
  return fp;
}

std::string Relation::ToString() const {
  std::string out = name_ + "(" + Join(attributes_, ", ") + ")";
  for (const Tuple& t : tuples()) {
    out += "\n  " + t.ToString();
  }
  return out;
}

}  // namespace tupelo
