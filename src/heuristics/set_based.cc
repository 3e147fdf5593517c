#include "heuristics/set_based.h"

#include <algorithm>
#include <bit>

namespace tupelo {

TargetSymbolIndex::TargetSymbolIndex(const Database& target) {
  std::array<std::set<std::string>, kColumns> columns;
  for (const auto& [rname, relp] : target.relations()) {
    const Relation& rel = *relp;
    columns[kRel].insert(rname);
    for (const std::string& attr : rel.attributes()) columns[kAtt].insert(attr);
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t.values()) {
        if (!v.is_null()) columns[kValue].insert(v.atom());
      }
    }
  }
  for (Column c : {kRel, kAtt, kValue}) {
    for (const std::string& s : columns[c]) {
      ids_.emplace(s, static_cast<uint32_t>(ids_.size()));
    }
    symbols_[c].assign(columns[c].begin(), columns[c].end());
  }
  stride_ = (ids_.size() + 63) / 64;
  target_ = Collect(target);
}

void TargetSymbolIndex::Mark(const std::string& symbol,
                             uint64_t* column) const {
  auto it = ids_.find(symbol);
  if (it == ids_.end()) return;
  column[it->second / 64] |= uint64_t{1} << (it->second % 64);
}

bool TargetSymbolIndex::Contains(Column c, const std::string& symbol) const {
  auto it = ids_.find(symbol);
  if (it == ids_.end()) return false;
  return (target_.column(c)[it->second / 64] >> (it->second % 64)) & 1;
}

TargetSymbolIndex::Symbols TargetSymbolIndex::Collect(
    const Database& db) const {
  Symbols x(stride_);
  uint64_t* rels = x.mutable_column(kRel);
  uint64_t* atts = x.mutable_column(kAtt);
  uint64_t* values = x.mutable_column(kValue);
  for (const auto& [rname, relp] : db.relations()) {
    const Relation& rel = *relp;
    Mark(rname, rels);
    for (const std::string& attr : rel.attributes()) Mark(attr, atts);
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t.values()) {
        if (!v.is_null()) Mark(v.atom(), values);
      }
    }
  }
  return x;
}

bool TargetSymbolIndex::AnyAttributeMissing(const Database& db) const {
  std::vector<uint64_t> held(stride_);
  for (const auto& [rname, relp] : db.relations()) {
    for (const std::string& attr : relp->attributes()) {
      Mark(attr, held.data());
    }
  }
  const uint64_t* wanted = target_.column(kAtt);
  for (size_t w = 0; w < stride_; ++w) {
    if ((wanted[w] & ~held[w]) != 0) return true;
  }
  return false;
}

int TargetSymbolIndex::MissingCount(const Symbols& x) const {
  int n = 0;
  for (Column c : {kRel, kAtt, kValue}) {
    const uint64_t* t = target_.column(c);
    const uint64_t* s = x.column(c);
    for (size_t w = 0; w < stride_; ++w) n += std::popcount(t[w] & ~s[w]);
  }
  return n;
}

int TargetSymbolIndex::MisplacedCount(const Symbols& x) const {
  int n = 0;
  for (Column c : {kRel, kAtt, kValue}) {
    const uint64_t* t = target_.column(c);
    for (Column d : {kRel, kAtt, kValue}) {
      if (d == c) continue;
      const uint64_t* s = x.column(d);
      for (size_t w = 0; w < stride_; ++w) n += std::popcount(t[w] & s[w]);
    }
  }
  return n;
}

int H1Heuristic::Estimate(const Database& state) const {
  return index_.MissingCount(index_.Collect(state));
}

int H2Heuristic::Estimate(const Database& state) const {
  return index_.MisplacedCount(index_.Collect(state));
}

int H3Heuristic::Estimate(const Database& state) const {
  const TargetSymbolIndex::Symbols x = index_.Collect(state);
  return std::max(index_.MissingCount(x), index_.MisplacedCount(x));
}

namespace {

std::string PairKey(const std::string& att, const std::string& value) {
  std::string key = att;
  key += '\x1f';
  key += value;
  return key;
}

// Collects the (att, value) pair keys and the value-less attributes.
void CollectPairs(const Database& db, std::set<std::string>* pairs,
                  std::set<std::string>* atts_with_values,
                  std::set<std::string>* all_atts) {
  for (const auto& [rname, relp] : db.relations()) {
    const Relation& rel = *relp;
    for (size_t i = 0; i < rel.arity(); ++i) {
      all_atts->insert(rel.attributes()[i]);
      for (const Tuple& t : rel.tuples()) {
        if (t[i].is_null()) continue;
        pairs->insert(PairKey(rel.attributes()[i], t[i].atom()));
        atts_with_values->insert(rel.attributes()[i]);
      }
    }
  }
}

}  // namespace

ColumnPairsHeuristic::ColumnPairsHeuristic(const Database& target) {
  for (const auto& [rname, rel] : target.relations()) {
    target_rels_.insert(rname);
  }
  std::set<std::string> with_values;
  std::set<std::string> all_atts;
  CollectPairs(target, &target_pairs_, &with_values, &all_atts);
  for (const std::string& att : all_atts) {
    if (!with_values.contains(att)) target_bare_atts_.insert(att);
  }
}

int ColumnPairsHeuristic::Estimate(const Database& state) const {
  std::set<std::string> state_pairs;
  std::set<std::string> unused;
  std::set<std::string> state_atts;
  CollectPairs(state, &state_pairs, &unused, &state_atts);

  int missing = 0;
  for (const std::string& rel : target_rels_) {
    if (!state.HasRelation(rel)) ++missing;
  }
  for (const std::string& pair : target_pairs_) {
    if (!state_pairs.contains(pair)) ++missing;
  }
  for (const std::string& att : target_bare_atts_) {
    if (!state_atts.contains(att)) ++missing;
  }
  return missing;
}

}  // namespace tupelo
