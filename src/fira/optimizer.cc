#include "fira/optimizer.h"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace tupelo {
namespace {

// Applies one round of adjacent-pair rewrites. Returns true if anything
// changed.
bool RewriteOnce(std::vector<Op>* steps) {
  std::vector<Op>& s = *steps;

  for (size_t i = 0; i + 1 < s.size(); ++i) {
    Op& a = s[i];
    Op& b = s[i + 1];

    // rename_att chain fusion.
    if (const auto* r1 = std::get_if<RenameAttrOp>(&a)) {
      if (const auto* r2 = std::get_if<RenameAttrOp>(&b)) {
        if (r1->rel == r2->rel && r1->to == r2->from) {
          if (r1->from == r2->to) {
            // A -> B -> A: a no-op pair.
            s.erase(s.begin() + static_cast<ptrdiff_t>(i),
                    s.begin() + static_cast<ptrdiff_t>(i) + 2);
          } else {
            a = RenameAttrOp{r1->rel, r1->from, r2->to};
            s.erase(s.begin() + static_cast<ptrdiff_t>(i) + 1);
          }
          return true;
        }
      }
      // rename-then-drop of the renamed column.
      if (const auto* d = std::get_if<DropOp>(&b)) {
        if (r1->rel == d->rel && r1->to == d->attr) {
          a = DropOp{r1->rel, r1->from};
          s.erase(s.begin() + static_cast<ptrdiff_t>(i) + 1);
          return true;
        }
      }
    }

    // rename_rel chain fusion.
    if (const auto* r1 = std::get_if<RenameRelOp>(&a)) {
      if (const auto* r2 = std::get_if<RenameRelOp>(&b)) {
        if (r1->to == r2->from) {
          if (r1->from == r2->to) {
            s.erase(s.begin() + static_cast<ptrdiff_t>(i),
                    s.begin() + static_cast<ptrdiff_t>(i) + 2);
          } else {
            a = RenameRelOp{r1->from, r2->to};
            s.erase(s.begin() + static_cast<ptrdiff_t>(i) + 1);
          }
          return true;
        }
      }
    }

    // Column created then immediately dropped: λ and dereference append a
    // fresh column and touch nothing else, so creating+dropping is a no-op.
    if (const auto* d = std::get_if<DropOp>(&b)) {
      const std::string* created = nullptr;
      const std::string* created_rel = nullptr;
      if (const auto* ap = std::get_if<ApplyFunctionOp>(&a)) {
        created = &ap->out;
        created_rel = &ap->rel;
      } else if (const auto* de = std::get_if<DereferenceOp>(&a)) {
        created = &de->out;
        created_rel = &de->rel;
      }
      if (created != nullptr && *created_rel == d->rel &&
          *created == d->attr) {
        s.erase(s.begin() + static_cast<ptrdiff_t>(i),
                s.begin() + static_cast<ptrdiff_t>(i) + 2);
        return true;
      }
    }

    // Note: demote followed by dropping both demote columns is NOT
    // rewritten away — demote multiplies tuple counts by the arity, so the
    // pair is not a bag-semantics no-op.

    // Canonicalize runs of drops on the same relation (drops of distinct
    // attributes commute).
    if (const auto* d1 = std::get_if<DropOp>(&a)) {
      if (const auto* d2 = std::get_if<DropOp>(&b)) {
        if (d1->rel == d2->rel && d2->attr < d1->attr) {
          std::swap(a, b);
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

MappingExpression Simplify(const MappingExpression& expression) {
  std::vector<Op> steps = expression.steps();
  while (RewriteOnce(&steps)) {
  }
  return MappingExpression(std::move(steps));
}

}  // namespace tupelo
