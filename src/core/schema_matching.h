#ifndef TUPELO_CORE_SCHEMA_MATCHING_H_
#define TUPELO_CORE_SCHEMA_MATCHING_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/tupelo.h"
#include "relational/database.h"

namespace tupelo {

// Schema matching is the special case of data mapping where the discovered
// expression consists of renamings (§2.1: "L has simple schema matching as
// a special case"). MatchSchemas runs TUPELO and reads the element
// correspondences off the rename operators of the discovered expression.
struct SchemaMatch {
  // (source attribute, target attribute) pairs, from ρatt steps, composed
  // transitively if an attribute is renamed more than once.
  std::vector<std::pair<std::string, std::string>> attribute_matches;
  // (source relation, target relation) pairs, from ρrel steps.
  std::vector<std::pair<std::string, std::string>> relation_matches;

  bool found = false;
  // Why the underlying discovery stopped (see search/search_types.h).
  StopReason stop_reason = StopReason::kExhausted;
  MappingExpression mapping;
  SearchStats stats;
};

// Discovers a mapping between the critical instances and extracts the
// schema-element correspondences. Non-rename operators in the expression
// are legal (the mapping may need restructuring) and simply do not
// contribute matches.
Result<SchemaMatch> MatchSchemas(const Database& source,
                                 const Database& target,
                                 const TupeloOptions& options = {});

}  // namespace tupelo

#endif  // TUPELO_CORE_SCHEMA_MATCHING_H_
