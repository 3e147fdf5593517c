#include "core/schema_matching.h"

#include <map>
#include <utility>

namespace tupelo {

Result<SchemaMatch> MatchSchemas(const Database& source,
                                 const Database& target,
                                 const TupeloOptions& options) {
  Tupelo tupelo(source, target);
  TUPELO_ASSIGN_OR_RETURN(TupeloResult result, tupelo.Discover(options));

  SchemaMatch match;
  match.found = result.found;
  match.stop_reason = result.stop_reason;
  match.stats = result.stats;
  match.mapping = result.mapping;
  if (!result.found) return match;

  // Compose rename chains: if A→B and later B→C, report A→C. `origin` maps
  // a current name back to the original source name it started as.
  std::map<std::string, std::string> attr_origin;   // current -> original
  std::map<std::string, std::string> rel_origin;

  for (const Op& op : result.mapping.steps()) {
    if (const auto* r = std::get_if<RenameAttrOp>(&op)) {
      auto it = attr_origin.find(r->from);
      std::string original = it != attr_origin.end() ? it->second : r->from;
      if (it != attr_origin.end()) attr_origin.erase(it);
      attr_origin[r->to] = std::move(original);
    } else if (const auto* r2 = std::get_if<RenameRelOp>(&op)) {
      auto it = rel_origin.find(r2->from);
      std::string original = it != rel_origin.end() ? it->second : r2->from;
      if (it != rel_origin.end()) rel_origin.erase(it);
      rel_origin[r2->to] = std::move(original);
    }
  }
  for (const auto& [current, original] : attr_origin) {
    match.attribute_matches.emplace_back(original, current);
  }
  for (const auto& [current, original] : rel_origin) {
    match.relation_matches.emplace_back(original, current);
  }
  return match;
}

}  // namespace tupelo
