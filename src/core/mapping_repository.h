#ifndef TUPELO_CORE_MAPPING_REPOSITORY_H_
#define TUPELO_CORE_MAPPING_REPOSITORY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/mapping_problem.h"
#include "fira/expression.h"
#include "relational/database.h"

namespace tupelo {

// A stored mapping: the executable expression plus everything needed to
// validate and re-run it later — the source/target schemas it was
// discovered for (as critical instances), the articulated complex
// correspondences, and discovery provenance. This is the artifact a data
// integration deployment keeps once discovery is done (§1: mappings are
// "the basic glue" of large-scale information systems; they outlive the
// discovery run).
struct StoredMapping {
  std::string name;                 // identifier, e.g. "prices_to_flights"
  MappingExpression expression;
  Database source_instance;         // critical instance (schema + example)
  Database target_instance;
  std::vector<SemanticCorrespondence> correspondences;
  // Provenance (informational only).
  std::string algorithm;
  std::string heuristic;
  uint64_t states_examined = 0;

  friend bool operator==(const StoredMapping&, const StoredMapping&) = default;
};

// Text serialization (".tmap"): a sectioned format embedding the .tdb and
// expression-script syntaxes verbatim:
//
//   tupelo-mapping 1
//   name prices_to_flights
//   algorithm rbfs
//   heuristic h1
//   states 2570
//   correspondence add [Cost, AgentFee] TotalCost
//   begin source
//     ...tdb...
//   end source
//   begin target
//     ...tdb...
//   end target
//   begin expression
//     ...script...
//   end expression
//
// Each header line is one keyword and its atoms, read with the text
// layer's rules (common/text.h) and the delimiters [ ] ,. `states` is an
// unsigned 64-bit integer; algorithm and heuristic lines are optional.
std::string WriteMapping(const StoredMapping& mapping);
Result<StoredMapping> ParseMapping(std::string_view text);

// File helpers. Saving is atomic (AtomicWriteFile).
Result<StoredMapping> LoadMappingFile(const std::string& path);
Status SaveMappingFile(const StoredMapping& mapping, const std::string& path);

// Re-validates a stored mapping: executes the expression on the stored
// source instance and checks the result contains the stored target
// instance. `registry` must provide the functions named by the
// correspondences (may be null when there are none).
Result<bool> ValidateStoredMapping(const StoredMapping& mapping,
                                   const FunctionRegistry* registry = nullptr);

}  // namespace tupelo

#endif  // TUPELO_CORE_MAPPING_REPOSITORY_H_
