#ifndef TUPELO_FIRA_OPTIMIZER_H_
#define TUPELO_FIRA_OPTIMIZER_H_

#include "fira/expression.h"

namespace tupelo {

// Peephole simplification of mapping expressions. Discovered expressions
// often carry detours (rename chains, columns created and immediately
// dropped); executing them verbatim wastes work on every future instance
// of the source schema (cf. Carreira & Galhardas, "Execution of Data
// Mappers"). Simplify applies semantics-preserving adjacent-pair rewrites
// to a fixpoint:
//
//   rename_att(R, A, B); rename_att(R, B, C)   =>  rename_att(R, A, C)
//   rename_att(R, A, B); rename_att(R, B, A)   =>  (both removed)
//   rename_rel(A, B);    rename_rel(B, C)      =>  rename_rel(A, C)
//   rename_att(R, A, B); drop(R, B)            =>  drop(R, A)
//   apply/dereference creating X; drop(R, X)   =>  (both removed)
//   consecutive drops on one relation          =>  sorted (canonical order)
//
// Only adjacent steps are rewritten, so every rule is locally checkable.
// Equivalence guarantee — ONE-SIDED: on any instance where the original
// expression executes successfully, the simplified expression executes
// successfully and produces the identical database. On instances where
// the original would *fail*, the simplified form may succeed or fail
// differently — e.g. a fused rename drops the intermediate name's
// freshness requirement, and even reordering two drops can turn a
// NotFound into a last-column FailedPrecondition. Callers that need the
// original's failure behavior must keep the original expression (search
// does: SafeReplay verifies candidates before Simplify touches them).
MappingExpression Simplify(const MappingExpression& expression);

}  // namespace tupelo

#endif  // TUPELO_FIRA_OPTIMIZER_H_
