#ifndef TUPELO_FIRA_COMPILE_H_
#define TUPELO_FIRA_COMPILE_H_

#include <cstddef>

#include "common/result.h"
#include "fira/expression.h"
#include "fira/function_registry.h"
#include "fira/ir.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace tupelo {

// Partitions an expression into fused / interpreted segments (fira/ir.h).
// Lowering is total: every expression compiles, unfusable operators just
// land in single-op interpreter segments.
CompiledPlan CompileExpression(const MappingExpression& expression);

// Executes discovered mappings through the loop IR instead of the
// operator-at-a-time interpreter. Drop-in for MappingExpression::Apply:
// for every input instance the Result<Database> is identical — the same
// database (values, attribute order, tuple order) on success and the
// same Status (code and message, including the interpreter's
// "step N (script): ..." wrapping) on failure. The differential harness
// (tests/executor_equivalence_test.cc, tools/equivalence_fuzz) enforces
// this exactly.
//
// How equivalence is kept cheap: every fusable operator fails only on
// schema-level conditions (missing/colliding attributes or relation
// names), never on tuple data. So each fused segment first replays its
// ops through the real interpreter over a schema-only shadow database
// (zero tuples — validation and schema evolution at full fidelity for
// the cost of the schema), and only then runs the fused loop, which by
// then cannot fail. The shadow replay is also what keeps the
// FaultInjector contract: the injector is consulted exactly once per
// logical operator, in pipeline order, with the same fault.injected
// trace instants and executor.<op>.* metric increments as the
// interpreter — so chaos-campaign crash-equivalence holds for both
// executors.
class CompiledExecutor {
 public:
  explicit CompiledExecutor(const MappingExpression& expression)
      : plan_(CompileExpression(expression)) {}

  const CompiledPlan& plan() const { return plan_; }

  // Applies the compiled expression. `registry` may be null if no step is
  // a λ. `metrics`/`trace` are optional, with the interpreter's
  // conventions (per-operator instruments and spans, plus one
  // "op.fused_loop" span per executed fused loop).
  Result<Database> Apply(const Database& input,
                         const FunctionRegistry* registry = nullptr,
                         obs::MetricRegistry* metrics = nullptr,
                         obs::TraceSession* trace = nullptr) const;

 private:
  CompiledPlan plan_;
};

}  // namespace tupelo

#endif  // TUPELO_FIRA_COMPILE_H_
