#ifndef TUPELO_TESTS_DIFFERENTIAL_COMMON_H_
#define TUPELO_TESTS_DIFFERENTIAL_COMMON_H_

// Shared support for the executor differential harness: the gtest suite
// (executor_equivalence_test.cc) and the seeded fuzz driver
// (tools/equivalence_fuzz.cc) both generate random expressions against
// concrete databases and check that every execution leg agrees:
//
//   interpreter            MappingExpression::Apply (op-at-a-time)
//   compiled               CompiledExecutor::Apply (fused loop IR)
//   simplify+interpreter   Simplify(expr).Apply — one-sided contract,
//                          checked only on instances where the original
//                          succeeds
//
// "Agree" is exact Result<Database> equality: ok-ness, the database's
// printed form (relation set, attribute order, tuple order, values) on
// success, and the Status code AND message on failure.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "fira/compile.h"
#include "fira/executor.h"
#include "fira/expression.h"
#include "fira/function_registry.h"
#include "fira/operators.h"
#include "fira/optimizer.h"
#include "relational/database.h"

namespace tupelo {
namespace diff {

using Rng = std::mt19937_64;

// Canonical printed form of an outcome; two legs are equivalent iff their
// outcome strings are byte-identical.
inline std::string OutcomeString(const Result<Database>& r) {
  if (r.ok()) return "ok: " + r->ToString();
  return "error[" + std::to_string(static_cast<int>(r.status().code())) +
         "]: " + r.status().message();
}

// Runs every leg of the differential harness over (expr, input). Returns
// "" when all legs agree, else a description of the first divergence.
inline std::string CheckExpression(const MappingExpression& expr,
                                   const Database& input,
                                   const FunctionRegistry* registry) {
  Result<Database> interp = expr.Apply(input, registry);
  const std::string want = OutcomeString(interp);

  CompiledExecutor compiled(expr);
  const std::string got = OutcomeString(compiled.Apply(input, registry));
  if (got != want) {
    return "interpreter vs compiled divergence\n  expr: " + expr.ToScript() +
           "\n  interpreter: " + want + "\n  compiled:    " + got;
  }

  // Simplify: one-sided guarantee, so only success instances count — and
  // the simplified form must agree under BOTH executors.
  if (interp.ok()) {
    MappingExpression simplified = Simplify(expr);
    const std::string simp =
        OutcomeString(simplified.Apply(input, registry));
    if (simp != want) {
      return "simplify broke a succeeding instance\n  expr: " +
             expr.ToScript() + "\n  simplified: " + simplified.ToScript() +
             "\n  original:   " + want + "\n  simplified: " + simp;
    }
    const std::string simp_compiled =
        OutcomeString(CompiledExecutor(simplified).Apply(input, registry));
    if (simp_compiled != want) {
      return "compiled executor diverged on simplified form\n  expr: " +
             simplified.ToScript() + "\n  interpreter: " + want +
             "\n  compiled:    " + simp_compiled;
    }
  }
  return "";
}

// Fault-injector accounting parity: with a never-firing injector armed,
// interpreter and compiled execution of the same expression must consult
// it the same number of times (once per logical operator reached).
// Returns "" on parity, else a description.
inline std::string CheckInjectorParity(const MappingExpression& expr,
                                       const Database& input,
                                       const FunctionRegistry* registry) {
  FaultInjector injector;
  FaultInjector* previous = GetFaultInjector();
  SetFaultInjector(&injector);

  injector.Arm("*", Status::Internal("never fires"),
               /*skip=*/static_cast<uint64_t>(-1));
  (void)expr.Apply(input, registry);
  const uint64_t interp_consults = injector.consults();

  injector.Arm("*", Status::Internal("never fires"),
               /*skip=*/static_cast<uint64_t>(-1));
  (void)CompiledExecutor(expr).Apply(input, registry);
  const uint64_t compiled_consults = injector.consults();

  SetFaultInjector(previous);
  if (interp_consults != compiled_consults) {
    return "fault-injector consult mismatch on " + expr.ToScript() +
           ": interpreter=" + std::to_string(interp_consults) +
           " compiled=" + std::to_string(compiled_consults);
  }
  return "";
}

// ---------------------------------------------------------------------
// Random expression generation
// ---------------------------------------------------------------------

inline const std::string& Pick(Rng& rng,
                               const std::vector<std::string>& pool) {
  return pool[rng() % pool.size()];
}

// A name drawn from the pool most of the time, a (probably) bogus one
// otherwise — error paths are first-class citizens of the harness.
inline std::string PickOrBogus(Rng& rng,
                               const std::vector<std::string>& pool,
                               const char* bogus_prefix) {
  if (pool.empty() || rng() % 8 == 0) {
    return std::string(bogus_prefix) + std::to_string(rng() % 4);
  }
  return Pick(rng, pool);
}

// Builds a random expression of up to `max_len` steps against `db`,
// tracking the schema approximately as steps are appended so that later
// steps usually (not always) stay applicable. Fusable tuple-local
// operators dominate the mix; structural operators (promote, demote,
// partition, merge) appear occasionally to exercise interpreter-fallback
// segment boundaries.
inline MappingExpression RandomExpression(Rng& rng, const Database& db,
                                          const FunctionRegistry& registry,
                                          size_t max_len) {
  // Mutable shadow of the schema: relation name -> attributes. Only an
  // approximation (promote/demote outputs depend on data), which is fine:
  // inapplicable steps just exercise the error path.
  std::vector<std::pair<std::string, std::vector<std::string>>> schema;
  for (const std::string& name : db.RelationNames()) {
    Result<const Relation*> rel = db.GetRelation(name);
    if (rel.ok()) schema.emplace_back(name, (*rel)->attributes());
  }
  const std::vector<std::string> functions = registry.Names();

  std::vector<Op> steps;
  const size_t len = 1 + rng() % max_len;
  uint64_t fresh = 0;
  while (steps.size() < len && !schema.empty()) {
    auto& [rel, attrs] = schema[rng() % schema.size()];
    std::string fresh_name = "gen" + std::to_string(fresh++);
    switch (rng() % 10) {
      case 0: {  // rename_att
        if (attrs.empty()) continue;
        std::string from = PickOrBogus(rng, attrs, "noattr");
        std::string to = rng() % 8 == 0 ? PickOrBogus(rng, attrs, "noattr")
                                        : fresh_name;
        steps.push_back(RenameAttrOp{rel, from, to});
        for (std::string& a : attrs) {
          if (a == from) a = to;
        }
        break;
      }
      case 1: {  // drop
        std::string attr = PickOrBogus(rng, attrs, "noattr");
        steps.push_back(DropOp{rel, attr});
        std::erase(attrs, attr);
        break;
      }
      case 2: {  // rename_rel
        std::string to =
            rng() % 8 == 0 ? schema[rng() % schema.size()].first : fresh_name;
        steps.push_back(RenameRelOp{rel, to});
        rel = to;
        break;
      }
      case 3: {  // dereference
        steps.push_back(
            DereferenceOp{rel, PickOrBogus(rng, attrs, "noattr"),
                          fresh_name});
        attrs.push_back(fresh_name);
        break;
      }
      case 4: {  // apply λ
        if (functions.empty()) continue;
        const std::string& fn = Pick(rng, functions);
        Result<const ComplexFunction*> looked = registry.Lookup(fn);
        size_t arity = looked.ok() ? (*looked)->arity : 1;
        std::vector<std::string> inputs;
        for (size_t i = 0; i < arity; ++i) {
          inputs.push_back(PickOrBogus(rng, attrs, "noattr"));
        }
        steps.push_back(ApplyFunctionOp{rel, fn, std::move(inputs),
                                        fresh_name});
        attrs.push_back(fresh_name);
        break;
      }
      case 5: {  // product
        const std::string& right =
            schema[rng() % schema.size()].first;
        steps.push_back(ProductOp{rel, right});
        // Track the product relation so later steps can thread it.
        Result<const Relation*> l = db.GetRelation(rel);
        std::vector<std::string> combined = attrs;
        for (auto& [name, as] : schema) {
          if (name == right) {
            combined.insert(combined.end(), as.begin(), as.end());
            break;
          }
        }
        schema.emplace_back(ProductResultName(ProductOp{rel, right}),
                            std::move(combined));
        (void)l;
        break;
      }
      case 6: {  // promote (interpreter fallback)
        if (attrs.size() < 2) continue;
        steps.push_back(PromoteOp{rel, Pick(rng, attrs), Pick(rng, attrs)});
        break;
      }
      case 7: {  // demote (interpreter fallback)
        steps.push_back(DemoteOp{rel});
        attrs.push_back(kDemoteAttrColumn);
        attrs.push_back(kDemoteValueColumn);
        break;
      }
      case 8: {  // partition (interpreter fallback)
        if (attrs.empty()) continue;
        steps.push_back(PartitionOp{rel, Pick(rng, attrs)});
        break;
      }
      default: {  // merge (interpreter fallback)
        if (attrs.empty()) continue;
        steps.push_back(MergeOp{rel, Pick(rng, attrs)});
        break;
      }
    }
  }
  return MappingExpression(std::move(steps));
}

}  // namespace diff
}  // namespace tupelo

#endif  // TUPELO_TESTS_DIFFERENTIAL_COMMON_H_
