// Differential-equivalence suite for the compiled executor
// (fira/compile.h): interpreter vs. CompiledExecutor vs. the optimizer
// legs must produce identical Result<Database> outcomes — values,
// attribute order, tuple order, and typed errors (Status code + message)
// — over the workload generators, seeded random expressions, and the
// edge cases the fuzzer surfaced. The scalable version of the same
// harness lives in tools/equivalence_fuzz.cc.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "differential_common.h"
#include "fira/builtin_functions.h"
#include "fira/compile.h"
#include "fira/executor.h"
#include "fira/expression.h"
#include "fira/optimizer.h"
#include "relational/io.h"
#include "workloads/bamm.h"
#include "workloads/flights.h"
#include "workloads/restructuring.h"
#include "workloads/semantic.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

FunctionRegistry& Builtins() {
  static FunctionRegistry* registry = [] {
    auto* r = new FunctionRegistry();
    EXPECT_TRUE(RegisterBuiltinFunctions(r).ok());
    return r;
  }();
  return *registry;
}

void ExpectEquivalent(const MappingExpression& expr, const Database& input) {
  SCOPED_TRACE(expr.ToScript());
  std::string divergence = diff::CheckExpression(expr, input, &Builtins());
  EXPECT_EQ(divergence, "");
}

// ---------------------------------------------------------------------------
// Plan shape: lowering fuses what it should and falls back where it must
// ---------------------------------------------------------------------------

TEST(CompilePlanTest, FusesTupleLocalChainIntoOneSegment) {
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"},
      DropOp{"R", "B"},
      DereferenceOp{"R", "X", "P"},
      RenameRelOp{"R", "S"},
      DropOp{"S", "P"},
  });
  CompiledPlan plan = CompileExpression(expr);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].kind, PlanSegment::Kind::kFused);
  EXPECT_EQ(plan.fused_ops, 5u);
  EXPECT_EQ(plan.interpreted_ops, 0u);
}

TEST(CompilePlanTest, ProductOpensSegmentThatTrailingOpsExtend) {
  MappingExpression expr(std::vector<Op>{
      ProductOp{"R", "S"},
      DropOp{"R*S", "B"},
      RenameAttrOp{"R*S", "A", "X"},
  });
  CompiledPlan plan = CompileExpression(expr);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.fused_ops, 3u);
}

TEST(CompilePlanTest, StructuralOpsFallBackToInterpreter) {
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"},
      PromoteOp{"R", "X", "B"},  // data-dependent schema: unfusable
      DropOp{"R", "B"},
  });
  CompiledPlan plan = CompileExpression(expr);
  ASSERT_EQ(plan.segments.size(), 3u);
  EXPECT_EQ(plan.segments[1].kind, PlanSegment::Kind::kInterpret);
  EXPECT_EQ(plan.fused_ops, 2u);
  EXPECT_EQ(plan.interpreted_ops, 1u);
}

TEST(CompilePlanTest, SegmentBreaksWhenOpTargetsAnotherRelation) {
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"},
      RenameAttrOp{"S", "C", "Y"},  // different relation: new segment
  });
  CompiledPlan plan = CompileExpression(expr);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.segments[0].kind, PlanSegment::Kind::kFused);
  EXPECT_EQ(plan.segments[1].kind, PlanSegment::Kind::kFused);
  EXPECT_EQ(plan.segments[1].first_step, 1u);
}

// ---------------------------------------------------------------------------
// Workload differential: the paper's own mapping, then seeded sweeps over
// every workload generator
// ---------------------------------------------------------------------------

TEST(ExecutorEquivalenceTest, FlightsPaperMapping) {
  ExpectEquivalent(FlightsBToAExpression(), MakeFlightsB());
}

TEST(ExecutorEquivalenceTest, SeededSweepOverAllWorkloadGenerators) {
  std::vector<std::pair<std::string, Database>> workloads;
  workloads.emplace_back("flights_a", MakeFlightsA());
  workloads.emplace_back("flights_b", MakeFlightsB());
  workloads.emplace_back("flights_c", MakeFlightsC());
  for (BammDomain domain : {BammDomain::kBooks, BammDomain::kAutos,
                            BammDomain::kMusic, BammDomain::kMovies}) {
    BammWorkload w = MakeBammWorkload(domain, /*seed=*/7);
    workloads.emplace_back("bamm_source", std::move(w.source));
    if (!w.targets.empty()) {
      workloads.emplace_back("bamm_target", std::move(w.targets[0]));
    }
  }
  {
    SyntheticMatchingPair pair = MakeSyntheticMatchingPair(12);
    workloads.emplace_back("synthetic_source", std::move(pair.source));
    workloads.emplace_back("synthetic_target", std::move(pair.target));
  }
  {
    RestructuringWorkload w = MakeRestructuringWorkload(3, 4);
    workloads.emplace_back("restructuring_wide", std::move(w.wide));
    workloads.emplace_back("restructuring_flat", std::move(w.flat));
    workloads.emplace_back("restructuring_split", std::move(w.split));
  }
  for (SemanticDomain domain :
       {SemanticDomain::kInventory, SemanticDomain::kRealEstate}) {
    SemanticWorkload w = MakeSemanticWorkload(domain, 8);
    workloads.emplace_back("semantic_source", std::move(w.source));
    workloads.emplace_back("semantic_target", std::move(w.target));
  }

  diff::Rng rng(2006);
  for (const auto& [name, db] : workloads) {
    SCOPED_TRACE(name);
    for (int i = 0; i < 40; ++i) {
      MappingExpression expr =
          diff::RandomExpression(rng, db, Builtins(), /*max_len=*/6);
      ExpectEquivalent(expr, db);
    }
  }
}

// ---------------------------------------------------------------------------
// Edge cases surfaced by the differential fuzzer (bug-sweep satellite);
// each is a minimal repro kept as a regression test.
// ---------------------------------------------------------------------------

// A segment of renames only (a swap, then rename_rel) leaves the tuples as
// they are: its output relation shares the input's tuple body, and the
// relations it does not address stay shared outright.
TEST(ExecutorEquivalenceTest, RenameOnlySegmentSharesTheInputTuples) {
  Database input = Tdb(
      "relation R (A, B, C) { (1, 2, 3) (4, 5, 6) } relation T (Z) { (z) }");
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"}, RenameAttrOp{"R", "B", "A"},
      RenameAttrOp{"R", "X", "B"}, RenameRelOp{"R", "S"}});
  CompiledExecutor compiled(expr);
  ASSERT_EQ(compiled.plan().segments.size(), 1u);
  Result<Database> out = compiled.Apply(input);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(out->HasRelation("R"));
  const Relation& renamed = *out->GetRelation("S").value();
  EXPECT_EQ(renamed.attributes(), (std::vector<std::string>{"B", "A", "C"}));
  EXPECT_EQ(renamed.tuples().data(),
            input.GetRelation("R").value()->tuples().data());
  EXPECT_EQ(out->relations().at("T").get(), input.relations().at("T").get());
  ExpectEquivalent(expr, input);
}

TEST(ExecutorEquivalenceTest, EmptyRelationThroughFusedChain) {
  Database db = Tdb("relation R (A, B) { }");
  ExpectEquivalent(MappingExpression(std::vector<Op>{
                       RenameAttrOp{"R", "A", "X"},
                       DereferenceOp{"R", "X", "P"},
                       DropOp{"R", "B"},
                   }),
                   db);
}

TEST(ExecutorEquivalenceTest, DuplicateAttributeAfterRenameFailsIdentically) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "B"},  // collides with existing B
  });
  ExpectEquivalent(expr, db);
  Result<Database> compiled = CompiledExecutor(expr).Apply(db);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kAlreadyExists);
}

TEST(ExecutorEquivalenceTest, NullInputsToComplexFunctionStayNull) {
  Database db = Tdb("relation R (A, B) { (1, null) (2, 3) }");
  MappingExpression expr(std::vector<Op>{
      ApplyFunctionOp{"R", "concat", {"A", "B"}, "C"},
      DropOp{"R", "A"},
  });
  ExpectEquivalent(expr, db);
  Result<Database> out = CompiledExecutor(expr).Apply(db, &Builtins());
  ASSERT_TRUE(out.ok()) << out.status();
  const Relation& r = **out->GetRelation("R");
  EXPECT_TRUE(r.tuples()[0][1].is_null());   // ⊥ input ⇒ ⊥ output
  EXPECT_EQ(r.tuples()[1][1], Value("23"));
}

TEST(ExecutorEquivalenceTest, ArityZeroProductOperand) {
  // An arity-0 relation is legal; products against it only widen by zero
  // columns but still multiply tuple counts.
  Database db = Tdb("relation S (A) { (1) (2) }");
  Result<Relation> zero = Relation::Create("Z", {});
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(zero->AddTuple(Tuple()).ok());
  db.PutRelation(std::move(zero).value());

  MappingExpression expr(std::vector<Op>{ProductOp{"Z", "S"}});
  ExpectEquivalent(expr, db);
  Result<Database> out = CompiledExecutor(expr).Apply(db);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ((*out->GetRelation("Z*S"))->size(), 2u);
}

TEST(ExecutorEquivalenceTest, DropToLastColumnFailsIdentically) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  ExpectEquivalent(MappingExpression(std::vector<Op>{
                       DropOp{"R", "A"},
                       DropOp{"R", "B"},  // last column: must refuse
                   }),
                   db);
}

TEST(ExecutorEquivalenceTest, RenameRelOntoExistingNameFailsIdentically) {
  Database db = Tdb("relation R (A) { (1) } relation S (B) { (2) }");
  ExpectEquivalent(MappingExpression(std::vector<Op>{
                       RenameAttrOp{"R", "A", "X"},
                       RenameRelOp{"R", "S"},  // S exists
                   }),
                   db);
}

TEST(ExecutorEquivalenceTest, SelfProductFailsIdentically) {
  Database db = Tdb("relation R (A) { (1) }");
  ExpectEquivalent(
      MappingExpression(std::vector<Op>{ProductOp{"R", "R"}}), db);
}

TEST(ExecutorEquivalenceTest, DereferenceUnresolvablePointerYieldsNull) {
  // The pointer column's atoms name other columns; atoms that do not
  // resolve (or ⊥ pointers) must yield ⊥, not errors, in both executors.
  Database db = Tdb("relation R (P, A, B) { (A, 1, 2) (B, 3, 4) "
                    "(C, 5, 6) (null, 7, 8) }");
  MappingExpression expr(std::vector<Op>{
      DereferenceOp{"R", "P", "V"},
      DropOp{"R", "A"},
  });
  ExpectEquivalent(expr, db);
  Result<Database> out = CompiledExecutor(expr).Apply(db);
  ASSERT_TRUE(out.ok()) << out.status();
  const Relation& r = **out->GetRelation("R");
  EXPECT_EQ(r.tuples()[0][2], Value("1"));
  EXPECT_EQ(r.tuples()[1][2], Value("4"));
  EXPECT_TRUE(r.tuples()[2][2].is_null());  // unresolvable atom
  EXPECT_TRUE(r.tuples()[3][2].is_null());  // ⊥ pointer
}

TEST(ExecutorEquivalenceTest, DereferenceScopeTracksRenamesInsideSegment) {
  // After rename_att A→X, a pointer atom "A" must no longer resolve and
  // "X" must — the fused loop captures the per-stage scope.
  Database db = Tdb("relation R (P, A) { (A, 1) (X, 2) }");
  ExpectEquivalent(MappingExpression(std::vector<Op>{
                       RenameAttrOp{"R", "A", "X"},
                       DereferenceOp{"R", "P", "V"},
                   }),
                   db);
  Result<Database> out = CompiledExecutor(MappingExpression(std::vector<Op>{
                             RenameAttrOp{"R", "A", "X"},
                             DereferenceOp{"R", "P", "V"},
                         }))
                             .Apply(db);
  ASSERT_TRUE(out.ok()) << out.status();
  const Relation& r = **out->GetRelation("R");
  EXPECT_TRUE(r.tuples()[0][2].is_null());  // "A" renamed away
  EXPECT_EQ(r.tuples()[1][2], Value("2"));  // "X" now resolves
}

TEST(ExecutorEquivalenceTest, StepErrorWrappingMatchesInterpreter) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  MappingExpression expr(std::vector<Op>{
      DropOp{"R", "B"},
      RenameAttrOp{"R", "missing", "X"},  // fails at step 2
  });
  Result<Database> interp = expr.Apply(db);
  Result<Database> compiled = CompiledExecutor(expr).Apply(db);
  ASSERT_FALSE(interp.ok());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), interp.status().code());
  EXPECT_EQ(compiled.status().message(), interp.status().message());
  EXPECT_NE(interp.status().message().find("step 2 ("), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault-injector accounting on the compiled path
// ---------------------------------------------------------------------------

TEST(ExecutorEquivalenceTest, InjectorConsultedOncePerLogicalOperator) {
  Database db = Tdb("relation R (A, B) { (1, 2) (3, 4) }");
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"},
      DereferenceOp{"R", "X", "P"},
      DropOp{"R", "B"},
      RenameRelOp{"R", "S"},
  });
  EXPECT_EQ(diff::CheckInjectorParity(expr, db, &Builtins()), "");
}

TEST(ExecutorEquivalenceTest, InjectedFaultFiresAtSameStepOnBothPaths) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"},
      DropOp{"R", "B"},
      RenameRelOp{"R", "S"},
  });

  FaultInjector injector;
  SetFaultInjector(&injector);

  // Fault the second logical operator; both executors must fail with the
  // identical wrapped status and identical injected counts.
  injector.Arm("*", Status::Internal("injected"), /*skip=*/1);
  Result<Database> interp = expr.Apply(db);
  uint64_t interp_consults = injector.consults();
  uint64_t interp_injected = injector.injected();

  injector.Arm("*", Status::Internal("injected"), /*skip=*/1);
  Result<Database> compiled = CompiledExecutor(expr).Apply(db);
  uint64_t compiled_consults = injector.consults();
  uint64_t compiled_injected = injector.injected();

  SetFaultInjector(nullptr);

  ASSERT_FALSE(interp.ok());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().message(), interp.status().message());
  EXPECT_NE(interp.status().message().find("step 2 ("), std::string::npos);
  EXPECT_EQ(compiled_consults, interp_consults);
  EXPECT_EQ(compiled_injected, interp_injected);
  EXPECT_EQ(interp_injected, 1u);
}

// ---------------------------------------------------------------------------
// Simplify is one-sided: it may change the outcome only where the original
// fails
// ---------------------------------------------------------------------------

TEST(OptimizeEquivalenceTest, RenameFusionDivergesWhereOriginalFails) {
  // The divergence documented in optimizer.h: A→B→C fused to A→C drops
  // the intermediate freshness requirement on B. Where B already exists,
  // the original fails but the fused form succeeds.
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "Tmp"},
      RenameAttrOp{"R", "Tmp", "C"},
  });
  MappingExpression simplified = Simplify(expr);
  ASSERT_EQ(simplified.steps().size(), 1u);

  Database colliding = Tdb("relation R (A, B, Tmp) { (1, 2, 3) }");
  EXPECT_FALSE(expr.Apply(colliding).ok());
  EXPECT_TRUE(simplified.Apply(colliding).ok());
}

TEST(OptimizeEquivalenceTest, DropReorderingChangesFailureCode) {
  // Even reordering two drops changes failure outcomes: with X missing
  // and the relation at arity 2, drop(X);drop(A) fails NotFound while
  // drop(A);drop(X) fails FailedPrecondition (last column).
  Database db = Tdb("relation R (A, Y) { (1, 2) }");
  MappingExpression original(std::vector<Op>{
      DropOp{"R", "X"},
      DropOp{"R", "A"},
  });
  MappingExpression reordered(std::vector<Op>{
      DropOp{"R", "A"},
      DropOp{"R", "X"},
  });
  EXPECT_EQ(Simplify(original), reordered);
  Result<Database> a = original.Apply(db);
  Result<Database> b = reordered.Apply(db);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_NE(a.status().code(), b.status().code());
}

TEST(OptimizeEquivalenceTest, ReturnsFixpointExpressionsUnchanged) {
  MappingExpression expr(std::vector<Op>{
      RenameAttrOp{"R", "A", "X"},
      DropOp{"R", "B"},
      PromoteOp{"R", "X", "C"},
  });
  EXPECT_EQ(Simplify(expr), expr);  // already at the fixpoint
}

}  // namespace
}  // namespace tupelo
