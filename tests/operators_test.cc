#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fira/builtin_functions.h"
#include "fira/executor.h"
#include "fira/operators.h"
#include "fira/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/io.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

Database MustApply(const Op& op, const Database& in,
                   const FunctionRegistry* reg = nullptr) {
  Result<Database> out = ApplyOp(op, in, reg);
  EXPECT_TRUE(out.ok()) << out.status();
  return std::move(out).value();
}

const Relation& Rel(const Database& db, const char* name) {
  Result<const Relation*> r = db.GetRelation(name);
  EXPECT_TRUE(r.ok()) << r.status();
  return **r;
}

// ---------------------------------------------------------------------------
// ↑ promote
// ---------------------------------------------------------------------------

TEST(PromoteTest, CreatesOneColumnPerDistinctValue) {
  Database db = Tdb("relation R (K, V) { (k1, 10) (k2, 20) (k1, 30) }");
  Database out = MustApply(PromoteOp{"R", "K", "V"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(), (std::vector<std::string>{"K", "V", "k1", "k2"}));
  // Each tuple carries its V value in its own K-named column, null elsewhere.
  EXPECT_EQ(r.tuples()[0][2], Value("10"));
  EXPECT_TRUE(r.tuples()[0][3].is_null());
  EXPECT_TRUE(r.tuples()[1][2].is_null());
  EXPECT_EQ(r.tuples()[1][3], Value("20"));
  EXPECT_EQ(r.tuples()[2][2], Value("30"));
}

TEST(PromoteTest, NullNameValueGetsNoColumn) {
  Database db = Tdb("relation R (K, V) { (null, 10) (k2, 20) }");
  Database out = MustApply(PromoteOp{"R", "K", "V"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(), (std::vector<std::string>{"K", "V", "k2"}));
  EXPECT_TRUE(r.tuples()[0][2].is_null());
}

TEST(PromoteTest, PaperExampleFlightsB) {
  // R1 := ↑Route_Cost(FlightsB): new columns ATL29, ORD17.
  Database out = MustApply(PromoteOp{"Prices", "Route", "Cost"},
                           MakeFlightsB());
  const Relation& r = Rel(out, "Prices");
  EXPECT_EQ(r.attributes(),
            (std::vector<std::string>{"Carrier", "Route", "Cost", "AgentFee",
                                      "ATL29", "ORD17"}));
  // (AirEast, ATL29, 100, 15) gains ATL29=100.
  EXPECT_EQ(r.tuples()[0][4], Value("100"));
  EXPECT_TRUE(r.tuples()[0][5].is_null());
}

TEST(PromoteTest, ErrorsOnMissingAttributes) {
  Database db = Tdb("relation R (K, V) { (k1, 10) }");
  EXPECT_FALSE(ApplyOp(PromoteOp{"R", "Z", "V"}, db).ok());
  EXPECT_FALSE(ApplyOp(PromoteOp{"R", "K", "Z"}, db).ok());
  EXPECT_FALSE(ApplyOp(PromoteOp{"Z", "K", "V"}, db).ok());
}

TEST(PromoteTest, ErrorsOnColumnNameCollision) {
  Database db = Tdb("relation R (K, V) { (V, 10) }");
  EXPECT_EQ(ApplyOp(PromoteOp{"R", "K", "V"}, db).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(PromoteTest, SelfPromoteAllowed) {
  // ↑A_A: column named by A's value holding A's value.
  Database db = Tdb("relation R (A) { (x) }");
  Database out = MustApply(PromoteOp{"R", "A", "A"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(), (std::vector<std::string>{"A", "x"}));
  EXPECT_EQ(r.tuples()[0][1], Value("x"));
}

// ---------------------------------------------------------------------------
// ↓ demote
// ---------------------------------------------------------------------------

TEST(DemoteTest, UnpivotsEveryAttribute) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  Database out = MustApply(DemoteOp{"R"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(),
            (std::vector<std::string>{"A", "B", kDemoteAttrColumn,
                                      kDemoteValueColumn}));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuples()[0], Tuple::OfAtoms({"1", "2", "A", "1"}));
  EXPECT_EQ(r.tuples()[1], Tuple::OfAtoms({"1", "2", "B", "2"}));
}

TEST(DemoteTest, MultipliesTupleCountByArity) {
  Database out = MustApply(DemoteOp{"Prices"}, MakeFlightsB());
  EXPECT_EQ(Rel(out, "Prices").size(), 4u * 4u);
}

TEST(DemoteTest, PreservesNullsInValueColumn) {
  Database db = Tdb("relation R (A, B) { (1, null) }");
  Database out = MustApply(DemoteOp{"R"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_TRUE(r.tuples()[1][3].is_null());  // (_att=B, _val=⊥)
  EXPECT_EQ(r.tuples()[1][2], Value("B"));
}

TEST(DemoteTest, ErrorsOnRepeatedDemote) {
  Database db = Tdb("relation R (A) { (1) }");
  Database once = MustApply(DemoteOp{"R"}, db);
  EXPECT_EQ(ApplyOp(DemoteOp{"R"}, once).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(DemoteTest, EmptyRelationStaysEmpty) {
  Database db = Tdb("relation R (A) { }");
  Database out = MustApply(DemoteOp{"R"}, db);
  EXPECT_TRUE(Rel(out, "R").empty());
  EXPECT_EQ(Rel(out, "R").arity(), 3u);
}

TEST(DemoteTest, InvertsPromoteViaContainment) {
  // demote(promote(R)) recovers R's data among its rows.
  Database db = MakeFlightsB();
  Database promoted = MustApply(PromoteOp{"Prices", "Route", "Cost"}, db);
  Database demoted = MustApply(DemoteOp{"Prices"}, promoted);
  // Original (Carrier, Route, Cost, AgentFee) tuples still project out.
  EXPECT_TRUE(demoted.Contains(db));
}

// ---------------------------------------------------------------------------
// ℘ partition
// ---------------------------------------------------------------------------

TEST(PartitionTest, CreatesRelationPerValue) {
  Database out =
      MustApply(PartitionOp{"Prices", "Carrier"}, MakeFlightsB());
  EXPECT_TRUE(out.HasRelation("AirEast"));
  EXPECT_TRUE(out.HasRelation("JetWest"));
  EXPECT_TRUE(out.HasRelation("Prices"));  // original kept
  const Relation& ae = Rel(out, "AirEast");
  EXPECT_EQ(ae.attributes(), Rel(out, "Prices").attributes());
  EXPECT_EQ(ae.size(), 2u);
  for (const Tuple& t : ae.tuples()) EXPECT_EQ(t[0], Value("AirEast"));
}

TEST(PartitionTest, NullValuesExcluded) {
  Database db = Tdb("relation R (A, B) { (x, 1) (null, 2) }");
  Database out = MustApply(PartitionOp{"R", "A"}, db);
  EXPECT_TRUE(out.HasRelation("x"));
  EXPECT_EQ(out.relation_count(), 2u);  // R and x only
  EXPECT_EQ(Rel(out, "x").size(), 1u);
}

TEST(PartitionTest, ErrorsOnNameCollision) {
  Database db = Tdb("relation R (A) { (R) }");
  EXPECT_EQ(ApplyOp(PartitionOp{"R", "A"}, db).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(PartitionTest, ErrorsOnMissingInputs) {
  Database db = Tdb("relation R (A) { (x) }");
  EXPECT_FALSE(ApplyOp(PartitionOp{"Z", "A"}, db).ok());
  EXPECT_FALSE(ApplyOp(PartitionOp{"R", "Z"}, db).ok());
}

// ---------------------------------------------------------------------------
// × product
// ---------------------------------------------------------------------------

TEST(ProductTest, CartesianProduct) {
  Database db = Tdb(
      "relation R (A) { (1) (2) }\n"
      "relation S (B, C) { (x, y) }");
  Database out = MustApply(ProductOp{"R", "S"}, db);
  const Relation& p = Rel(out, "R*S");
  EXPECT_EQ(p.attributes(), (std::vector<std::string>{"A", "B", "C"}));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.tuples()[0], Tuple::OfAtoms({"1", "x", "y"}));
  EXPECT_EQ(p.tuples()[1], Tuple::OfAtoms({"2", "x", "y"}));
  EXPECT_TRUE(out.HasRelation("R"));
  EXPECT_TRUE(out.HasRelation("S"));
}

TEST(ProductTest, EmptyOperandGivesEmptyProduct) {
  Database db = Tdb("relation R (A) { (1) }\nrelation S (B) { }");
  Database out = MustApply(ProductOp{"R", "S"}, db);
  EXPECT_TRUE(Rel(out, "R*S").empty());
}

TEST(ProductTest, ErrorsOnAttributeOverlap) {
  Database db = Tdb("relation R (A) { (1) }\nrelation S (A) { (2) }");
  EXPECT_FALSE(ApplyOp(ProductOp{"R", "S"}, db).ok());
}

TEST(ProductTest, ErrorsOnSelfProduct) {
  Database db = Tdb("relation R (A) { (1) }");
  EXPECT_FALSE(ApplyOp(ProductOp{"R", "R"}, db).ok());
}

TEST(ProductTest, ErrorsOnResultNameCollision) {
  Database db = Tdb(
      "relation R (A) { (1) }\n"
      "relation S (B) { (2) }\n"
      "relation \"R*S\" (C) { }");
  EXPECT_EQ(ApplyOp(ProductOp{"R", "S"}, db).status().code(),
            StatusCode::kAlreadyExists);
}

// ---------------------------------------------------------------------------
// π̄ drop
// ---------------------------------------------------------------------------

TEST(DropTest, RemovesColumn) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  Database out = MustApply(DropOp{"R", "A"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(), (std::vector<std::string>{"B"}));
  EXPECT_EQ(r.tuples()[0], Tuple::OfAtoms({"2"}));
}

TEST(DropTest, RefusesLastColumn) {
  Database db = Tdb("relation R (A) { (1) }");
  EXPECT_EQ(ApplyOp(DropOp{"R", "A"}, db).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DropTest, ErrorsOnMissing) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  EXPECT_FALSE(ApplyOp(DropOp{"R", "Z"}, db).ok());
  EXPECT_FALSE(ApplyOp(DropOp{"Z", "A"}, db).ok());
}

// ---------------------------------------------------------------------------
// µ merge
// ---------------------------------------------------------------------------

TEST(MergeTest, MergesNullCompatibleTuplesWithSameKey) {
  Database db = Tdb(
      "relation R (K, X, Y) { (k, 1, null) (k, null, 2) }");
  Database out = MustApply(MergeOp{"R", "K"}, db);
  const Relation& r = Rel(out, "R");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.tuples()[0], Tuple::OfAtoms({"k", "1", "2"}));
}

TEST(MergeTest, DifferentKeysDoNotMerge) {
  Database db = Tdb(
      "relation R (K, X, Y) { (k1, 1, null) (k2, null, 2) }");
  Database out = MustApply(MergeOp{"R", "K"}, db);
  EXPECT_EQ(Rel(out, "R").size(), 2u);
}

TEST(MergeTest, ConflictingValuesDoNotMerge) {
  Database db = Tdb("relation R (K, X) { (k, 1) (k, 2) }");
  Database out = MustApply(MergeOp{"R", "K"}, db);
  EXPECT_EQ(Rel(out, "R").size(), 2u);
}

TEST(MergeTest, ExactDuplicatesCollapse) {
  Database db = Tdb("relation R (K, X) { (k, 1) (k, 1) }");
  Database out = MustApply(MergeOp{"R", "K"}, db);
  EXPECT_EQ(Rel(out, "R").size(), 1u);
}

TEST(MergeTest, NullKeyTuplesLeftAlone) {
  Database db = Tdb("relation R (K, X) { (null, 1) (null, 1) }");
  Database out = MustApply(MergeOp{"R", "K"}, db);
  EXPECT_EQ(Rel(out, "R").size(), 2u);
}

TEST(MergeTest, ChainMergesToFixpoint) {
  // Three tuples pairwise mergeable only transitively.
  Database db = Tdb(
      "relation R (K, X, Y, Z) {"
      " (k, 1, null, null) (k, null, 2, null) (k, null, null, 3) }");
  Database out = MustApply(MergeOp{"R", "K"}, db);
  const Relation& r = Rel(out, "R");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.tuples()[0], Tuple::OfAtoms({"k", "1", "2", "3"}));
}

TEST(MergeTest, PaperExampleFlightsBtoA) {
  // promote, drop Route, drop Cost, then merge on Carrier gives the
  // FlightsA shape.
  Database db = MakeFlightsB();
  db = MustApply(PromoteOp{"Prices", "Route", "Cost"}, db);
  db = MustApply(DropOp{"Prices", "Route"}, db);
  db = MustApply(DropOp{"Prices", "Cost"}, db);
  db = MustApply(MergeOp{"Prices", "Carrier"}, db);
  const Relation& r = Rel(db, "Prices");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuples()[0], Tuple::OfAtoms({"AirEast", "15", "100", "110"}));
  EXPECT_EQ(r.tuples()[1], Tuple::OfAtoms({"JetWest", "16", "200", "220"}));
}

// ---------------------------------------------------------------------------
// ρ renames
// ---------------------------------------------------------------------------

TEST(RenameAttrTest, Renames) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  Database out = MustApply(RenameAttrOp{"R", "A", "X"}, db);
  EXPECT_EQ(Rel(out, "R").attributes(),
            (std::vector<std::string>{"X", "B"}));
}

TEST(RenameAttrTest, Errors) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  EXPECT_FALSE(ApplyOp(RenameAttrOp{"R", "Z", "X"}, db).ok());
  EXPECT_FALSE(ApplyOp(RenameAttrOp{"R", "A", "B"}, db).ok());
  EXPECT_FALSE(ApplyOp(RenameAttrOp{"Z", "A", "X"}, db).ok());
}

TEST(RenameRelTest, RenamesWholeRelation) {
  Database db = Tdb("relation R (A) { (1) }");
  Database out = MustApply(RenameRelOp{"R", "S"}, db);
  EXPECT_FALSE(out.HasRelation("R"));
  EXPECT_EQ(Rel(out, "S").name(), "S");
}

TEST(RenameRelTest, Errors) {
  Database db = Tdb("relation R (A) { (1) }\nrelation S (B) { (2) }");
  EXPECT_FALSE(ApplyOp(RenameRelOp{"R", "S"}, db).ok());
  EXPECT_FALSE(ApplyOp(RenameRelOp{"Z", "T"}, db).ok());
}

// ---------------------------------------------------------------------------
// → dereference
// ---------------------------------------------------------------------------

TEST(DereferenceTest, FollowsPointerColumn) {
  Database db = Tdb("relation R (P, A, B) { (A, 1, 2) (B, 3, 4) }");
  Database out = MustApply(DereferenceOp{"R", "P", "Out"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(),
            (std::vector<std::string>{"P", "A", "B", "Out"}));
  EXPECT_EQ(r.tuples()[0][3], Value("1"));  // t[t[P]] = t[A] = 1
  EXPECT_EQ(r.tuples()[1][3], Value("4"));  // t[t[P]] = t[B] = 4
}

TEST(DereferenceTest, UnresolvablePointerYieldsNull) {
  Database db = Tdb("relation R (P, A) { (Nope, 1) (null, 2) }");
  Database out = MustApply(DereferenceOp{"R", "P", "Out"}, db);
  const Relation& r = Rel(out, "R");
  EXPECT_TRUE(r.tuples()[0][2].is_null());
  EXPECT_TRUE(r.tuples()[1][2].is_null());
}

TEST(DereferenceTest, Errors) {
  Database db = Tdb("relation R (P, A) { (A, 1) }");
  EXPECT_FALSE(ApplyOp(DereferenceOp{"R", "Z", "Out"}, db).ok());
  EXPECT_FALSE(ApplyOp(DereferenceOp{"R", "P", "A"}, db).ok());  // collision
  EXPECT_FALSE(ApplyOp(DereferenceOp{"Z", "P", "Out"}, db).ok());
}

// ---------------------------------------------------------------------------
// λ apply
// ---------------------------------------------------------------------------

class ApplyFunctionTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(RegisterBuiltinFunctions(&registry_).ok());
  }
  FunctionRegistry registry_;
};

TEST_F(ApplyFunctionTest, ComputesColumn) {
  Database db = Tdb("relation R (A, B) { (1, 2) (10, 20) }");
  Database out = MustApply(ApplyFunctionOp{"R", "add", {"A", "B"}, "Sum"},
                           db, &registry_);
  const Relation& r = Rel(out, "R");
  EXPECT_EQ(r.attributes(), (std::vector<std::string>{"A", "B", "Sum"}));
  EXPECT_EQ(r.tuples()[0][2], Value("3"));
  EXPECT_EQ(r.tuples()[1][2], Value("30"));
}

TEST_F(ApplyFunctionTest, NullInputYieldsNullOutput) {
  Database db = Tdb("relation R (A, B) { (1, null) }");
  Database out = MustApply(ApplyFunctionOp{"R", "add", {"A", "B"}, "Sum"},
                           db, &registry_);
  EXPECT_TRUE(Rel(out, "R").tuples()[0][2].is_null());
}

TEST_F(ApplyFunctionTest, PerTupleFailureYieldsNull) {
  Database db = Tdb("relation R (A, B) { (1, two) (3, 4) }");
  Database out = MustApply(ApplyFunctionOp{"R", "add", {"A", "B"}, "Sum"},
                           db, &registry_);
  const Relation& r = Rel(out, "R");
  EXPECT_TRUE(r.tuples()[0][2].is_null());
  EXPECT_EQ(r.tuples()[1][2], Value("7"));
}

TEST_F(ApplyFunctionTest, PaperExample6TotalCost) {
  // λ^TotalCost_{f3, Cost, AgentFee}(FlightsB).
  Database out = MustApply(
      ApplyFunctionOp{"Prices", "add", {"Cost", "AgentFee"}, "TotalCost"},
      MakeFlightsB(), &registry_);
  const Relation& r = Rel(out, "Prices");
  EXPECT_EQ(r.tuples()[0][4], Value("115"));
  EXPECT_EQ(r.tuples()[1][4], Value("216"));
  EXPECT_EQ(r.tuples()[2][4], Value("125"));
  EXPECT_EQ(r.tuples()[3][4], Value("236"));
}

TEST_F(ApplyFunctionTest, ConfigurationErrors) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  // No registry.
  EXPECT_EQ(ApplyOp(ApplyFunctionOp{"R", "add", {"A", "B"}, "S"}, db, nullptr)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Unknown function.
  EXPECT_EQ(ApplyOp(ApplyFunctionOp{"R", "nope", {"A"}, "S"}, db, &registry_)
                .status()
                .code(),
            StatusCode::kNotFound);
  // Arity mismatch.
  EXPECT_FALSE(
      ApplyOp(ApplyFunctionOp{"R", "add", {"A"}, "S"}, db, &registry_).ok());
  // Missing input attribute.
  EXPECT_FALSE(
      ApplyOp(ApplyFunctionOp{"R", "add", {"A", "Z"}, "S"}, db, &registry_)
          .ok());
  // Output collision.
  EXPECT_FALSE(
      ApplyOp(ApplyFunctionOp{"R", "add", {"A", "B"}, "B"}, db, &registry_)
          .ok());
}

// ---------------------------------------------------------------------------
// General executor behavior
// ---------------------------------------------------------------------------

TEST(ExecutorTest, InputDatabaseIsUntouched) {
  Database db = Tdb("relation R (A, B) { (1, 2) }");
  std::string before = db.CanonicalKey();
  Database out = MustApply(DropOp{"R", "A"}, db);
  EXPECT_EQ(db.CanonicalKey(), before);
  EXPECT_NE(out.CanonicalKey(), before);
}

TEST(ExecutorTest, OpsOnlyTouchTheirRelation) {
  Database db = Tdb("relation R (A, B) { (1, 2) }\nrelation S (C) { (3) }");
  Database out = MustApply(DropOp{"R", "A"}, db);
  EXPECT_TRUE(Rel(out, "S").ContentsEqual(Rel(db, "S")));
}

TEST(OpPrintingTest, ScriptForms) {
  EXPECT_EQ(OpToScript(PromoteOp{"R", "A", "B"}), "promote(R, A, B)");
  EXPECT_EQ(OpToScript(DemoteOp{"R"}), "demote(R)");
  EXPECT_EQ(OpToScript(PartitionOp{"R", "A"}), "partition(R, A)");
  EXPECT_EQ(OpToScript(ProductOp{"R", "S"}), "product(R, S)");
  EXPECT_EQ(OpToScript(DropOp{"R", "A"}), "drop(R, A)");
  EXPECT_EQ(OpToScript(MergeOp{"R", "A"}), "merge(R, A)");
  EXPECT_EQ(OpToScript(RenameAttrOp{"R", "A", "B"}), "rename_att(R, A, B)");
  EXPECT_EQ(OpToScript(RenameRelOp{"R", "S"}), "rename_rel(R, S)");
  EXPECT_EQ(OpToScript(DereferenceOp{"R", "P", "O"}),
            "dereference(R, P, O)");
  EXPECT_EQ(OpToScript(ApplyFunctionOp{"R", "f", {"A", "B"}, "O"}),
            "apply(R, f, [A, B], O)");
}

TEST(OpPrintingTest, QuotesAwkwardNames) {
  EXPECT_EQ(OpToScript(DemoteOp{"has space"}), "demote(\"has space\")");
  EXPECT_EQ(OpToScript(DropOp{"R", "a,b"}), "drop(R, \"a,b\")");
}

TEST(OpPrintingTest, PrettyForms) {
  EXPECT_EQ(OpToPretty(PromoteOp{"R", "A", "B"}), "↑^A_B(R)");
  EXPECT_EQ(OpToPretty(DemoteOp{"R"}), "↓(R)");
  EXPECT_EQ(OpToPretty(RenameRelOp{"R", "S"}), "ρrel_R→S");
}

TEST(OpPrintingTest, NamesAndTargets) {
  EXPECT_EQ(OpName(MergeOp{"R", "A"}), "merge");
  EXPECT_EQ(OpTargetRelation(ProductOp{"L", "Rr"}), "L");
  EXPECT_EQ(OpTargetRelation(RenameRelOp{"From", "To"}), "From");
  EXPECT_EQ(ProductResultName(ProductOp{"L", "Rr"}), "L*Rr");
}

// Pins each operator's name everywhere it shows: the script (which
// checkpoints, the serve journal and saved mappings store), the parser,
// and the executor's counter and span names, which perfbench's
// SumCounters and trace_report read.
TEST(OpPrintingTest, EveryOperatorNameInScriptCountersAndSpans) {
  const Database db = Tdb(
      "relation R (A, B, P) { (x, y, A) }\n"
      "relation S (C) { (1) }");
  FunctionRegistry reg;
  ASSERT_TRUE(RegisterBuiltinFunctions(&reg).ok());
  const std::vector<std::pair<std::string, Op>> cases = {
      {"dereference", DereferenceOp{"R", "P", "O"}},
      {"promote", PromoteOp{"R", "A", "B"}},
      {"demote", DemoteOp{"R"}},
      {"partition", PartitionOp{"R", "A"}},
      {"product", ProductOp{"R", "S"}},
      {"drop", DropOp{"R", "B"}},
      {"merge", MergeOp{"R", "A"}},
      {"rename_att", RenameAttrOp{"R", "A", "Z"}},
      {"rename_rel", RenameRelOp{"R", "T"}},
      {"apply", ApplyFunctionOp{"R", "concat", {"A", "B"}, "O"}},
  };
  std::set<size_t> alternatives;
  for (const auto& [name, op] : cases) alternatives.insert(op.index());
  ASSERT_EQ(alternatives.size(), std::variant_size_v<Op>);

  obs::MetricRegistry metrics;
  obs::TraceSession trace;
  for (const auto& [name, op] : cases) {
    EXPECT_EQ(OpName(op), name);
    const std::string script = OpToScript(op);
    EXPECT_TRUE(script.starts_with(name + "(")) << script;
    Result<Op> back = ParseOp(script);
    ASSERT_TRUE(back.ok()) << script << ": " << back.status();
    EXPECT_EQ(*back, op) << script;
    EXPECT_TRUE(ApplyOp(op, db, &reg, &metrics, &trace).ok()) << script;
  }
  std::map<std::string, int> spans;
  for (const obs::TraceExportEvent& e : trace.Collect()) {
    if (e.phase == obs::TracePhase::kBegin) ++spans[e.name];
  }
  for (const auto& [name, op] : cases) {
    EXPECT_EQ(metrics.CounterValue("executor." + name + ".count"), 1u)
        << name;
    EXPECT_EQ(spans["op." + name], 1) << name;
  }
}

}  // namespace
}  // namespace tupelo
