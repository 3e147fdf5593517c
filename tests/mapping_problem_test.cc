#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mapping_problem.h"
#include "fira/builtin_functions.h"
#include "heuristics/heuristic_factory.h"
#include "obs/metrics.h"
#include "relational/io.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

MappingProblem MakeProblem(Database source, Database target,
                           SuccessorConfig config = {},
                           const FunctionRegistry* registry = nullptr,
                           std::vector<SemanticCorrespondence> corrs = {}) {
  std::unique_ptr<Heuristic> h =
      MakeHeuristic(HeuristicKind::kH1, target, SearchAlgorithm::kRbfs);
  return MappingProblem(std::move(source), std::move(target), std::move(h),
                        registry, std::move(corrs), config);
}

bool HasOp(const std::vector<Op>& ops, const Op& want) {
  return std::find(ops.begin(), ops.end(), want) != ops.end();
}

// ---------------------------------------------------------------------------
// Goal test
// ---------------------------------------------------------------------------

TEST(MappingProblemTest, GoalIsContainment) {
  Database source = Tdb("relation R (A, X) { (1, 9) }");
  Database target = Tdb("relation R (A) { (1) }");
  MappingProblem p = MakeProblem(source, target);
  EXPECT_TRUE(p.IsGoal(source));  // extra column tolerated
  Database wrong = Tdb("relation R (A, X) { (2, 9) }");
  EXPECT_FALSE(p.IsGoal(wrong));
}

TEST(MappingProblemTest, StateKeyMatchesFingerprint) {
  Database source = Tdb("relation R (A) { (1) }");
  MappingProblem p = MakeProblem(source, source);
  EXPECT_EQ(p.StateKey(source), source.Fingerprint());
}

// ---------------------------------------------------------------------------
// Candidate generation with pruning ("obviously inapplicable" rules, §2.3)
// ---------------------------------------------------------------------------

TEST(CandidateTest, RenameAttrOnlyIntoMissingTargetAttrs) {
  Database source = Tdb("relation R (A, Keep) { (1, 2) }");
  Database target = Tdb("relation R (B, Keep) { (1, 2) }");
  MappingProblem p = MakeProblem(source, target);
  std::vector<Op> ops = p.CandidateOps(source);
  EXPECT_TRUE(HasOp(ops, RenameAttrOp{"R", "A", "B"}));
  // Renames only target missing target attributes; renaming into a
  // non-target name is never generated.
  for (const Op& op : ops) {
    if (const auto* r = std::get_if<RenameAttrOp>(&op)) {
      EXPECT_EQ(r->to, "B") << OpToScript(op);
    }
  }
  // Once every target attribute is present, the rename class disappears
  // (§2.3's "obviously inapplicable" rule).
  MappingProblem done = MakeProblem(target, target);
  for (const Op& op : done.CandidateOps(target)) {
    EXPECT_NE(OpName(op), "rename_att") << OpToScript(op);
  }
}

TEST(CandidateTest, RenameRelOnlyWhenNameNotInTarget) {
  Database source = Tdb("relation S (A) { (1) }");
  Database target = Tdb("relation T (A) { (1) }");
  MappingProblem p = MakeProblem(source, target);
  std::vector<Op> ops = p.CandidateOps(source);
  EXPECT_TRUE(HasOp(ops, RenameRelOp{"S", "T"}));
  // Source relation already named as in target: no rel renames at all.
  MappingProblem p2 = MakeProblem(target, target);
  for (const Op& op : p2.CandidateOps(target)) {
    EXPECT_EQ(OpName(op), "merge") << OpToScript(op);  // nothing else fires
  }
}

TEST(CandidateTest, DropOnlyNonTargetAttrs) {
  Database source = Tdb("relation R (A, B) { (1, 2) }");
  Database target = Tdb("relation R (A) { (1) }");
  MappingProblem p = MakeProblem(source, target);
  std::vector<Op> ops = p.CandidateOps(source);
  EXPECT_TRUE(HasOp(ops, DropOp{"R", "B"}));
  EXPECT_FALSE(HasOp(ops, DropOp{"R", "A"}));
}

TEST(CandidateTest, PromoteRequiresTargetAttributeEvidence) {
  // FlightsB -> FlightsA: Route's values (ATL29/ORD17) are target attrs.
  MappingProblem p = MakeProblem(MakeFlightsB(), MakeFlightsA());
  std::vector<Op> ops = p.CandidateOps(MakeFlightsB());
  EXPECT_TRUE(HasOp(ops, PromoteOp{"Prices", "Route", "Cost"}));
  // Carrier's values (AirEast...) are not target attribute names.
  EXPECT_FALSE(HasOp(ops, PromoteOp{"Prices", "Carrier", "Cost"}));
}

TEST(CandidateTest, PartitionRequiresTargetRelationEvidence) {
  // FlightsB -> FlightsC: Carrier values name target relations.
  MappingProblem p = MakeProblem(MakeFlightsB(), MakeFlightsC());
  std::vector<Op> ops = p.CandidateOps(MakeFlightsB());
  EXPECT_TRUE(HasOp(ops, PartitionOp{"Prices", "Carrier"}));
  EXPECT_FALSE(HasOp(ops, PartitionOp{"Prices", "Route"}));
}

TEST(CandidateTest, DemoteRequiresMetadataInTargetValues) {
  // FlightsA -> FlightsB: A's attrs ATL29/ORD17 appear among B's values.
  MappingProblem forward = MakeProblem(MakeFlightsA(), MakeFlightsB());
  EXPECT_TRUE(HasOp(forward.CandidateOps(MakeFlightsA()),
                    DemoteOp{"Flights"}));
  // FlightsB -> FlightsA: no attribute of B appears among A's values.
  MappingProblem backward = MakeProblem(MakeFlightsB(), MakeFlightsA());
  EXPECT_FALSE(HasOp(backward.CandidateOps(MakeFlightsB()),
                     DemoteOp{"Prices"}));
}

TEST(CandidateTest, MergeOnlyWhenNullsPresent) {
  Database no_nulls = Tdb("relation R (A, B) { (1, 2) (1, 3) }");
  Database target = Tdb("relation R (A, B) { (1, 2) }");
  MappingProblem p = MakeProblem(no_nulls, target);
  for (const Op& op : p.CandidateOps(no_nulls)) {
    EXPECT_NE(OpName(op), "merge");
  }
  Database with_nulls = Tdb("relation R (A, B) { (1, 2) (1, null) }");
  MappingProblem p2 = MakeProblem(with_nulls, target);
  EXPECT_TRUE(HasOp(p2.CandidateOps(with_nulls), MergeOp{"R", "A"}));
}

TEST(CandidateTest, LambdaOnlyWithInputsPresentAndTargetOutput) {
  FunctionRegistry reg;
  ASSERT_TRUE(RegisterBuiltinFunctions(&reg).ok());
  std::vector<SemanticCorrespondence> corrs = {
      {"add", {"Cost", "AgentFee"}, "TotalCost"}};
  MappingProblem p = MakeProblem(MakeFlightsB(), MakeFlightsC(), {}, &reg,
                                 corrs);
  std::vector<Op> ops = p.CandidateOps(MakeFlightsB());
  EXPECT_TRUE(HasOp(
      ops, ApplyFunctionOp{"Prices", "add", {"Cost", "AgentFee"},
                           "TotalCost"}));
  // Against a target without TotalCost, the λ is pruned.
  MappingProblem p2 = MakeProblem(MakeFlightsB(), MakeFlightsA(), {}, &reg,
                                  corrs);
  for (const Op& op : p2.CandidateOps(MakeFlightsB())) {
    EXPECT_NE(OpName(op), "apply");
  }
}

TEST(CandidateTest, ProductRequiresSpanningTargetRelation) {
  Database source = Tdb(
      "relation R (A) { (1) }\n"
      "relation S (B) { (2) }");
  Database spanning = Tdb("relation T (A, B) { (1, 2) }");
  MappingProblem p = MakeProblem(source, spanning);
  EXPECT_TRUE(HasOp(p.CandidateOps(source), ProductOp{"R", "S"}));
  Database nonspanning = Tdb("relation T (A) { (1) }");
  MappingProblem p2 = MakeProblem(source, nonspanning);
  EXPECT_FALSE(HasOp(p2.CandidateOps(source), ProductOp{"R", "S"}));
}

TEST(CandidateTest, DereferenceRequiresPointerEvidence) {
  Database source = Tdb("relation R (P, A) { (A, 1) }");
  Database target = Tdb("relation R (P, A, Out) { (A, 1, 1) }");
  MappingProblem p = MakeProblem(source, target);
  EXPECT_TRUE(HasOp(p.CandidateOps(source), DereferenceOp{"R", "P", "Out"}));
  // Without any value naming an attribute, no dereference.
  Database source2 = Tdb("relation R (P, A) { (zzz, 1) }");
  MappingProblem p2 = MakeProblem(source2, target);
  EXPECT_FALSE(
      HasOp(p2.CandidateOps(source2), DereferenceOp{"R", "P", "Out"}));
}

TEST(CandidateTest, UnprunedGeneratesStrictlyMore) {
  SuccessorConfig pruned;
  SuccessorConfig unpruned;
  unpruned.prune = false;
  MappingProblem p1 = MakeProblem(MakeFlightsB(), MakeFlightsA(), pruned);
  MappingProblem p2 = MakeProblem(MakeFlightsB(), MakeFlightsA(), unpruned);
  size_t pruned_count = p1.CandidateOps(MakeFlightsB()).size();
  size_t unpruned_count = p2.CandidateOps(MakeFlightsB()).size();
  EXPECT_GT(unpruned_count, pruned_count);
}

TEST(CandidateTest, DeterministicOrder) {
  MappingProblem p = MakeProblem(MakeFlightsB(), MakeFlightsA());
  std::vector<Op> ops1 = p.CandidateOps(MakeFlightsB());
  std::vector<Op> ops2 = p.CandidateOps(MakeFlightsB());
  EXPECT_EQ(ops1, ops2);
}

// ---------------------------------------------------------------------------
// Expand
// ---------------------------------------------------------------------------

TEST(ExpandTest, DropsFailedAndDuplicateStates) {
  Database source = Tdb("relation R (A1, A2) { (x, x) }");
  Database target = Tdb("relation R (B1) { (x) }");
  MappingProblem p = MakeProblem(source, target);
  auto successors = p.Expand(source);
  // No two successors share a fingerprint, and none equals the input.
  std::vector<uint64_t> keys;
  for (const auto& s : successors) {
    keys.push_back(p.StateKey(s.state));
    EXPECT_NE(p.StateKey(s.state), p.StateKey(source));
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(ExpandTest, SuccessorStatesMatchApplyOp) {
  Database source = MakeFlightsB();
  MappingProblem p = MakeProblem(source, MakeFlightsA());
  for (const auto& s : p.Expand(source)) {
    Result<Database> redo = ApplyOp(s.action, source, nullptr);
    ASSERT_TRUE(redo.ok()) << OpToScript(s.action);
    EXPECT_TRUE(redo->ContentsEqual(s.state)) << OpToScript(s.action);
  }
}

TEST(ExpandTest, BranchingProportionalToInstanceSizes) {
  // §2.3: branching factor proportional to |s| + |t|. Just sanity-check it
  // stays small on the flights instances.
  MappingProblem p = MakeProblem(MakeFlightsB(), MakeFlightsA());
  EXPECT_LE(p.Expand(MakeFlightsB()).size(), 32u);
  EXPECT_GE(p.Expand(MakeFlightsB()).size(), 3u);
}

// ---------------------------------------------------------------------------
// Estimate memo
// ---------------------------------------------------------------------------

TEST(EstimateMemoTest, FindsEveryValueAcrossGrowth) {
  EstimateMemo memo;
  EXPECT_FALSE(memo.Find(Fp128{}).has_value());
  // 5,000 keys grow the array from 64 slots through seven doublings. The
  // all-zero key and h = 0 are ordinary entries: occupancy is a flag.
  constexpr uint64_t kKeys = 5000;
  auto key = [](uint64_t i) { return Fp128{i == 0 ? 0 : Mix64(i), i}; };
  for (uint64_t i = 0; i < kKeys; ++i) {
    memo.Insert(key(i), static_cast<int>(i % 5));
  }
  EXPECT_EQ(memo.size(), kKeys);
  for (uint64_t i = 0; i < kKeys; ++i) {
    const std::optional<int> h = memo.Find(key(i));
    ASSERT_TRUE(h.has_value()) << i;
    EXPECT_EQ(*h, static_cast<int>(i % 5)) << i;
  }
  // Both lanes are the key: a lane shared with a stored key is a miss.
  EXPECT_FALSE(memo.Find(Fp128{Mix64(7), 8}).has_value());
  EXPECT_FALSE(memo.Find(key(kKeys)).has_value());
  // A key already present keeps its first value.
  memo.Insert(key(3), 99);
  EXPECT_EQ(memo.Find(key(3)), 3);
  EXPECT_EQ(memo.size(), kKeys);

  memo.Release();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_FALSE(memo.Find(key(0)).has_value());
  memo.Insert(key(1), 0);
  EXPECT_EQ(memo.Find(key(1)), 0);
}

// The sequential path memoizes and TrimCaches forgets; the batch path
// evaluates every state it is given and neither reads nor fills the memo.
TEST(EstimateMemoTest, TrimEmptiesAndTheBatchPathBypassesTheMemo) {
  Database source = MakeFlightsB();
  MappingProblem p = MakeProblem(source, MakeFlightsA());
  obs::MetricRegistry metrics;
  p.set_metrics(&metrics);
  auto evals = [&] { return metrics.CounterValue("heuristic.h1.evals"); };
  auto hits = [&] { return metrics.CounterValue("heuristic.cache_hits"); };
  const std::vector<MappingProblem::SuccessorT> succ = p.Expand(source);
  ASSERT_GE(succ.size(), 2u);

  const int h_source = p.EstimateCost(source);
  EXPECT_EQ(p.EstimateCost(source), h_source);
  EXPECT_EQ(evals(), 1u);
  EXPECT_EQ(hits(), 1u);
  p.TrimCaches();
  EXPECT_EQ(p.EstimateCost(source), h_source);
  EXPECT_EQ(evals(), 2u);
  EXPECT_EQ(hits(), 1u);

  const std::vector<const Database*> batch = {&source, &succ[0].state,
                                              &succ[1].state};
  std::vector<int> out(batch.size());
  p.EstimateCostBatch(batch, out);
  EXPECT_EQ(evals(), 5u);  // the memoized source is evaluated again
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(out[0], h_source);

  // The memo holds what it held before the batch: the source, and
  // neither successor.
  EXPECT_EQ(p.EstimateCost(source), h_source);
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(p.EstimateCost(succ[0].state), out[1]);
  EXPECT_EQ(p.EstimateCost(succ[1].state), out[2]);
  EXPECT_EQ(evals(), 7u);
  EXPECT_EQ(hits(), 2u);
}

}  // namespace
}  // namespace tupelo
