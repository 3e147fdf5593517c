// The copy-on-write state substrate: structural fingerprints (order
// independence, content sensitivity, incremental maintenance), COW
// aliasing (mutations never leak into sharing copies), and the Expand
// transposition cache (hits, eviction, memory accounting).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/text.h"
#include "core/mapping_problem.h"
#include "fira/executor.h"
#include "heuristics/heuristic_factory.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/relation.h"
#include "search/search_types.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

Relation MakeRel(const char* name, std::vector<std::string> attrs) {
  Result<Relation> r = Relation::Create(name, std::move(attrs));
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Relation fingerprints
// ---------------------------------------------------------------------------

TEST(FingerprintTest, TupleInsertionOrderIrrelevant) {
  Relation a = MakeRel("R", {"x", "y"});
  ASSERT_TRUE(a.AddRow({"1", "2"}).ok());
  ASSERT_TRUE(a.AddRow({"3", "4"}).ok());
  Relation b = MakeRel("R", {"x", "y"});
  ASSERT_TRUE(b.AddRow({"3", "4"}).ok());
  ASSERT_TRUE(b.AddRow({"1", "2"}).ok());
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

TEST(FingerprintTest, AttributeOrderIrrelevant) {
  Relation a = MakeRel("R", {"x", "y"});
  ASSERT_TRUE(a.AddRow({"1", "2"}).ok());
  Relation b = MakeRel("R", {"y", "x"});
  ASSERT_TRUE(b.AddRow({"2", "1"}).ok());  // same tuple, columns permuted
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  EXPECT_TRUE(a.ContentsEqual(b));
}

TEST(FingerprintTest, SensitiveToEveryContentDimension) {
  Relation base = MakeRel("R", {"x", "y"});
  ASSERT_TRUE(base.AddRow({"1", "2"}).ok());
  Fp128 fp = base.Fingerprint();

  Relation renamed = base;
  renamed.set_name("S");
  EXPECT_FALSE(fp == renamed.Fingerprint());

  Relation edited = base;
  ASSERT_TRUE(edited.DropAttribute("y").ok());
  ASSERT_TRUE(edited.AddAttribute("y", Value("3")).ok());
  EXPECT_FALSE(fp == edited.Fingerprint());

  Relation widened = base;
  ASSERT_TRUE(widened.AddAttribute("z").ok());
  EXPECT_FALSE(fp == widened.Fingerprint());

  Relation attr_renamed = base;
  ASSERT_TRUE(attr_renamed.RenameAttribute("y", "z").ok());
  EXPECT_FALSE(fp == attr_renamed.Fingerprint());

  Relation grown = base;
  ASSERT_TRUE(grown.AddRow({"1", "2"}).ok());  // duplicate tuple: bag, not set
  EXPECT_FALSE(fp == grown.Fingerprint());
}

TEST(FingerprintTest, NullDistinctFromAtom) {
  Relation with_null = MakeRel("R", {"x"});
  ASSERT_TRUE(with_null.AddTuple(Tuple({Value::Null()})).ok());
  Relation with_atom = MakeRel("R", {"x"});
  ASSERT_TRUE(with_atom.AddTuple(Tuple({Value("null")})).ok());
  EXPECT_FALSE(with_null.Fingerprint() == with_atom.Fingerprint());
}

TEST(FingerprintTest, LanesAreIndependentlySeeded) {
  Relation rel = MakeRel("R", {"x", "y"});
  ASSERT_TRUE(rel.AddRow({"1", "2"}).ok());
  Fp128 fp = rel.Fingerprint();
  EXPECT_NE(fp.lo, fp.hi);
  EXPECT_NE(fp.lo, 0u);
  EXPECT_NE(fp.hi, 0u);
}

TEST(FingerprintTest, CachedAcrossCallsInvalidatedByMutation) {
  Relation rel = MakeRel("R", {"x"});
  ASSERT_TRUE(rel.AddRow({"1"}).ok());
  Fp128 before = rel.Fingerprint();
  EXPECT_EQ(before, rel.Fingerprint());  // cached path
  ASSERT_TRUE(rel.AddRow({"2"}).ok());
  EXPECT_FALSE(before == rel.Fingerprint());
}

// ---------------------------------------------------------------------------
// Database fingerprints: incremental == from-scratch
// ---------------------------------------------------------------------------

TEST(DatabaseFingerprintTest, IncrementalMatchesFromScratch) {
  Database db;
  Relation r = MakeRel("R", {"x"});
  ASSERT_TRUE(r.AddRow({"1"}).ok());
  Relation s = MakeRel("S", {"y"});
  ASSERT_TRUE(s.AddRow({"2"}).ok());
  ASSERT_TRUE(db.AddRelation(r).ok());
  ASSERT_TRUE(db.AddRelation(s).ok());
  (void)db.Fingerprint128();  // warm the cache so updates run incrementally

  Relation s2 = MakeRel("S", {"y"});
  ASSERT_TRUE(s2.AddRow({"3"}).ok());
  db.PutRelation(s2);
  ASSERT_TRUE(db.RemoveRelation("R").ok());

  Database fresh;
  ASSERT_TRUE(fresh.AddRelation(s2).ok());
  EXPECT_EQ(db.Fingerprint128(), fresh.Fingerprint128());
  EXPECT_EQ(db.Fingerprint(), fresh.Fingerprint());
  EXPECT_TRUE(db.ContentsEqual(fresh));
}

TEST(DatabaseFingerprintTest, RelationOrderAndPathIrrelevant) {
  Relation r = MakeRel("R", {"x"});
  ASSERT_TRUE(r.AddRow({"1"}).ok());
  Relation s = MakeRel("S", {"y"});
  ASSERT_TRUE(s.AddRow({"2"}).ok());

  Database ab;
  ASSERT_TRUE(ab.AddRelation(r).ok());
  ASSERT_TRUE(ab.AddRelation(s).ok());
  Database ba;
  ASSERT_TRUE(ba.AddRelation(s).ok());
  ASSERT_TRUE(ba.AddRelation(r).ok());
  EXPECT_EQ(ab.Fingerprint128(), ba.Fingerprint128());

  // Same contents through a different mutation history.
  Database history;
  Relation tmp = MakeRel("R", {"zz"});
  ASSERT_TRUE(history.AddRelation(tmp).ok());
  ASSERT_TRUE(history.AddRelation(s).ok());
  (void)history.Fingerprint128();
  history.PutRelation(r);
  EXPECT_EQ(history.Fingerprint128(), ab.Fingerprint128());
}

TEST(DatabaseFingerprintTest, RenameRelationUpdatesFingerprint) {
  Relation r = MakeRel("R", {"x"});
  ASSERT_TRUE(r.AddRow({"1"}).ok());
  Database db;
  ASSERT_TRUE(db.AddRelation(r).ok());
  (void)db.Fingerprint128();
  ASSERT_TRUE(db.RenameRelation("R", "S").ok());

  Relation renamed = r;
  renamed.set_name("S");
  Database fresh;
  ASSERT_TRUE(fresh.AddRelation(renamed).ok());
  EXPECT_EQ(db.Fingerprint128(), fresh.Fingerprint128());
}

// ---------------------------------------------------------------------------
// Copy-on-write aliasing
// ---------------------------------------------------------------------------

TEST(CowTest, CopiesShareRelationsUntilMutation) {
  Database parent;
  Relation r = MakeRel("R", {"x"});
  ASSERT_TRUE(r.AddRow({"1"}).ok());
  Relation s = MakeRel("S", {"y"});
  ASSERT_TRUE(parent.AddRelation(r).ok());
  ASSERT_TRUE(parent.AddRelation(s).ok());

  Database child = parent;
  EXPECT_EQ(parent.relations().at("R").get(), child.relations().at("R").get());
  EXPECT_EQ(parent.relations().at("S").get(), child.relations().at("S").get());

  Result<Relation*> mut = child.GetMutableRelation("R");
  ASSERT_TRUE(mut.ok());
  ASSERT_TRUE((*mut)->AddRow({"2"}).ok());

  // R diverged; S is still shared.
  EXPECT_NE(parent.relations().at("R").get(), child.relations().at("R").get());
  EXPECT_EQ(parent.relations().at("S").get(), child.relations().at("S").get());
  EXPECT_EQ(parent.GetRelation("R").value()->size(), 1u);
  EXPECT_EQ(child.GetRelation("R").value()->size(), 2u);
}

TEST(CowTest, UniquelyOwnedRelationMutatesInPlace) {
  Database db;
  Relation r = MakeRel("R", {"x"});
  ASSERT_TRUE(db.AddRelation(r).ok());
  const Relation* before = db.relations().at("R").get();
  Database::CowStats stats_before = Database::ThreadCowStats();
  Result<Relation*> mut = db.GetMutableRelation("R");
  ASSERT_TRUE(mut.ok());
  EXPECT_EQ(before, *mut);  // no clone: nobody else holds it
  EXPECT_EQ(Database::ThreadCowStats().cow_copies, stats_before.cow_copies);
}

TEST(CowTest, CowStatsCountSharingAndClones) {
  Database parent;
  Relation r = MakeRel("R", {"x"});
  Relation s = MakeRel("S", {"y"});
  ASSERT_TRUE(parent.AddRelation(r).ok());
  ASSERT_TRUE(parent.AddRelation(s).ok());

  Database::CowStats before = Database::ThreadCowStats();
  Database child = parent;  // shares both relations
  Database::CowStats after_copy = Database::ThreadCowStats();
  EXPECT_EQ(after_copy.relations_shared, before.relations_shared + 2);

  ASSERT_TRUE(child.GetMutableRelation("R").ok());  // clones the shared R
  Database::CowStats after_mut = Database::ThreadCowStats();
  EXPECT_EQ(after_mut.cow_copies, after_copy.cow_copies + 1);
}

TEST(CowTest, AssignmentCountsOnlyNewlySharedRelations) {
  Database parent;
  Relation r = MakeRel("R", {"x"});
  Relation s = MakeRel("S", {"y"});
  ASSERT_TRUE(parent.AddRelation(r).ok());
  ASSERT_TRUE(parent.AddRelation(s).ok());

  Database child;
  Database::CowStats before = Database::ThreadCowStats();
  child = parent;  // both relations newly shared
  EXPECT_EQ(Database::ThreadCowStats().relations_shared,
            before.relations_shared + 2);

  // Re-assigning the same source shares nothing new: child already holds
  // the identical relation pointers. The old accounting re-counted size()
  // on every assignment.
  before = Database::ThreadCowStats();
  child = parent;
  EXPECT_EQ(Database::ThreadCowStats().relations_shared,
            before.relations_shared);

  // After one relation diverges, re-assignment re-shares exactly that one.
  ASSERT_TRUE(child.GetMutableRelation("R").ok());
  before = Database::ThreadCowStats();
  child = parent;
  EXPECT_EQ(Database::ThreadCowStats().relations_shared,
            before.relations_shared + 1);
}

TEST(CowTest, EmptyDatabaseCopiesShareNothing) {
  Database empty;
  Database::CowStats before = Database::ThreadCowStats();
  Database copy = empty;  // copy ctor: no relations, nothing shared
  Database assigned;
  assigned = empty;  // operator=: same invariant
  EXPECT_EQ(Database::ThreadCowStats().relations_shared,
            before.relations_shared);
  EXPECT_EQ(Database::ThreadCowStats().cow_copies, before.cow_copies);
  EXPECT_TRUE(copy.relations().empty());
  EXPECT_TRUE(assigned.relations().empty());
}

TEST(CowTest, OperatorSuccessorNeverLeaksIntoParent) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(4);
  Database parent = pair.source;
  std::string parent_key = parent.CanonicalKey();
  Fp128 parent_fp = parent.Fingerprint128();

  Result<Database> next =
      ApplyOp(RenameAttrOp{"R", "A1", "B1"}, parent);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->GetRelation("R").value()->HasAttribute("B1"));

  // The parent is bit-for-bit untouched.
  EXPECT_TRUE(parent.GetRelation("R").value()->HasAttribute("A1"));
  EXPECT_FALSE(parent.GetRelation("R").value()->HasAttribute("B1"));
  EXPECT_EQ(parent.CanonicalKey(), parent_key);
  EXPECT_EQ(parent.Fingerprint128(), parent_fp);
  EXPECT_FALSE(parent.Fingerprint128() == next->Fingerprint128());
}

// ---------------------------------------------------------------------------
// Shared tuple bodies and relation maps
// ---------------------------------------------------------------------------

Relation TwoRowRelation() {
  Relation r = MakeRel("R", {"x", "y", "z"});
  EXPECT_TRUE(r.AddRow({"1", "2", "3"}).ok());
  EXPECT_TRUE(r.AddRow({"4", "5", "6"}).ok());
  return r;
}

TEST(SharingTest, RelationCopiesShareTheBodyThroughRenames) {
  Relation base = TwoRowRelation();
  Relation copy = base;
  EXPECT_EQ(copy.tuples().data(), base.tuples().data());
  ASSERT_TRUE(copy.RenameAttribute("x", "w").ok());
  copy.set_name("S");
  EXPECT_EQ(copy.tuples().data(), base.tuples().data());
  EXPECT_TRUE(base.HasAttribute("x"));
  EXPECT_EQ(base.name(), "R");
}

TEST(SharingTest, EveryTupleMutatorUnsharesTheBody) {
  const Relation base = TwoRowRelation();
  const std::string base_key = base.CanonicalKey();
  const std::vector<std::pair<const char*, std::function<Status(Relation&)>>>
      mutators = {
          {"AddRow", [](Relation& r) { return r.AddRow({"7", "8", "9"}); }},
          {"AddAttribute", [](Relation& r) { return r.AddAttribute("v"); }},
          {"DropAttribute", [](Relation& r) { return r.DropAttribute("y"); }},
          {"ReserveTuples",
           [](Relation& r) {
             r.ReserveTuples(100);
             return Status::OK();
           }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    Relation copy = base;
    ASSERT_TRUE(mutate(copy).ok());
    EXPECT_NE(copy.tuples().data(), base.tuples().data());
    EXPECT_EQ(base.CanonicalKey(), base_key);
    EXPECT_EQ(base.size(), 2u);
  }
}

TEST(SharingTest, MovedFromRelationReadsAsEmpty) {
  Relation base = TwoRowRelation();
  Relation moved = std::move(base);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_TRUE(base.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(base.tuples().empty());
}

TEST(SharingTest, DatabaseCopiesShareTheMapUntilEachMutator) {
  Database parent;
  ASSERT_TRUE(parent.AddRelation(TwoRowRelation()).ok());
  ASSERT_TRUE(parent.AddRelation(MakeRel("S", {"y"})).ok());
  const std::string parent_key = parent.CanonicalKey();
  const std::vector<std::pair<const char*, std::function<Status(Database&)>>>
      mutators = {
          {"AddRelation",
           [](Database& db) { return db.AddRelation(MakeRel("T", {"t"})); }},
          {"PutRelation",
           [](Database& db) {
             db.PutRelation(MakeRel("T", {"t"}));
             return Status::OK();
           }},
          {"RemoveRelation",
           [](Database& db) { return db.RemoveRelation("S"); }},
          {"RenameRelation",
           [](Database& db) { return db.RenameRelation("R", "Q"); }},
          {"GetMutableRelation",
           [](Database& db) { return db.GetMutableRelation("R").status(); }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    Database child = parent;
    EXPECT_EQ(&child.relations(), &parent.relations());
    ASSERT_TRUE(mutate(child).ok());
    EXPECT_NE(&child.relations(), &parent.relations());
    EXPECT_EQ(parent.CanonicalKey(), parent_key);
    EXPECT_EQ(parent.RelationNames(), (std::vector<std::string>{"R", "S"}));
    // The map is cloned, the relations in it are not: R is the parent's
    // until a relation-level mutation, and then it keeps the body.
    if (child.HasRelation("R")) {
      const Relation& mine = *child.GetRelation("R").value();
      const Relation& theirs = *parent.GetRelation("R").value();
      EXPECT_EQ(mine.tuples().data(), theirs.tuples().data());
      EXPECT_EQ(&mine == &theirs,
                std::string_view(name) != "GetMutableRelation");
    }
  }
}

TEST(SharingTest, FailedMutatorsLeaveTheMapShared) {
  Database parent;
  ASSERT_TRUE(parent.AddRelation(TwoRowRelation()).ok());
  Database child = parent;
  EXPECT_FALSE(child.AddRelation(MakeRel("R", {"a"})).ok());
  EXPECT_FALSE(child.RemoveRelation("Nope").ok());
  EXPECT_FALSE(child.RenameRelation("Nope", "Q").ok());
  EXPECT_FALSE(child.RenameRelation("R", "R").ok());
  EXPECT_FALSE(child.GetMutableRelation("Nope").ok());
  EXPECT_EQ(&child.relations(), &parent.relations());
}

// The attribute order behind CanonicalKey and Fingerprint is kept up to
// date by each attribute mutation instead of sorted per fingerprint.
// After every step of random rename/drop/add sequences it must list the
// attributes in sorted order, and the fingerprint must equal that of the
// same contents built from scratch.
TEST(SharingTest, MaintainedAttributeOrderMatchesAFreshSort) {
  std::mt19937 rng(20260);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> attrs;
    const int arity = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < arity; ++i) attrs.push_back("a" + std::to_string(i));
    std::shuffle(attrs.begin(), attrs.end(), rng);
    Relation rel = MakeRel("R", attrs);
    for (int row = 0; row < 3; ++row) {
      std::vector<std::string> atoms;
      for (int i = 0; i < arity; ++i) {
        atoms.push_back(std::to_string(rng() % 5));
      }
      ASSERT_TRUE(rel.AddRow(atoms).ok());
    }
    int fresh_name = 0;
    for (int step = 0; step < 25; ++step) {
      const Relation before = rel;  // shares rel's body while rel mutates
      const std::string before_key = before.CanonicalKey();
      const std::vector<std::string>& cur = rel.attributes();
      const std::string pick = cur[rng() % cur.size()];
      const std::string name = "n" + std::to_string(rng() % 40) + "_" +
                               std::to_string(fresh_name++);
      switch (rng() % 3) {
        case 0:
          ASSERT_TRUE(rel.RenameAttribute(pick, name).ok());
          break;
        case 1:
          if (cur.size() > 1) {
            ASSERT_TRUE(rel.DropAttribute(pick).ok());
          }
          break;
        default:
          ASSERT_TRUE(rel.AddAttribute(name, Value(std::to_string(step))).ok());
      }

      std::vector<std::string> sorted = rel.attributes();
      std::sort(sorted.begin(), sorted.end());
      std::string header = Quote("R") + "[";
      for (size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0) header += ",";
        header += Quote(sorted[i]);
      }
      header += "]{";
      EXPECT_TRUE(rel.CanonicalKey().starts_with(header))
          << rel.CanonicalKey() << " vs " << header;

      Relation scratch = MakeRel("R", rel.attributes());
      for (const Tuple& t : rel.tuples()) ASSERT_TRUE(scratch.AddTuple(t).ok());
      ASSERT_EQ(rel.Fingerprint(), scratch.Fingerprint());
      ASSERT_EQ(rel.CanonicalKey(), scratch.CanonicalKey());
      ASSERT_EQ(before.CanonicalKey(), before_key);
    }
  }
}

// ---------------------------------------------------------------------------
// Expand transposition cache
// ---------------------------------------------------------------------------

MappingProblem MakeProblem(const SyntheticMatchingPair& pair,
                           SuccessorConfig config = SuccessorConfig()) {
  return MappingProblem(
      pair.source, pair.target,
      MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs),
      nullptr, {}, config);
}

TEST(ExpandCacheTest, SecondExpandIsAHit) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem problem = MakeProblem(pair);
  obs::MetricRegistry metrics;
  problem.set_metrics(&metrics);

  auto first = problem.Expand(pair.source);
  auto second = problem.Expand(pair.source);
  EXPECT_EQ(metrics.GetCounter("expand.cache_misses").value(), 1u);
  EXPECT_EQ(metrics.GetCounter("expand.cache_hits").value(), 1u);

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].state.Fingerprint128(),
              second[i].state.Fingerprint128());
  }
  EXPECT_EQ(problem.AuxMemoryNodes(), first.size());
}

TEST(ExpandCacheTest, EvictsLeastRecentlyUsedAndCounts) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  SuccessorConfig config;
  config.expand_cache_capacity = 1;
  MappingProblem problem = MakeProblem(pair, config);
  obs::MetricRegistry metrics;
  problem.set_metrics(&metrics);

  auto succ = problem.Expand(pair.source);
  ASSERT_FALSE(succ.empty());
  size_t first_count = succ.size();
  EXPECT_EQ(problem.AuxMemoryNodes(), first_count);

  // Expanding a different state evicts the first entry (capacity 1).
  auto other = problem.Expand(succ[0].state);
  EXPECT_EQ(metrics.GetCounter("expand.cache_evictions").value(), 1u);
  EXPECT_EQ(problem.AuxMemoryNodes(), other.size());

  // The first state was evicted: expanding it again is a miss.
  problem.Expand(pair.source);
  EXPECT_EQ(metrics.GetCounter("expand.cache_hits").value(), 0u);
  EXPECT_EQ(metrics.GetCounter("expand.cache_misses").value(), 3u);
}

TEST(ExpandCacheTest, ZeroCapacityDisablesCache) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  SuccessorConfig config;
  config.expand_cache_capacity = 0;
  MappingProblem problem = MakeProblem(pair, config);
  obs::MetricRegistry metrics;
  problem.set_metrics(&metrics);

  problem.Expand(pair.source);
  problem.Expand(pair.source);
  EXPECT_EQ(problem.AuxMemoryNodes(), 0u);
  EXPECT_EQ(metrics.GetCounter("expand.cache_hits").value(), 0u);
  EXPECT_EQ(metrics.GetCounter("expand.cache_misses").value(), 0u);
}

TEST(ExpandCacheTest, ExpandReportsCowSharing) {
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem problem = MakeProblem(pair);
  obs::MetricRegistry metrics;
  problem.set_metrics(&metrics);
  problem.Expand(pair.source);
  // Every successor copied the state (sharing its relation) and then
  // cloned the one relation it mutated.
  EXPECT_GT(metrics.GetCounter("state.relations_shared").value(), 0u);
  EXPECT_GT(metrics.GetCounter("state.cow_copies").value(), 0u);
}

// The free-function detector: problems without AuxMemoryNodes() report 0,
// so toy test problems keep satisfying the duck type unchanged.
struct NoAuxProblem {};

TEST(AuxMemoryTest, DetectorDefaultsToZero) {
  NoAuxProblem toy;
  EXPECT_EQ(AuxMemoryNodes(toy), 0u);

  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(3);
  MappingProblem problem = MakeProblem(pair);
  problem.Expand(pair.source);
  EXPECT_GT(AuxMemoryNodes(problem), 0u);
}

}  // namespace
}  // namespace tupelo
