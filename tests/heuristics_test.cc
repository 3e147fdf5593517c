#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "heuristics/heuristic_factory.h"
#include "heuristics/levenshtein.h"
#include "heuristics/set_based.h"
#include "heuristics/term_vector.h"
#include "heuristics/composite.h"
#include "heuristics/vector_heuristics.h"
#include "relational/io.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

Database Tdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// ---------------------------------------------------------------------------
// Levenshtein distance
// ---------------------------------------------------------------------------

TEST(LevenshteinTest, BaseCases) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0u);
}

TEST(LevenshteinTest, ClassicExamples) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("intention", "execution"), 5u);
  EXPECT_EQ(LevenshteinDistance("abc", "acb"), 2u);
}

TEST(LevenshteinTest, SingleEdits) {
  EXPECT_EQ(LevenshteinDistance("abc", "abd"), 1u);  // substitute
  EXPECT_EQ(LevenshteinDistance("abc", "abcd"), 1u); // insert
  EXPECT_EQ(LevenshteinDistance("abc", "ab"), 1u);   // delete
}

TEST(LevenshteinTest, Symmetry) {
  EXPECT_EQ(LevenshteinDistance("database", "mapping"),
            LevenshteinDistance("mapping", "database"));
}

TEST(LevenshteinTest, TriangleInequalitySpotChecks) {
  const std::string a = "search", b = "state", c = "space";
  EXPECT_LE(LevenshteinDistance(a, c),
            LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
}

TEST(LevenshteinTest, BoundedByLongerLength) {
  EXPECT_LE(LevenshteinDistance("short", "muchlongerstring"),
            std::string("muchlongerstring").size());
}

// ---------------------------------------------------------------------------
// Term vectors & database string view
// ---------------------------------------------------------------------------

TEST(TermVectorTest, CountsTriples) {
  Database db = Tdb("relation R (A, B) { (1, 2) (1, 3) }");
  TermVector tv = TermVector::FromDatabase(db);
  // Triples: (R,A,1)x2, (R,B,2), (R,B,3).
  EXPECT_EQ(tv.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(tv.Norm() * tv.Norm(), 4.0 + 1.0 + 1.0);
}

TEST(TermVectorTest, EmptyDatabase) {
  TermVector tv = TermVector::FromDatabase(Database());
  EXPECT_EQ(tv.nonzeros(), 0u);
  EXPECT_DOUBLE_EQ(tv.Norm(), 0.0);
}

TEST(TermVectorTest, EuclideanDistanceIdentity) {
  Database db = MakeFlightsB();
  TermVector x = TermVector::FromDatabase(db);
  EXPECT_DOUBLE_EQ(TermVector::EuclideanDistance(x, x), 0.0);
}

TEST(TermVectorTest, EuclideanDistanceDisjoint) {
  TermVector x = TermVector::FromDatabase(Tdb("relation R (A) { (1) }"));
  TermVector y = TermVector::FromDatabase(Tdb("relation S (B) { (2) }"));
  EXPECT_DOUBLE_EQ(TermVector::EuclideanDistance(x, y), std::sqrt(2.0));
}

TEST(TermVectorTest, EuclideanSymmetry) {
  TermVector x = TermVector::FromDatabase(MakeFlightsA());
  TermVector y = TermVector::FromDatabase(MakeFlightsB());
  EXPECT_DOUBLE_EQ(TermVector::EuclideanDistance(x, y),
                   TermVector::EuclideanDistance(y, x));
}

TEST(TermVectorTest, CosineSimilarityRange) {
  TermVector x = TermVector::FromDatabase(MakeFlightsA());
  TermVector y = TermVector::FromDatabase(MakeFlightsB());
  double sim = TermVector::CosineSimilarity(x, y);
  EXPECT_GE(sim, 0.0);
  EXPECT_LE(sim, 1.0);
  EXPECT_DOUBLE_EQ(TermVector::CosineSimilarity(x, x), 1.0);
}

TEST(TermVectorTest, CosineZeroVectorIsZero) {
  TermVector x = TermVector::FromDatabase(Database());
  TermVector y = TermVector::FromDatabase(MakeFlightsA());
  EXPECT_DOUBLE_EQ(TermVector::CosineSimilarity(x, y), 0.0);
  EXPECT_DOUBLE_EQ(TermVector::CosineSimilarity(x, x), 0.0);
}

TEST(TermVectorTest, DisjointVectorsHaveZeroCosine) {
  TermVector x = TermVector::FromDatabase(Tdb("relation R (A) { (1) }"));
  TermVector y = TermVector::FromDatabase(Tdb("relation S (B) { (2) }"));
  EXPECT_DOUBLE_EQ(TermVector::CosineSimilarity(x, y), 0.0);
  EXPECT_DOUBLE_EQ(TermVector::NormalizedEuclideanDistance(x, y),
                   std::sqrt(2.0));
}

TEST(TermVectorTest, NormalizedDistanceScaleInvariant) {
  // Doubling every tuple leaves the normalized vector unchanged.
  Database db1 = Tdb("relation R (A) { (1) (2) }");
  Database db2 = Tdb("relation R (A) { (1) (2) (1) (2) }");
  TermVector x = TermVector::FromDatabase(db1);
  TermVector y = TermVector::FromDatabase(db2);
  EXPECT_NEAR(TermVector::NormalizedEuclideanDistance(x, y), 0.0, 1e-12);
  EXPECT_NEAR(TermVector::CosineSimilarity(x, y), 1.0, 1e-12);
  EXPECT_GT(TermVector::EuclideanDistance(x, y), 0.0);
}

TEST(DatabaseStringTest, SortedAndNullMarked) {
  Database db = Tdb("relation R (B, A) { (2, null) }");
  // Rows: "RB2" and "RA⊥"; sorted lexicographically: RA⊥ < RB2.
  EXPECT_EQ(DatabaseToTnfString(db), "RA⊥RB2");
}

TEST(DatabaseStringTest, IndependentOfTupleOrder) {
  Database a = Tdb("relation R (A) { (1) (2) }");
  Database b = Tdb("relation R (A) { (2) (1) }");
  EXPECT_EQ(DatabaseToTnfString(a), DatabaseToTnfString(b));
}

// DatabaseToTnfString's definition written out plainly, one std::string
// per row: the reference the one-buffer encoder must match byte for byte.
std::string TnfStringReference(const Database& db) {
  std::vector<std::string> rows;
  for (const auto& [rname, relp] : db.relations()) {
    for (const Tuple& t : relp->tuples()) {
      for (size_t i = 0; i < relp->arity(); ++i) {
        rows.push_back(rname + relp->attributes()[i] +
                       (t[i].is_null() ? std::string("⊥") : t[i].atom()));
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& row : rows) out += row;
  return out;
}

TEST(DatabaseStringTest, MatchesPerRowReferenceOnRandomDatabases) {
  // Names and atoms that are prefixes of one another (so rows of
  // different relations can coincide), multibyte UTF-8, bytes above 0x7f
  // and the null marker spelled as an atom.
  const std::vector<std::string> rels = {"R", "RS", "S", "Ü"};
  const std::vector<std::string> atts = {"A", "SA", "B", "é"};
  const std::vector<std::string> atoms = {"1", "10", "a", "ab", "é",
                                          "日本", "⊥", "\xff", "z"};
  std::mt19937 rng(2006);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  for (int trial = 0; trial < 300; ++trial) {
    Database db;
    const size_t relations = pick(4);  // 0..3; an empty database too
    for (size_t r = 0; r < relations; ++r) {
      std::vector<std::string> attrs;
      const size_t arity = 1 + pick(atts.size());
      for (size_t a = 0; a < arity; ++a) attrs.push_back(atts[a]);
      std::shuffle(attrs.begin(), attrs.end(), rng);
      Relation rel = Relation::Create(rels[pick(rels.size())], attrs).value();
      const size_t rows = pick(5);  // 0..4; empty relations too
      for (size_t i = 0; i < rows; ++i) {
        if (i > 0 && pick(4) == 0) {  // a duplicate row
          ASSERT_TRUE(rel.AddTuple(rel.tuples().back()).ok());
          continue;
        }
        std::vector<Value> cells;
        for (size_t j = 0; j < arity; ++j) {
          cells.push_back(pick(4) == 0 ? Value::Null()
                                       : Value(atoms[pick(atoms.size())]));
        }
        ASSERT_TRUE(rel.AddTuple(Tuple(std::move(cells))).ok());
      }
      db.PutRelation(std::move(rel));  // a repeated name replaces
    }
    EXPECT_EQ(DatabaseToTnfString(db), TnfStringReference(db))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Target symbol index and h1/h2/h3
// ---------------------------------------------------------------------------

using Column = TargetSymbolIndex::Column;

TEST(TargetSymbolIndexTest, CollectsAllThreeCategories) {
  Database db = Tdb("relation R (A, B) { (1, null) }\nrelation S (C) { }");
  TargetSymbolIndex index(db);
  EXPECT_EQ(index.symbols(Column::kRel),
            (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(index.symbols(Column::kAtt),
            (std::vector<std::string>{"A", "B", "C"}));
  // Nulls are excluded.
  EXPECT_EQ(index.symbols(Column::kValue), (std::vector<std::string>{"1"}));
  EXPECT_TRUE(index.Contains(Column::kAtt, "B"));
  EXPECT_FALSE(index.Contains(Column::kValue, "B"));
  EXPECT_FALSE(index.Contains(Column::kRel, "Z"));
  EXPECT_EQ(index.MissingCount(index.Collect(db)), 0);
  EXPECT_FALSE(index.AnyAttributeMissing(db));
  EXPECT_TRUE(index.AnyAttributeMissing(Tdb("relation R (A, B) { }")));
}

// The std::set definition of h1 and h2 that TargetSymbolIndex replaced,
// kept as the reference the bitsets are checked against.
struct ReferenceSymbols {
  std::set<std::string> rels;
  std::set<std::string> atts;
  std::set<std::string> values;

  explicit ReferenceSymbols(const Database& db) {
    for (const auto& [rname, relp] : db.relations()) {
      rels.insert(rname);
      for (const std::string& attr : relp->attributes()) atts.insert(attr);
      for (const Tuple& t : relp->tuples()) {
        for (const Value& v : t.values()) {
          if (!v.is_null()) values.insert(v.atom());
        }
      }
    }
  }
};

int ReferenceDifference(const std::set<std::string>& a,
                        const std::set<std::string>& b) {
  int n = 0;
  for (const std::string& s : a) n += b.contains(s) ? 0 : 1;
  return n;
}

int ReferenceIntersection(const std::set<std::string>& a,
                          const std::set<std::string>& b) {
  int n = 0;
  for (const std::string& s : a) n += b.contains(s) ? 1 : 0;
  return n;
}

int ReferenceH1(const ReferenceSymbols& t, const ReferenceSymbols& x) {
  return ReferenceDifference(t.rels, x.rels) +
         ReferenceDifference(t.atts, x.atts) +
         ReferenceDifference(t.values, x.values);
}

int ReferenceH2(const ReferenceSymbols& t, const ReferenceSymbols& x) {
  return ReferenceIntersection(t.rels, x.atts) +
         ReferenceIntersection(t.rels, x.values) +
         ReferenceIntersection(t.atts, x.rels) +
         ReferenceIntersection(t.atts, x.values) +
         ReferenceIntersection(t.values, x.rels) +
         ReferenceIntersection(t.values, x.atts);
}

size_t DistinctSymbols(const Database& db) {
  ReferenceSymbols s(db);
  std::set<std::string> all = s.rels;
  all.insert(s.atts.begin(), s.atts.end());
  all.insert(s.values.begin(), s.values.end());
  return all.size();
}

// Random databases whose relation names, attributes and values all come
// from one alphabet "s0".."s<n-1>", so a symbol often sits in several TNF
// columns. Cells are null about a quarter of the time, and some relations
// have no tuples.
class SymbolDbGenerator {
 public:
  SymbolDbGenerator(uint32_t seed, size_t alphabet)
      : rng_(seed), alphabet_(alphabet) {}

  std::string Symbol() {
    std::string symbol = std::to_string(Pick(alphabet_));
    symbol.insert(symbol.begin(), 's');
    return symbol;
  }

  Database Random() {
    Database db;
    const size_t relations = Pick(4);  // 0..3
    for (size_t r = 0; r < relations; ++r) {
      std::vector<std::string> attrs;
      const size_t arity = 1 + Pick(4);
      while (attrs.size() < arity) {
        std::string a = Symbol();
        if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
          attrs.push_back(std::move(a));
        }
      }
      Relation rel = Relation::Create(Symbol(), attrs).value();
      const size_t rows = Pick(4);  // 0..3
      for (size_t i = 0; i < rows; ++i) {
        std::vector<Value> cells;
        for (size_t j = 0; j < arity; ++j) {
          cells.push_back(Pick(4) == 0 ? Value::Null() : Value(Symbol()));
        }
        EXPECT_TRUE(rel.AddTuple(Tuple(std::move(cells))).ok());
      }
      db.PutRelation(std::move(rel));  // a repeated name replaces
    }
    return db;
  }

  // A database of exactly `distinct` distinct symbols, grown one symbol
  // at a time: a new attribute (existing rows get null), a new null row,
  // or a value written into a null cell.
  Database WithDistinct(size_t distinct) {
    struct Spec {
      std::string name;
      std::vector<std::string> attrs;
      std::vector<std::vector<std::string>> rows;  // "" is null
    };
    std::vector<Spec> specs;
    std::set<std::string> seen;
    while (specs.size() < 3 && seen.size() < distinct) {
      std::string name = Symbol();
      if (std::any_of(specs.begin(), specs.end(),
                      [&](const Spec& s) { return s.name == name; })) {
        continue;
      }
      seen.insert(name);
      specs.push_back(Spec{name, {}, {}});
    }
    for (int step = 0; seen.size() < distinct && step < 100000; ++step) {
      Spec& spec = specs[Pick(specs.size())];
      const std::string sym = Symbol();
      const size_t kind = spec.attrs.empty() ? 0 : Pick(3);
      if (kind == 0) {
        if (std::find(spec.attrs.begin(), spec.attrs.end(), sym) !=
            spec.attrs.end()) {
          continue;
        }
        spec.attrs.push_back(sym);
        for (auto& row : spec.rows) row.emplace_back();
        seen.insert(sym);
      } else if (kind == 1 && spec.rows.size() < 6) {
        spec.rows.emplace_back(spec.attrs.size());
      } else if (!spec.rows.empty()) {
        auto& row = spec.rows[Pick(spec.rows.size())];
        std::string& cell = row[Pick(row.size())];
        if (cell.empty()) {
          cell = sym;
          seen.insert(sym);
        }
      }
    }
    Database db;
    for (const Spec& spec : specs) {
      if (spec.attrs.empty()) continue;
      Relation rel = Relation::Create(spec.name, spec.attrs).value();
      for (const auto& row : spec.rows) {
        std::vector<Value> cells;
        for (const std::string& cell : row) {
          cells.push_back(cell.empty() ? Value::Null() : Value(cell));
        }
        EXPECT_TRUE(rel.AddTuple(Tuple(std::move(cells))).ok());
      }
      EXPECT_TRUE(db.AddRelation(std::move(rel)).ok());
    }
    return db;
  }

 private:
  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::mt19937 rng_;
  size_t alphabet_;
};

// Checks H1/H2/H3 and the index against the reference on every state.
// Returns the number of (target, state) pairs compared.
int CompareWithReference(const Database& target,
                         const std::vector<Database>& states) {
  const ReferenceSymbols t(target);
  H1Heuristic h1(target);
  H2Heuristic h2(target);
  H3Heuristic h3(target);
  TargetSymbolIndex index(target);
  EXPECT_EQ(index.symbols(Column::kRel),
            std::vector<std::string>(t.rels.begin(), t.rels.end()));
  EXPECT_EQ(index.symbols(Column::kAtt),
            std::vector<std::string>(t.atts.begin(), t.atts.end()));
  EXPECT_EQ(index.symbols(Column::kValue),
            std::vector<std::string>(t.values.begin(), t.values.end()));
  int compared = 0;
  for (const Database& state : states) {
    const ReferenceSymbols x(state);
    const int want1 = ReferenceH1(t, x);
    const int want2 = ReferenceH2(t, x);
    EXPECT_EQ(h1.Estimate(state), want1)
        << target.ToString() << "\n" << state.ToString();
    EXPECT_EQ(h2.Estimate(state), want2)
        << target.ToString() << "\n" << state.ToString();
    EXPECT_EQ(h3.Estimate(state), std::max(want1, want2));
    EXPECT_EQ(index.AnyAttributeMissing(state),
              ReferenceDifference(t.atts, x.atts) > 0);
    for (const std::string& s : x.rels) {
      EXPECT_EQ(index.Contains(Column::kAtt, s), t.atts.contains(s));
      EXPECT_EQ(index.Contains(Column::kValue, s), t.values.contains(s));
    }
    for (const std::string& s : x.values) {
      EXPECT_EQ(index.Contains(Column::kRel, s), t.rels.contains(s));
    }
    ++compared;
  }
  return compared;
}

TEST(TargetSymbolIndexTest, MatchesSetReferenceOnRandomPairs) {
  int compared = 0;
  // Small targets over a ten-symbol alphabet: heavy cross-column sharing,
  // empty targets and empty states included.
  SymbolDbGenerator small(2006, 10);
  for (int i = 0; i < 150; ++i) {
    const Database target = small.Random();
    std::vector<Database> states = {Database(), target};
    for (int k = 0; k < 4; ++k) states.push_back(small.Random());
    compared += CompareWithReference(target, states);
  }
  // Targets at and around the 64-bit word boundaries. Synthetic n=32 has
  // 65 distinct symbols.
  for (size_t distinct : {63, 64, 65, 130}) {
    SymbolDbGenerator wide(static_cast<uint32_t>(distinct), distinct + 10);
    const Database target = wide.WithDistinct(distinct);
    ASSERT_EQ(DistinctSymbols(target), distinct);
    std::vector<Database> states = {Database(), target};
    for (int k = 0; k < 60; ++k) states.push_back(wide.Random());
    for (int k = 0; k < 40; ++k) {
      states.push_back(wide.WithDistinct(distinct / 2 + k));
    }
    compared += CompareWithReference(target, states);
  }
  EXPECT_GE(compared, 1000);
}

TEST(SetBasedTest, H0IsAlwaysZero) {
  BlindHeuristic h0;
  EXPECT_EQ(h0.Estimate(Database()), 0);
  EXPECT_EQ(h0.Estimate(MakeFlightsB()), 0);
  EXPECT_EQ(h0.name(), "h0");
}

TEST(SetBasedTest, H1CountsMissingSymbols) {
  Database target = Tdb("relation T (X, Y) { (1, 2) }");
  H1Heuristic h1(target);
  // State missing relation T, attrs X,Y, and value 2.
  Database state = Tdb("relation R (A) { (1) }");
  EXPECT_EQ(h1.Estimate(state), 1 + 2 + 1);
  EXPECT_EQ(h1.Estimate(target), 0);
}

TEST(SetBasedTest, H1IgnoresExtraStateSymbols) {
  Database target = Tdb("relation T (X) { (1) }");
  H1Heuristic h1(target);
  Database state = Tdb("relation T (X, Z1, Z2) { (1, junk1, junk2) }");
  EXPECT_EQ(h1.Estimate(state), 0);
}

TEST(SetBasedTest, H2CountsMisplacedSymbols) {
  // Target's attribute names appear as state *values*: two promotions
  // needed (h2 evidence).
  Database target = Tdb("relation T (ATL29, ORD17) { (100, 110) }");
  H2Heuristic h2(target);
  Database state = Tdb("relation T (Route) { (ATL29) (ORD17) }");
  EXPECT_EQ(h2.Estimate(state), 2);  // πATT(t) ∩ πVALUE(x)
}

TEST(SetBasedTest, H2SeesRelationNamesInValues) {
  // FlightsB's Carrier values are FlightsC's relation names.
  H2Heuristic h2(MakeFlightsC());
  // πREL(t)∩πVALUE(x): AirEast, JetWest → 2; πATT(t)∩πATT? not counted;
  // πATT(t)={Route,BaseCost,TotalCost} ∩ πVALUE/REL(x) = 0;
  // πVALUE(t) ∩ πREL(x)=∅, ∩ πATT(x)=∅.
  EXPECT_EQ(h2.Estimate(MakeFlightsB()), 2);
}

TEST(SetBasedTest, H2ZeroWhenNoCrossPlacement) {
  Database target = Tdb("relation T (X) { (1) }");
  H2Heuristic h2(target);
  EXPECT_EQ(h2.Estimate(target), 0);
}

TEST(SetBasedTest, H3IsMax) {
  Database target = Tdb("relation T (ATL29) { (100) }");
  Database state = Tdb("relation R (Route) { (ATL29) }");
  H1Heuristic h1(target);
  H2Heuristic h2(target);
  H3Heuristic h3(target);
  EXPECT_EQ(h3.Estimate(state),
            std::max(h1.Estimate(state), h2.Estimate(state)));
  // And on a state where h1 dominates:
  Database empty_state = Tdb("relation Z (Q) { }");
  EXPECT_EQ(h3.Estimate(empty_state),
            std::max(h1.Estimate(empty_state), h2.Estimate(empty_state)));
}

// ---------------------------------------------------------------------------
// Scaled vector/string heuristics
// ---------------------------------------------------------------------------

TEST(VectorHeuristicsTest, ZeroAtTarget) {
  Database target = MakeFlightsB();
  EXPECT_EQ(LevenshteinHeuristic(target, 11).Estimate(target), 0);
  EXPECT_EQ(EuclideanHeuristic(target).Estimate(target), 0);
  EXPECT_EQ(NormalizedEuclideanHeuristic(target, 7).Estimate(target), 0);
  EXPECT_EQ(CosineHeuristic(target, 5).Estimate(target), 0);
}

TEST(VectorHeuristicsTest, LevenshteinBoundedByK) {
  Database target = Tdb("relation T (X) { (1) }");
  Database far = Tdb("relation ZZZZ (QQQQ) { (9999) }");
  LevenshteinHeuristic h(target, 11);
  int est = h.Estimate(far);
  EXPECT_GE(est, 1);
  EXPECT_LE(est, 11);
}

TEST(VectorHeuristicsTest, CosineBoundedByK) {
  Database target = Tdb("relation T (X) { (1) }");
  Database far = Tdb("relation Z (Q) { (9) }");
  CosineHeuristic h(target, 24);
  EXPECT_EQ(h.Estimate(far), 24);  // disjoint => dissimilarity 1
}

TEST(VectorHeuristicsTest, NormalizedEuclideanBoundedByK) {
  Database target = Tdb("relation T (X) { (1) }");
  Database far = Tdb("relation Z (Q) { (9) }");
  NormalizedEuclideanHeuristic h(target, 20);
  EXPECT_EQ(h.Estimate(far), 20);  // orthogonal unit vectors, rescaled
}

TEST(VectorHeuristicsTest, EuclideanGrowsWithDivergence) {
  Database target = MakeFlightsA();
  EuclideanHeuristic h(target);
  Database near = MakeFlightsA();
  Result<Database> renamed = [&]() {
    Database db = MakeFlightsA();
    Relation* r = db.GetMutableRelation("Flights").value();
    EXPECT_TRUE(r->RenameAttribute("Fee", "XFee").ok());
    return Result<Database>(db);
  }();
  EXPECT_EQ(h.Estimate(near), 0);
  EXPECT_GT(h.Estimate(*renamed), 0);
}

TEST(VectorHeuristicsTest, MonotoneUnderProgress) {
  // Renaming one attribute toward the target should not increase any of
  // the scaled heuristics.
  Database source = Tdb("relation R (A1, A2) { (x, y) }");
  Database target = Tdb("relation R (B1, B2) { (x, y) }");
  Database halfway = Tdb("relation R (B1, A2) { (x, y) }");
  for (double k : {5.0, 24.0}) {
    CosineHeuristic h(target, k);
    EXPECT_LE(h.Estimate(halfway), h.Estimate(source));
  }
  EuclideanHeuristic he(target);
  EXPECT_LE(he.Estimate(halfway), he.Estimate(source));
  // Note: the Levenshtein heuristic is intentionally not asserted monotone
  // here — sorting the TNF row strings means one rename can reorder rows
  // and lengthen the edit script (a real property of the paper's hL).
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(FactoryTest, NamesRoundTrip) {
  for (HeuristicKind kind : AllHeuristicKinds()) {
    auto parsed = ParseHeuristicKind(HeuristicKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseHeuristicKind("bogus").has_value());
}

TEST(FactoryTest, AlgorithmNamesRoundTrip) {
  for (SearchAlgorithm algo : {SearchAlgorithm::kIda, SearchAlgorithm::kRbfs,
                               SearchAlgorithm::kAStar}) {
    auto parsed = ParseSearchAlgorithm(SearchAlgorithmName(algo));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, algo);
  }
  EXPECT_FALSE(ParseSearchAlgorithm("dfs").has_value());
}

TEST(FactoryTest, PaperScaleConstants) {
  // §5 Experimental Setup table.
  EXPECT_DOUBLE_EQ(
      DefaultScale(HeuristicKind::kEuclideanNorm, SearchAlgorithm::kIda), 7);
  EXPECT_DOUBLE_EQ(
      DefaultScale(HeuristicKind::kCosine, SearchAlgorithm::kIda), 5);
  EXPECT_DOUBLE_EQ(
      DefaultScale(HeuristicKind::kLevenshtein, SearchAlgorithm::kIda), 11);
  EXPECT_DOUBLE_EQ(
      DefaultScale(HeuristicKind::kEuclideanNorm, SearchAlgorithm::kRbfs),
      20);
  EXPECT_DOUBLE_EQ(
      DefaultScale(HeuristicKind::kCosine, SearchAlgorithm::kRbfs), 24);
  EXPECT_DOUBLE_EQ(
      DefaultScale(HeuristicKind::kLevenshtein, SearchAlgorithm::kRbfs), 15);
  EXPECT_DOUBLE_EQ(DefaultScale(HeuristicKind::kH1, SearchAlgorithm::kIda),
                   1);
}

TEST(FactoryTest, UsesScaleFlag) {
  EXPECT_TRUE(HeuristicUsesScale(HeuristicKind::kCosine));
  EXPECT_TRUE(HeuristicUsesScale(HeuristicKind::kLevenshtein));
  EXPECT_TRUE(HeuristicUsesScale(HeuristicKind::kEuclideanNorm));
  EXPECT_FALSE(HeuristicUsesScale(HeuristicKind::kH1));
  EXPECT_FALSE(HeuristicUsesScale(HeuristicKind::kEuclidean));
}

// Every factory-built heuristic is 0 at the target and ≥ 0 elsewhere.
class FactoryHeuristicProperty : public testing::TestWithParam<HeuristicKind> {
};

TEST_P(FactoryHeuristicProperty, ZeroAtTargetNonNegativeElsewhere) {
  Database target = MakeFlightsA();
  std::unique_ptr<Heuristic> h =
      MakeHeuristic(GetParam(), target, SearchAlgorithm::kRbfs);
  ASSERT_NE(h, nullptr);
  if (GetParam() != HeuristicKind::kH2) {
    // h2 measures misplacement, which is zero at this target too.
    EXPECT_EQ(h->Estimate(target), 0) << h->name();
  }
  for (const Database& state :
       {MakeFlightsB(), MakeFlightsC(), Database()}) {
    EXPECT_GE(h->Estimate(state), 0) << h->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FactoryHeuristicProperty,
                         testing::ValuesIn(AllHeuristicKinds()),
                         [](const auto& info) {
                           return std::string(HeuristicKindName(info.param));
                         });

// ---------------------------------------------------------------------------
// Jaccard (extension heuristic)
// ---------------------------------------------------------------------------

TEST(JaccardTest, SimilarityBounds) {
  TermVector x = TermVector::FromDatabase(MakeFlightsA());
  TermVector y = TermVector::FromDatabase(MakeFlightsB());
  double j = TermVector::JaccardSimilarity(x, y);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);
  EXPECT_DOUBLE_EQ(TermVector::JaccardSimilarity(x, x), 1.0);
  TermVector empty;
  EXPECT_DOUBLE_EQ(TermVector::JaccardSimilarity(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(TermVector::JaccardSimilarity(empty, x), 0.0);
}

TEST(JaccardTest, MultisetSemantics) {
  // x = {t:2}, y = {t:1}: J = 1/2.
  Database two = Tdb("relation R (A) { (v) (v) }");
  Database one = Tdb("relation R (A) { (v) }");
  TermVector x = TermVector::FromDatabase(two);
  TermVector y = TermVector::FromDatabase(one);
  EXPECT_DOUBLE_EQ(TermVector::JaccardSimilarity(x, y), 0.5);
}

TEST(JaccardTest, HeuristicZeroAtTargetAndScaled) {
  Database target = MakeFlightsB();
  JaccardHeuristic h(target, 24);
  EXPECT_EQ(h.Estimate(target), 0);
  Database disjoint = Tdb("relation Z (Q) { (zzz) }");
  EXPECT_EQ(h.Estimate(disjoint), 24);
  EXPECT_EQ(h.name(), "jaccard");
}

TEST(JaccardTest, FactoryIntegration) {
  auto parsed = ParseHeuristicKind("jaccard");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, HeuristicKind::kJaccard);
  EXPECT_TRUE(HeuristicUsesScale(HeuristicKind::kJaccard));
  // Not part of the paper's figure set.
  for (HeuristicKind kind : AllHeuristicKinds()) {
    EXPECT_NE(kind, HeuristicKind::kJaccard);
  }
  auto h = MakeHeuristic(HeuristicKind::kJaccard, MakeFlightsA(),
                         SearchAlgorithm::kRbfs);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Estimate(MakeFlightsA()), 0);
}

TEST(JaccardTest, SensitiveToUnsharedMassUnlikeCosine) {
  // Adding many copies of an already-shared tuple barely changes cosine
  // (angle ~same) but dilutes Jaccard.
  Database target = Tdb("relation R (A) { (v) }");
  Database inflated = Tdb("relation R (A) { (v) (v) (v) (v) (v) (v) }");
  CosineHeuristic cosine(target, 24);
  JaccardHeuristic jaccard(target, 24);
  EXPECT_EQ(cosine.Estimate(inflated), 0);   // same direction
  EXPECT_GT(jaccard.Estimate(inflated), 0);  // mass mismatch visible
}

// ---------------------------------------------------------------------------
// Column-pairs heuristic (extension)
// ---------------------------------------------------------------------------

TEST(PairsTest, ZeroAtTarget) {
  for (const Database& target :
       {MakeFlightsA(), MakeFlightsB(), MakeFlightsC()}) {
    ColumnPairsHeuristic h(target);
    EXPECT_EQ(h.Estimate(target), 0);
  }
}

TEST(PairsTest, CountsJointPairsNotSeparateSets) {
  Database target = Tdb("relation T (A, B) { (1, 2) }");
  ColumnPairsHeuristic h(target);
  // State has both attribute names and both values — but transposed, so
  // neither (A,1) nor (B,2) pair exists. h1 would say 0; pairs says 2+rel.
  Database transposed = Tdb("relation T (A, B) { (2, 1) }");
  EXPECT_EQ(h.Estimate(transposed), 2);
  H1Heuristic h1(target);
  EXPECT_EQ(h1.Estimate(transposed), 0);
}

TEST(PairsTest, WrongRenameEarnsNothing) {
  // The §7 trap: creating the right column name with wrong data.
  Database target = Tdb("relation T (agent) { (\"Jane Doe\") }");
  ColumnPairsHeuristic h(target);
  Database before = Tdb("relation T (agent_first) { (Jane) }");
  Database wrong_rename = Tdb("relation T (agent) { (Jane) }");
  EXPECT_EQ(h.Estimate(wrong_rename), h.Estimate(before));
}

TEST(PairsTest, BareAttributesStillCounted) {
  // A target attribute with only nulls can't form pairs; it is counted by
  // name so renames toward it still register progress.
  Database target = Tdb("relation T (A, B) { (1, null) }");
  ColumnPairsHeuristic h(target);
  Database missing_b = Tdb("relation T (A) { (1) }");
  EXPECT_EQ(h.Estimate(missing_b), 1);
  Database with_b = Tdb("relation T (A, B) { (1, null) }");
  EXPECT_EQ(h.Estimate(with_b), 0);
}

TEST(PairsTest, PairInAnyRelationCounts) {
  // Pairs are matched database-wide (like h1's symbol sets), not per
  // relation: the goal containment handles placement.
  Database target = Tdb("relation T (A) { (1) }");
  ColumnPairsHeuristic h(target);
  Database elsewhere = Tdb("relation T (A) { }\nrelation Other (A) { (1) }");
  EXPECT_EQ(h.Estimate(elsewhere), 0);
}

TEST(PairsTest, FactoryIntegration) {
  auto parsed = ParseHeuristicKind("pairs");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, HeuristicKind::kPairs);
  EXPECT_FALSE(HeuristicUsesScale(HeuristicKind::kPairs));
  for (HeuristicKind kind : AllHeuristicKinds()) {
    EXPECT_NE(kind, HeuristicKind::kPairs);
  }
  auto h = MakeHeuristic(HeuristicKind::kPairs, MakeFlightsA(),
                         SearchAlgorithm::kRbfs);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->name(), "pairs");
}

// ---------------------------------------------------------------------------
// Composite heuristics (§7 hybrids)
// ---------------------------------------------------------------------------

TEST(CompositeTest, MaxDominatesComponents) {
  Database target = MakeFlightsA();
  H1Heuristic h1(target);
  CosineHeuristic cos(target, 24);
  std::vector<std::unique_ptr<Heuristic>> parts;
  parts.push_back(std::make_unique<H1Heuristic>(target));
  parts.push_back(std::make_unique<CosineHeuristic>(target, 24));
  MaxHeuristic hybrid(std::move(parts));
  for (const Database& state : {MakeFlightsB(), MakeFlightsC(), target}) {
    int m = hybrid.Estimate(state);
    EXPECT_GE(m, h1.Estimate(state));
    EXPECT_GE(m, cos.Estimate(state));
    EXPECT_EQ(m, std::max(h1.Estimate(state), cos.Estimate(state)));
  }
  EXPECT_EQ(hybrid.name(), "max(h1,cosine)");
}

TEST(CompositeTest, MaxOfNothingIsZero) {
  MaxHeuristic empty({});
  EXPECT_EQ(empty.Estimate(MakeFlightsB()), 0);
}

TEST(CompositeTest, WeightedSumBlends) {
  Database target = MakeFlightsA();
  std::vector<WeightedSumHeuristic::Term> terms;
  terms.push_back({0.5, std::make_unique<H1Heuristic>(target)});
  terms.push_back({0.5, std::make_unique<CosineHeuristic>(target, 24)});
  WeightedSumHeuristic sum(std::move(terms));
  H1Heuristic h1(target);
  CosineHeuristic cos(target, 24);
  Database state = MakeFlightsB();
  int expected = static_cast<int>(std::llround(
      0.5 * h1.Estimate(state) + 0.5 * cos.Estimate(state)));
  EXPECT_EQ(sum.Estimate(state), expected);
  EXPECT_EQ(sum.Estimate(target), 0);
  EXPECT_EQ(sum.name(), "sum(h1,cosine)");
}

TEST(CompositeTest, HybridFactoryZeroAtTarget) {
  Database target = MakeFlightsB();
  std::unique_ptr<Heuristic> hybrid = MakeHybridHeuristic(target, 24);
  EXPECT_EQ(hybrid->Estimate(target), 0);
  EXPECT_GT(hybrid->Estimate(MakeFlightsA()), 0);
}

}  // namespace
}  // namespace tupelo
