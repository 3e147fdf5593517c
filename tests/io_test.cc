#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "relational/io.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

Database MustParseTdb(const char* text) {
  Result<Database> db = ParseTdb(text);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(db).value();
}

// ---------------------------------------------------------------------------
// .tdb parsing
// ---------------------------------------------------------------------------

TEST(TdbParseTest, EmptyInput) {
  Database db = MustParseTdb("");
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(MustParseTdb("  \n # just a comment\n").empty());
}

TEST(TdbParseTest, SingleRelation) {
  Database db = MustParseTdb(
      "relation R (A, B) {\n"
      "  (1, 2)\n"
      "  (3, 4)\n"
      "}\n");
  Result<const Relation*> r = db.GetRelation("R");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->attributes(), (std::vector<std::string>{"A", "B"}));
  ASSERT_EQ((*r)->size(), 2u);
  EXPECT_EQ((*r)->tuples()[1], Tuple::OfAtoms({"3", "4"}));
}

TEST(TdbParseTest, MultipleRelations) {
  Database db = MustParseTdb(
      "relation R (A) { (1) }\n"
      "relation S (B) { (2) }\n");
  EXPECT_TRUE(db.HasRelation("R"));
  EXPECT_TRUE(db.HasRelation("S"));
}

TEST(TdbParseTest, NullKeyword) {
  Database db = MustParseTdb("relation R (A, B) { (null, x) }");
  const Relation* r = db.GetRelation("R").value();
  EXPECT_TRUE(r->tuples()[0][0].is_null());
  EXPECT_EQ(r->tuples()[0][1], Value("x"));
}

TEST(TdbParseTest, QuotedStringsWithEscapes) {
  Database db = MustParseTdb(
      R"(relation "My Table" ("Col 1") { ("a\"b\\c\nd") })");
  const Relation* r = db.GetRelation("My Table").value();
  EXPECT_EQ(r->attributes()[0], "Col 1");
  EXPECT_EQ(r->tuples()[0][0], Value("a\"b\\c\nd"));
}

TEST(TdbParseTest, QuotedNullIsAnAtom) {
  // "null" in quotes is the atom, not the null value.
  Database db = MustParseTdb(R"(relation R (A) { ("null") })");
  EXPECT_EQ(db.GetRelation("R").value()->tuples()[0][0], Value("null"));
}

TEST(TdbParseTest, CommentsAnywhere) {
  Database db = MustParseTdb(
      "# header\n"
      "relation R (A) { # schema\n"
      "  (1) # tuple\n"
      "}\n");
  EXPECT_EQ(db.GetRelation("R").value()->size(), 1u);
}

TEST(TdbParseTest, ZeroArityRelation) {
  Database db = MustParseTdb("relation R () { }");
  EXPECT_EQ(db.GetRelation("R").value()->arity(), 0u);
}

TEST(TdbParseTest, ErrorsCarryLineNumbers) {
  Result<Database> r = ParseTdb("relation R (A) {\n  (1,\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

TEST(TdbParseTest, RejectsMalformedInputs) {
  EXPECT_FALSE(ParseTdb("relation").ok());
  EXPECT_FALSE(ParseTdb("relation R").ok());
  EXPECT_FALSE(ParseTdb("relation R (A)").ok());
  EXPECT_FALSE(ParseTdb("relation R (A) { (1) ").ok());     // no closing }
  EXPECT_FALSE(ParseTdb("relation R (A A) { }").ok());      // missing comma
  EXPECT_FALSE(ParseTdb("relation R (A, A) { }").ok());     // dup attribute
  EXPECT_FALSE(ParseTdb("relation R (A) { (1, 2) }").ok()); // arity
  EXPECT_FALSE(ParseTdb("xrelation R (A) { }").ok());
  EXPECT_FALSE(ParseTdb(R"(relation R (A) { ("unterminated) })").ok());
  EXPECT_FALSE(ParseTdb(R"(relation R (A) { ("bad\q") })").ok());
  EXPECT_FALSE(ParseTdb("relation R (A) { (null null) }").ok());
  EXPECT_FALSE(ParseTdb("relation null (A) { }").ok());  // null not a name
}

TEST(TdbParseTest, DuplicateRelationNameRejected) {
  EXPECT_FALSE(ParseTdb("relation R (A) { } relation R (B) { }").ok());
}

TEST(TdbParseTest, EveryTruncationFailsCleanly) {
  // Chopping a valid file at any byte must produce a clean Status or a
  // (shorter) valid database — never a crash or hang.
  const std::string text =
      "# header\n"
      "relation R (A, \"B x\") {\n"
      "  (1, \"two\\n\")\n"
      "  (null, 4)\n"
      "}\n"
      "relation S (C) { (ok) }\n";
  for (size_t len = 0; len < text.size(); ++len) {
    Result<Database> r = ParseTdb(text.substr(0, len));
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty()) << "cut at " << len;
    }
  }
  // A cut inside the tuple list specifically must be an error, not a
  // silently truncated relation.
  EXPECT_FALSE(ParseTdb(text.substr(0, text.find("(null")) ).ok());
}

TEST(TdbParseTest, GarbageBytesFailCleanly) {
  const std::string garbage1("\x00\xff\xfe relation", 12);
  EXPECT_FALSE(ParseTdb(garbage1).ok());
  EXPECT_FALSE(ParseTdb("relation R (,) { }").ok());
  EXPECT_FALSE(ParseTdb("{}{}((()))").ok());
  EXPECT_FALSE(ParseTdb(std::string(64, '(')).ok());
  EXPECT_FALSE(ParseTdb("relation R (A) { (\x01\x02\x03 }").ok());
}

// ---------------------------------------------------------------------------
// .tdb writing / round trips
// ---------------------------------------------------------------------------

TEST(TdbWriteTest, RoundTripFlights) {
  for (const Database& db :
       {MakeFlightsA(), MakeFlightsB(), MakeFlightsC()}) {
    Result<Database> back = ParseTdb(WriteTdb(db));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(back->ContentsEqual(db));
  }
}

TEST(TdbWriteTest, RoundTripAwkwardNames) {
  Database db;
  Result<Relation> r =
      Relation::Create("weird name", {"has space", "has\"quote", "null"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(
      r->AddTuple(Tuple(std::vector<Value>{Value(""), Value::Null(),
                                           Value("multi\nline")}))
          .ok());
  ASSERT_TRUE(db.AddRelation(std::move(r).value()).ok());
  Result<Database> back = ParseTdb(WriteTdb(db));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->ContentsEqual(db));
}

TEST(TdbWriteTest, NullWrittenAsKeyword) {
  Database db;
  Result<Relation> r = Relation::Create("R", {"A"});
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->AddTuple(Tuple(std::vector<Value>{Value::Null()})).ok());
  ASSERT_TRUE(db.AddRelation(std::move(r).value()).ok());
  EXPECT_NE(WriteTdb(db).find("(null)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

TEST(FileTest, SaveAndLoad) {
  std::string path = testing::TempDir() + "/tupelo_io_test.tdb";
  Database db = MakeFlightsA();
  ASSERT_TRUE(SaveTdbFile(db, path).ok());
  Result<Database> back = LoadTdbFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->ContentsEqual(db));
  std::remove(path.c_str());
}

TEST(FileTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadTdbFile("/nonexistent/nowhere.tdb").status().code(),
            StatusCode::kNotFound);
}

TEST(FileTest, LoadTruncatedFileFailsCleanly) {
  // Simulates a partially-written database file (crash mid-save).
  std::string path = testing::TempDir() + "/tupelo_io_truncated.tdb";
  std::string full = WriteTdb(MakeFlightsA());
  // Cut just inside the first relation body: the closing brace is gone, so
  // the parse must fail however the rest of the file was laid out.
  ASSERT_NE(full.find('{'), std::string::npos);
  std::string truncated = full.substr(0, full.find('{') + 2);
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(truncated.data(), 1, truncated.size(), f),
            truncated.size());
  std::fclose(f);
  Result<Database> r = LoadTdbFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.status().message().empty());
  std::remove(path.c_str());
}

TEST(FileTest, LoadGarbageFileFailsCleanly) {
  std::string path = testing::TempDir() + "/tupelo_io_garbage.tdb";
  const char bytes[] = "\x7f\x45\x4c\x46\x02\x01\x01\x00 not a tdb file";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes, 1, sizeof(bytes) - 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadTdbFile(path).ok());
  std::remove(path.c_str());
}

TEST(FileTest, LoadRunsDatabaseValidate) {
  // Syntactically valid .tdb whose TNF relation cannot decode (one TID
  // repeats an attribute): LoadTdbFile must reject it with a descriptive
  // typed error via Database::Validate, not hand corrupt data to search.
  std::string path = testing::TempDir() + "/tupelo_io_bad_tnf.tdb";
  const char* text =
      "relation TNF (TID, REL, ATT, VALUE) {\n"
      "  (t1, R, A, x)\n"
      "  (t1, R, A, y)\n"
      "}\n";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(text, 1, std::strlen(text), f);
  std::fclose(f);
  Result<Database> r = LoadTdbFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("claims TNF"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tupelo
