#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fira/parser.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

Op MustParseOp(const char* text) {
  Result<Op> op = ParseOp(text);
  EXPECT_TRUE(op.ok()) << text << ": " << op.status();
  return std::move(op).value();
}

TEST(ParserTest, ParsesEveryOperator) {
  EXPECT_EQ(MustParseOp("dereference(R, P, O)"),
            Op(DereferenceOp{"R", "P", "O"}));
  EXPECT_EQ(MustParseOp("promote(R, A, B)"), Op(PromoteOp{"R", "A", "B"}));
  EXPECT_EQ(MustParseOp("demote(R)"), Op(DemoteOp{"R"}));
  EXPECT_EQ(MustParseOp("partition(R, A)"), Op(PartitionOp{"R", "A"}));
  EXPECT_EQ(MustParseOp("product(R, S)"), Op(ProductOp{"R", "S"}));
  EXPECT_EQ(MustParseOp("drop(R, A)"), Op(DropOp{"R", "A"}));
  EXPECT_EQ(MustParseOp("merge(R, A)"), Op(MergeOp{"R", "A"}));
  EXPECT_EQ(MustParseOp("rename_att(R, A, B)"),
            Op(RenameAttrOp{"R", "A", "B"}));
  EXPECT_EQ(MustParseOp("rename_rel(R, S)"), Op(RenameRelOp{"R", "S"}));
  EXPECT_EQ(MustParseOp("apply(R, f, [A, B], O)"),
            Op(ApplyFunctionOp{"R", "f", {"A", "B"}, "O"}));
}

TEST(ParserTest, WhitespaceAndCommentsIgnored) {
  EXPECT_EQ(MustParseOp("  drop ( R ,\n A )  # trailing comment"),
            Op(DropOp{"R", "A"}));
}

TEST(ParserTest, QuotedNames) {
  EXPECT_EQ(MustParseOp(R"(drop("my rel", "col,1"))"),
            Op(DropOp{"my rel", "col,1"}));
  EXPECT_EQ(MustParseOp(R"(demote("a\"b\\c"))"), Op(DemoteOp{"a\"b\\c"}));
}

TEST(ParserTest, SingleInputApply) {
  EXPECT_EQ(MustParseOp("apply(R, upper, [code], CODE)"),
            Op(ApplyFunctionOp{"R", "upper", {"code"}, "CODE"}));
}

TEST(ParserTest, EmptyInputListApply) {
  EXPECT_EQ(MustParseOp("apply(R, f, [], O)"),
            Op(ApplyFunctionOp{"R", "f", {}, "O"}));
}

TEST(ParserTest, ScriptParsesMultipleOps) {
  Result<MappingExpression> expr = ParseExpression(
      "promote(R, A, B)\n"
      "# comment line\n"
      "drop(R, A)\n");
  ASSERT_TRUE(expr.ok()) << expr.status();
  ASSERT_EQ(expr->size(), 2u);
  EXPECT_EQ(expr->steps()[0], Op(PromoteOp{"R", "A", "B"}));
  EXPECT_EQ(expr->steps()[1], Op(DropOp{"R", "A"}));
}

TEST(ParserTest, EmptyScriptOk) {
  Result<MappingExpression> expr = ParseExpression("  # nothing\n");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE(expr->empty());
}

TEST(ParserTest, Rejections) {
  EXPECT_FALSE(ParseOp("").ok());
  EXPECT_FALSE(ParseOp("nonsense(R)").ok());
  EXPECT_FALSE(ParseOp("drop(R)").ok());            // arity
  EXPECT_FALSE(ParseOp("drop(R, A, B)").ok());      // arity
  EXPECT_FALSE(ParseOp("drop(R, [A])").ok());       // unexpected list
  EXPECT_FALSE(ParseOp("drop(R, A) drop(R, B)").ok());  // trailing input
  EXPECT_FALSE(ParseOp("drop(R, A").ok());          // missing paren
  EXPECT_FALSE(ParseOp("apply(R, f, A, O)").ok());  // inputs must be a list
  EXPECT_FALSE(ParseOp("apply(R, f, [A], [O])").ok());
  EXPECT_FALSE(ParseOp("apply(R, [f], [A], O)").ok());
  EXPECT_FALSE(ParseOp("drop(R, \"unterminated)").ok());
  EXPECT_FALSE(ParseOp("drop(R, \"bad\\q\")").ok());
  EXPECT_FALSE(ParseOp("drop(, A)").ok());
}

TEST(ParserTest, ErrorsMentionLine) {
  Result<MappingExpression> r = ParseExpression("drop(R, A)\ndrop(R,\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line"), std::string::npos);

  // Errors about a whole operator name the line it starts on.
  const std::pair<const char*, const char*> cases[] = {
      {"drop(R, A)\ndrop(R)\n", " at line 2"},
      {"drop(R, A)\n\nfrobnicate(R)\n", " at line 3"},
      {"drop(R, A)\napply(R, f, A, O)\n", " at line 2"},
      {"drop(R, A)\ndemote(R, A)\n",
       "demote expects 1 argument, got 2 at line 2"},
  };
  for (const auto& [script, where] : cases) {
    Result<MappingExpression> bad = ParseExpression(script);
    ASSERT_FALSE(bad.ok()) << script;
    EXPECT_NE(bad.status().message().find(where), std::string::npos)
        << bad.status();
  }
}

TEST(ParserTest, RoundTripPaperExpression) {
  MappingExpression expr = FlightsBToAExpression();
  Result<MappingExpression> back = ParseExpression(expr.ToScript());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, expr);
}

TEST(ParserTest, RoundTripEveryOperatorKind) {
  MappingExpression expr;
  expr.Append(DereferenceOp{"R", "P", "O"});
  expr.Append(PromoteOp{"R", "A", "B"});
  expr.Append(DemoteOp{"R"});
  expr.Append(PartitionOp{"R", "A"});
  expr.Append(ProductOp{"R", "S"});
  expr.Append(DropOp{"R*S", "A"});
  expr.Append(MergeOp{"R*S", "B"});
  expr.Append(RenameAttrOp{"R*S", "B", "C"});
  expr.Append(RenameRelOp{"R*S", "T"});
  expr.Append(ApplyFunctionOp{"T", "add", {"C", "D"}, "E"});
  Result<MappingExpression> back = ParseExpression(expr.ToScript());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, expr);
}

TEST(ParserTest, RoundTripAwkwardNames) {
  MappingExpression expr;
  expr.Append(DropOp{"rel with space", "a\"quote"});
  expr.Append(RenameAttrOp{"rel with space", "tab\there", "new\nline"});
  expr.Append(ApplyFunctionOp{"r", "f", {"x,y", "[z]"}, "out put"});
  Result<MappingExpression> back = ParseExpression(expr.ToScript());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, expr);
}

// Round-trip property over a parameterized family of operator spellings.
class ParserRoundTrip : public testing::TestWithParam<const char*> {};

TEST_P(ParserRoundTrip, ScriptToOpToScript) {
  Op op = MustParseOp(GetParam());
  EXPECT_EQ(OpToScript(op), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    CanonicalSpellings, ParserRoundTrip,
    testing::Values("dereference(R, P, O)", "promote(R, A, B)", "demote(R)",
                    "partition(R, A)", "product(R, S)", "drop(R, A)",
                    "merge(R, A)", "rename_att(R, A, B)", "rename_rel(R, S)",
                    "apply(R, f, [A, B], O)", "apply(R, f, [X], O)",
                    "drop(\"a b\", C)"));

}  // namespace
}  // namespace tupelo
