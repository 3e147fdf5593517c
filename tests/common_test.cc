#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/text.h"

namespace tupelo {
namespace {

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) { EXPECT_TRUE(Status::OK().ok()); }

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotFound("missing thing").message(), "missing thing");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::ParseError("line 3");
  EXPECT_EQ(s.ToString(), "ParseError: line 3");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int x) {
  TUPELO_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Result<T>
// ---------------------------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, ValueOrFallsBack) {
  EXPECT_EQ(ParsePositive(3).value_or(-7), 3);
  EXPECT_EQ(ParsePositive(0).value_or(-7), -7);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubled(int x) {
  TUPELO_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  Result<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(Doubled(-3).status().code(), StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// string_util
// ---------------------------------------------------------------------------

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitEmptyInput) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinBasic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::string s = "x|y||z";
  EXPECT_EQ(Join(Split(s, '|'), "|"), s);
}

TEST(StringUtilTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripAsciiWhitespace("\t\nhi"), "hi");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("a b"), "a b");
}

TEST(StringUtilTest, IsInteger) {
  EXPECT_TRUE(IsInteger("0"));
  EXPECT_TRUE(IsInteger("42"));
  EXPECT_TRUE(IsInteger("-42"));
  EXPECT_TRUE(IsInteger("+7"));
  EXPECT_FALSE(IsInteger(""));
  EXPECT_FALSE(IsInteger("-"));
  EXPECT_FALSE(IsInteger("4.2"));
  EXPECT_FALSE(IsInteger("x1"));
  EXPECT_FALSE(IsInteger("1x"));
}

TEST(StringUtilTest, IsNumber) {
  EXPECT_TRUE(IsNumber("0"));
  EXPECT_TRUE(IsNumber("-3.5"));
  EXPECT_TRUE(IsNumber("3."));
  EXPECT_TRUE(IsNumber(".5"));
  EXPECT_FALSE(IsNumber("."));
  EXPECT_FALSE(IsNumber(""));
  EXPECT_FALSE(IsNumber("1.2.3"));
  EXPECT_FALSE(IsNumber("1e5"));
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("AbC123"), "abc123");
}

TEST(TextTest, EscapeAndQuote) {
  EXPECT_EQ(Escape("plain"), "plain");
  EXPECT_EQ(Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(Quote("hi"), "\"hi\"");
  EXPECT_EQ(Quote("say \"hi\""), "\"say \\\"hi\\\"\"");
}

// ---------------------------------------------------------------------------
// text layer
// ---------------------------------------------------------------------------

std::string Atom(std::string_view atom, std::string_view delims,
                 std::initializer_list<std::string_view> keywords = {}) {
  std::string out;
  AppendAtom(out, atom, delims, keywords);
  return out;
}

TEST(TextTest, AtomsQuoteOnlyWhatTheirFormatDelimits) {
  for (std::string_view delims : {kTdbDelims, kScriptDelims, kTmapDelims}) {
    EXPECT_EQ(Atom("plain-1.5", delims), "plain-1.5");
    EXPECT_EQ(Atom("", delims), "\"\"");
    EXPECT_EQ(Atom("a b", delims), "\"a b\"");
    EXPECT_EQ(Atom("a\tb", delims), "\"a\\tb\"");
    EXPECT_EQ(Atom("#x", delims), "\"#x\"");
    EXPECT_EQ(Atom("say\"", delims), "\"say\\\"\"");
  }
  EXPECT_EQ(Atom("f(x)", kTmapDelims), "f(x)");
  EXPECT_EQ(Atom("f(x)", kScriptDelims), "\"f(x)\"");
  EXPECT_EQ(Atom("a[1]", kTdbDelims), "a[1]");
  EXPECT_EQ(Atom("a[1]", kTmapDelims), "\"a[1]\"");
  EXPECT_EQ(Atom("{x}", kScriptDelims), "{x}");
  EXPECT_EQ(Atom("{x}", kTdbDelims), "\"{x}\"");
  EXPECT_EQ(Atom("null", kTdbDelims, {"null"}), "\"null\"");
  EXPECT_EQ(Atom("null", kScriptDelims), "null");
}

TEST(TextTest, ScannerReadsAtomsListsAndComments) {
  Scanner in("  word \"a \\\"q\\\" b\" # comment\n [x, \"y z\"] [] (", "()[],");
  bool quoted = true;
  EXPECT_EQ(in.Atom(&quoted).value(), "word");
  EXPECT_FALSE(quoted);
  EXPECT_EQ(in.Atom(&quoted).value(), "a \"q\" b");
  EXPECT_TRUE(quoted);
  EXPECT_EQ(in.line(), 1u);
  EXPECT_TRUE(in.PeekIs('['));
  EXPECT_EQ(in.line(), 2u);
  EXPECT_EQ(in.NameList().value(), (std::vector<std::string>{"x", "y z"}));
  EXPECT_TRUE(in.NameList().value().empty());
  EXPECT_FALSE(in.Consume(')'));
  EXPECT_TRUE(in.Expect('(').ok());
  EXPECT_TRUE(in.AtEnd());
}

TEST(TextTest, ScannerErrorsNameTheLine) {
  auto error = [](std::string_view text) {
    Scanner in(text, kScriptDelims);
    Result<std::vector<std::string>> r = in.NameList();
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    return r.status().message();
  };
  EXPECT_EQ(error("\n\n[a b]"), "expected ']', got 'b' at line 3");
  EXPECT_EQ(error("[a,\n)"), "expected name, got ')' at line 2");
  EXPECT_EQ(error("[\"open\n"), "unterminated string starting at line 1");
  EXPECT_EQ(error("[\n\"bad\\q\"]"), "bad escape '\\q' at line 2");
  EXPECT_EQ(error("[a"), "expected ']', got end of input at line 1");
  EXPECT_EQ(error("[a,]"), "expected name, got ']' at line 1");
  EXPECT_EQ(error("[a,,b]"), "expected name, got ',' at line 1");

  Scanner word("relations", kTdbDelims);
  EXPECT_FALSE(word.ExpectWord("relation").ok());
  Scanner quoted("\"relation\"", kTdbDelims);
  EXPECT_FALSE(quoted.ExpectWord("relation").ok());
}

TEST(TextTest, SectionsFrameBodiesVerbatim) {
  std::string out;
  AppendSection(out, "body", "line 1\n  end bod\n");
  AppendSection(out, "empty", "");
  AppendSection(out, "open", "no newline");
  EXPECT_EQ(out,
            "begin body\nline 1\n  end bod\nend body\n"
            "begin empty\nend empty\n"
            "begin open\nno newline\nend open\n");

  LineCursor lines(out);
  EXPECT_EQ(lines.Section("body").value(), "line 1\n  end bod\n");
  EXPECT_EQ(lines.Section("empty").value(), "");
  EXPECT_EQ(lines.line(), 7u);
  EXPECT_FALSE(lines.Section("other").ok());  // the next one is "open"
  EXPECT_EQ(lines.SectionBody("open").value(), "no newline\n");
  EXPECT_TRUE(lines.done());

  // Framing lines may carry surrounding whitespace; a missing end line is
  // a ParseError naming where the section began.
  LineCursor spaced("x\n  begin s \r\nbody\n end s\t\n");
  EXPECT_EQ(spaced.Next(), "x");
  EXPECT_EQ(spaced.Section("s").value(), "body\n");
  LineCursor open("a\nbegin s\nbody\n");
  open.Next();
  Result<std::string_view> r = open.Section("s");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "unterminated section 's' begun at line 2");
}

TEST(TextTest, ParseNumberTakesTheWholeStringInRange) {
  uint64_t u = 7;
  EXPECT_TRUE(ParseNumber("18446744073709551615", u));
  EXPECT_EQ(u, 18446744073709551615ull);
  for (std::string_view bad :
       {"", "-5", "+5", " 5", "5 ", "5x", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(ParseNumber(bad, u)) << bad;
  }
  EXPECT_EQ(u, 18446744073709551615ull);  // failures leave `out` alone
  int64_t i = 0;
  EXPECT_TRUE(ParseNumber("-42", i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseNumber("-42", i, 0));
  uint16_t port = 0;
  EXPECT_TRUE(ParseNumber("65535", port));
  EXPECT_FALSE(ParseNumber("70000", port));
  double d = 0;
  EXPECT_TRUE(ParseNumber("2.5", d));
  EXPECT_EQ(d, 2.5);
  EXPECT_FALSE(ParseNumber("inf", d));
  EXPECT_FALSE(ParseNumber("nan", d));
}

TEST(TextTest, FilesRoundTripThroughAtomicWrite) {
  const std::string path = testing::TempDir() + "/tupelo_text_test.txt";
  ASSERT_TRUE(AtomicWriteFile(path, std::string("a\0b\n", 4)).ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second\n").ok());
  EXPECT_EQ(ReadFile(path).value(), "second\n");
  EXPECT_EQ(ReadFile(path + ".tmp").status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(AtomicWriteFile(testing::TempDir() + "/no/such/dir/x", "x").code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// hash
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1aIsStableAndSensitive) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("ab"));
  EXPECT_NE(Fnv1a(""), Fnv1a(std::string_view("\0", 1)));
}

TEST(HashTest, KnownFnv1aVector) {
  // FNV-1a 64-bit of the empty string is the offset basis.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
}

TEST(HashTest, HashCombineChangesSeed) {
  size_t seed1 = 0;
  HashCombine(&seed1, std::string("a"));
  size_t seed2 = 0;
  HashCombine(&seed2, std::string("b"));
  EXPECT_NE(seed1, seed2);
  size_t seed3 = seed1;
  HashCombine(&seed3, std::string("b"));
  EXPECT_NE(seed3, seed1);
}

TEST(HashTest, HashCombineOrderMatters) {
  size_t ab = 0;
  HashCombine(&ab, std::string("a"));
  HashCombine(&ab, std::string("b"));
  size_t ba = 0;
  HashCombine(&ba, std::string("b"));
  HashCombine(&ba, std::string("a"));
  EXPECT_NE(ab, ba);
}

}  // namespace
}  // namespace tupelo
