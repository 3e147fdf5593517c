#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/mapping_repository.h"
#include "core/tupelo.h"
#include "fira/builtin_functions.h"
#include "workloads/flights.h"

namespace tupelo {
namespace {

StoredMapping ExampleMapping() {
  StoredMapping m;
  m.name = "prices_to_flights";
  m.expression = FlightsBToAExpression();
  m.source_instance = MakeFlightsB();
  m.target_instance = MakeFlightsA();
  m.algorithm = "rbfs";
  m.heuristic = "h1";
  m.states_examined = 2570;
  return m;
}

TEST(MappingRepositoryTest, WriteParseRoundTrip) {
  StoredMapping m = ExampleMapping();
  Result<StoredMapping> back = ParseMapping(WriteMapping(m));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->name, m.name);
  EXPECT_EQ(back->algorithm, "rbfs");
  EXPECT_EQ(back->heuristic, "h1");
  EXPECT_EQ(back->states_examined, 2570u);
  EXPECT_EQ(back->expression, m.expression);
  EXPECT_TRUE(back->source_instance.ContentsEqual(m.source_instance));
  EXPECT_TRUE(back->target_instance.ContentsEqual(m.target_instance));
}

TEST(MappingRepositoryTest, RoundTripWithCorrespondences) {
  StoredMapping m;
  m.name = "b_to_c";
  m.source_instance = MakeFlightsB();
  m.target_instance = MakeFlightsC();
  m.correspondences = FlightsBToCCorrespondences();
  m.expression.Append(
      ApplyFunctionOp{"Prices", "add", {"Cost", "AgentFee"}, "TotalCost"});
  m.expression.Append(PartitionOp{"Prices", "Carrier"});
  m.expression.Append(RenameAttrOp{"AirEast", "Cost", "BaseCost"});
  m.expression.Append(RenameAttrOp{"JetWest", "Cost", "BaseCost"});
  Result<StoredMapping> back = ParseMapping(WriteMapping(m));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->correspondences.size(), 1u);
  EXPECT_EQ(back->correspondences[0],
            (SemanticCorrespondence{"add", {"Cost", "AgentFee"},
                                    "TotalCost"}));
  EXPECT_EQ(back->expression, m.expression);
}

TEST(MappingRepositoryTest, RoundTripAwkwardNames) {
  StoredMapping m;
  m.name = "odd name with spaces";
  m.source_instance = MakeFlightsB();
  m.target_instance = MakeFlightsA();
  m.expression.Append(RenameAttrOp{"Prices", "AgentFee", "new fee"});
  m.correspondences.push_back(
      {"concat", {"a b", "c,d"}, "out put"});
  // An output holding brackets, an input ending in a backslash, and an
  // input that is one space each once broke the parser on its own output.
  m.correspondences.push_back(
      {"sum", {"Unit Price\\", " ", "Qty"}, "total[usd]"});
  m.correspondences.push_back({"f[1]", {}, "x"});
  Result<StoredMapping> back = ParseMapping(WriteMapping(m));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->name, m.name);
  EXPECT_EQ(back->correspondences, m.correspondences);
  EXPECT_EQ(back->expression, m.expression);
}

TEST(MappingRepositoryTest, HeaderAtomsUseTheTmapDelimiters) {
  StoredMapping m = ExampleMapping();
  m.name = "f(x)";  // parentheses are no .tmap delimiter: written bare
  m.correspondences.push_back({"g(y)", {"a"}, "b"});
  const std::string text = WriteMapping(m);
  EXPECT_NE(text.find("\nname f(x)\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ncorrespondence g(y) [a] b\n"), std::string::npos);
  Result<StoredMapping> back = ParseMapping(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->name, "f(x)");
  EXPECT_EQ(back->correspondences, m.correspondences);

  // Header lines take comments and blank lines; errors name the line.
  Result<StoredMapping> commented = ParseMapping(
      "# stored\ntupelo-mapping 1 # version\n\nname x # id\n"
      "begin source\nend source\nbegin target\nend target\n"
      "begin expression\nend expression\n");
  ASSERT_TRUE(commented.ok()) << commented.status();
  EXPECT_EQ(commented->name, "x");
  Result<StoredMapping> bad = ParseMapping("tupelo-mapping 1\n\nbogus x\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("at line 3"), std::string::npos)
      << bad.status();
}

TEST(MappingRepositoryTest, ValidateStoredMapping) {
  StoredMapping good = ExampleMapping();
  Result<bool> ok = ValidateStoredMapping(good);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(*ok);

  // Tamper with the expression: validation reports false (or an error for
  // inapplicable expressions).
  StoredMapping bad = good;
  bad.expression = MappingExpression();
  Result<bool> tampered = ValidateStoredMapping(bad);
  ASSERT_TRUE(tampered.ok());
  EXPECT_FALSE(*tampered);
}

TEST(MappingRepositoryTest, ValidateWithLambda) {
  FunctionRegistry registry;
  ASSERT_TRUE(RegisterBuiltinFunctions(&registry).ok());
  StoredMapping m;
  m.source_instance = MakeFlightsB();
  m.target_instance = MakeFlightsC();
  m.correspondences = FlightsBToCCorrespondences();
  m.expression.Append(
      ApplyFunctionOp{"Prices", "add", {"Cost", "AgentFee"}, "TotalCost"});
  m.expression.Append(RenameAttrOp{"Prices", "Cost", "BaseCost"});
  m.expression.Append(PartitionOp{"Prices", "Carrier"});
  Result<bool> ok = ValidateStoredMapping(m, &registry);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(*ok);
  // Without the registry, execution fails cleanly.
  EXPECT_FALSE(ValidateStoredMapping(m, nullptr).ok());
}

TEST(MappingRepositoryTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/tupelo_repo_test.tmap";
  StoredMapping m = ExampleMapping();
  ASSERT_TRUE(SaveMappingFile(m, path).ok());
  Result<StoredMapping> back = LoadMappingFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->expression, m.expression);
  // The save is atomic: it went through a temporary that is gone now.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "r"), nullptr);
  std::remove(path.c_str());
  EXPECT_EQ(LoadMappingFile(path).status().code(), StatusCode::kNotFound);
}

TEST(MappingRepositoryTest, Rejections) {
  EXPECT_FALSE(ParseMapping("").ok());
  EXPECT_FALSE(ParseMapping("not a mapping").ok());
  EXPECT_FALSE(ParseMapping("tupelo-mapping 99\n").ok());
  // Missing sections.
  EXPECT_FALSE(ParseMapping("tupelo-mapping 1\nname x\n").ok());
  // Unterminated section.
  EXPECT_FALSE(
      ParseMapping("tupelo-mapping 1\nbegin source\nrelation R (A) { }\n")
          .ok());
  // Unknown section.
  EXPECT_FALSE(
      ParseMapping("tupelo-mapping 1\nbegin junk\nend junk\n").ok());
  // Bad header lines in an otherwise valid mapping: states that is not a
  // number, past 64 bits or negative, and correspondences without a
  // [list] or with input after the output.
  const std::string valid = WriteMapping(ExampleMapping());
  ASSERT_TRUE(ParseMapping(valid).ok());
  const size_t states_at = valid.find("states 2570\n");
  ASSERT_NE(states_at, std::string::npos);
  for (const char* line :
       {"states abc", "states 99999999999999999999999", "states -5",
        "correspondence f a b", "correspondence f [a] b c"}) {
    std::string text = valid;
    text.replace(states_at, std::string("states 2570").size(), line);
    Result<StoredMapping> bad = ParseMapping(text);
    ASSERT_FALSE(bad.ok()) << line;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << line;
    EXPECT_NE(bad.status().message().find("at line 5"), std::string::npos)
        << bad.status();
  }
  // Unknown header keyword.
  EXPECT_FALSE(ParseMapping("tupelo-mapping 1\nbogus x\n").ok());
  // An error inside a section names its line in the file, not in the
  // section body.
  Result<StoredMapping> bad_source = ParseMapping(
      "tupelo-mapping 1\n"
      "name m\n"
      "# the source\n"
      "begin source\n"
      "relation R (A) {\n"
      "  (1)\n"
      "  (2 3)\n"
      "}\n"
      "end source\n");
  ASSERT_FALSE(bad_source.ok());
  EXPECT_EQ(bad_source.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad_source.status().message().find("at line 7"),
            std::string::npos)
      << bad_source.status();
  std::string bad_expression = valid;
  const size_t expression_at = valid.find("begin expression\n");
  ASSERT_NE(expression_at, std::string::npos);
  bad_expression.insert(expression_at + sizeof("begin expression\n") - 1,
                        "bogus(R)\n");
  const size_t bogus_line =
      1 + std::count(valid.begin(), valid.begin() + expression_at, '\n') + 1;
  Result<StoredMapping> bad_op = ParseMapping(bad_expression);
  ASSERT_FALSE(bad_op.ok());
  EXPECT_NE(bad_op.status().message().find(
                "at line " + std::to_string(bogus_line)),
            std::string::npos)
      << bad_op.status();
}

TEST(MappingRepositoryTest, EndToEndFromDiscovery) {
  TupeloOptions options;
  options.limits.max_states = 200000;
  Result<TupeloResult> r =
      DiscoverMapping(MakeFlightsB(), MakeFlightsA(), options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);

  StoredMapping m;
  m.name = "discovered";
  m.expression = r->mapping;
  m.source_instance = MakeFlightsB();
  m.target_instance = MakeFlightsA();
  m.algorithm = std::string(SearchAlgorithmName(options.algorithm));
  m.heuristic = std::string(HeuristicKindName(options.heuristic));
  m.states_examined = r->stats.states_examined;

  Result<StoredMapping> back = ParseMapping(WriteMapping(m));
  ASSERT_TRUE(back.ok()) << back.status();
  Result<bool> valid = ValidateStoredMapping(*back);
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
}

}  // namespace
}  // namespace tupelo
