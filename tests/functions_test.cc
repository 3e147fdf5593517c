#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fira/builtin_functions.h"
#include "fira/function_registry.h"

namespace tupelo {
namespace {

ComplexFunction Identity(const char* name) {
  ComplexFunction f;
  f.name = name;
  f.arity = 1;
  f.impl = [](const std::vector<std::string>& a) -> Result<std::string> {
    return a[0];
  };
  return f;
}

// ---------------------------------------------------------------------------
// FunctionRegistry
// ---------------------------------------------------------------------------

TEST(RegistryTest, RegisterAndLookup) {
  FunctionRegistry reg;
  ASSERT_TRUE(reg.Register(Identity("id")).ok());
  EXPECT_TRUE(reg.Has("id"));
  EXPECT_FALSE(reg.Has("nope"));
  Result<const ComplexFunction*> f = reg.Lookup("id");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->arity, 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, DuplicateRejected) {
  FunctionRegistry reg;
  ASSERT_TRUE(reg.Register(Identity("id")).ok());
  EXPECT_EQ(reg.Register(Identity("id")).code(), StatusCode::kAlreadyExists);
}

TEST(RegistryTest, InvalidRegistrations) {
  FunctionRegistry reg;
  EXPECT_FALSE(reg.Register(Identity("")).ok());
  ComplexFunction no_impl;
  no_impl.name = "f";
  no_impl.arity = 0;
  EXPECT_FALSE(reg.Register(no_impl).ok());
}

TEST(RegistryTest, NamesSorted) {
  FunctionRegistry reg;
  ASSERT_TRUE(reg.Register(Identity("zeta")).ok());
  ASSERT_TRUE(reg.Register(Identity("alpha")).ok());
  EXPECT_EQ(reg.Names(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(RegistryTest, CallChecksExistenceAndArity) {
  FunctionRegistry reg;
  ASSERT_TRUE(reg.Register(Identity("id")).ok());
  Result<std::string> ok = reg.Call("id", {"x"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), "x");
  EXPECT_EQ(reg.Call("nope", {"x"}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.Call("id", {"x", "y"}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Builtins
// ---------------------------------------------------------------------------

class BuiltinsTest : public testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(RegisterBuiltinFunctions(&reg_).ok()); }

  std::string Call(const char* fn, std::vector<std::string> args) {
    Result<std::string> r = reg_.Call(fn, args);
    EXPECT_TRUE(r.ok()) << fn << ": " << r.status();
    return r.ok() ? r.value() : "<error>";
  }

  bool Fails(const char* fn, std::vector<std::string> args) {
    return !reg_.Call(fn, args).ok();
  }

  FunctionRegistry reg_;
};

TEST_F(BuiltinsTest, RegistersIdempotentSet) {
  EXPECT_GE(reg_.size(), 12u);
  // Registering twice collides.
  EXPECT_FALSE(RegisterBuiltinFunctions(&reg_).ok());
}

TEST_F(BuiltinsTest, Concat) {
  EXPECT_EQ(Call("concat", {"ab", "cd"}), "abcd");
  EXPECT_EQ(Call("concat", {"", ""}), "");
  EXPECT_EQ(Call("concat_ws", {"John", "Smith"}), "John Smith");
}

TEST_F(BuiltinsTest, FullNamePaperF2) {
  // Example 5, f2: (Last, First) -> "First Last".
  EXPECT_EQ(Call("full_name", {"Smith", "John"}), "John Smith");
  EXPECT_EQ(Call("full_name", {"Doe", "Jane"}), "Jane Doe");
}

TEST_F(BuiltinsTest, IntegerArithmetic) {
  EXPECT_EQ(Call("add", {"100", "15"}), "115");
  EXPECT_EQ(Call("add", {"-5", "3"}), "-2");
  EXPECT_EQ(Call("sub", {"100", "60"}), "40");
  EXPECT_EQ(Call("mul", {"3", "100"}), "300");
  EXPECT_TRUE(Fails("add", {"x", "1"}));
  EXPECT_TRUE(Fails("add", {"1.5", "1"}));
  EXPECT_TRUE(Fails("mul", {"", "1"}));
  // The whole int64_t range reads, a leading '+' included; past it, an
  // input or a result is an error (⊥ for the tuple), never a wrapped or
  // saturated number.
  EXPECT_EQ(Call("add", {"+7", "-9223372036854775808"}),
            "-9223372036854775801");
  EXPECT_EQ(Call("sub", {"9223372036854775807", "0"}), "9223372036854775807");
  EXPECT_TRUE(Fails("add", {"9223372036854775807", "1"}));
  EXPECT_TRUE(Fails("sub", {"-9223372036854775808", "1"}));
  EXPECT_TRUE(Fails("mul", {"4294967296", "4294967296"}));
  EXPECT_TRUE(Fails("add", {"99999999999999999999", "0"}));
  EXPECT_EQ(Call("usd_to_cents", {"92233720368547758.07"}),
            "9223372036854775807");
  EXPECT_TRUE(Fails("usd_to_cents", {"92233720368547758.08"}));
  EXPECT_TRUE(Fails("usd_to_cents", {"100000000000000000.00"}));
  // The sign is the whole amount's, and the cents carry none of their own.
  EXPECT_EQ(Call("usd_to_cents", {"-1.50"}), "-150");
  EXPECT_EQ(Call("usd_to_cents", {"-0.50"}), "-50");
  EXPECT_EQ(Call("usd_to_cents", {"+1.50"}), "150");
  EXPECT_EQ(Call("usd_to_cents", {"-92233720368547758.08"}),
            "-9223372036854775808");
  EXPECT_TRUE(Fails("usd_to_cents", {"-92233720368547758.09"}));
  EXPECT_TRUE(Fails("usd_to_cents", {"1.-5"}));
  EXPECT_TRUE(Fails("usd_to_cents", {"1.+5"}));
}

TEST_F(BuiltinsTest, ScalePct) {
  EXPECT_EQ(Call("scale_pct", {"100", "25"}), "25");
  EXPECT_EQ(Call("scale_pct", {"250000", "6"}), "15000");
  EXPECT_TRUE(Fails("scale_pct", {"abc", "5"}));
}

TEST_F(BuiltinsTest, DateUsToIso) {
  EXPECT_EQ(Call("date_us_to_iso", {"07/04/2026"}), "2026-07-04");
  EXPECT_EQ(Call("date_us_to_iso", {"11/30/1999"}), "1999-11-30");
  EXPECT_TRUE(Fails("date_us_to_iso", {"2026-07-04"}));
  EXPECT_TRUE(Fails("date_us_to_iso", {"7/4/2026"}));
  EXPECT_TRUE(Fails("date_us_to_iso", {"07/04/26"}));
  EXPECT_TRUE(Fails("date_us_to_iso", {"ab/cd/efgh"}));
}

TEST_F(BuiltinsTest, UsdToCents) {
  EXPECT_EQ(Call("usd_to_cents", {"12.34"}), "1234");
  EXPECT_EQ(Call("usd_to_cents", {"0.05"}), "5");
  EXPECT_TRUE(Fails("usd_to_cents", {"12"}));
  EXPECT_TRUE(Fails("usd_to_cents", {"12.3"}));
  EXPECT_TRUE(Fails("usd_to_cents", {"12.345"}));
  EXPECT_TRUE(Fails("usd_to_cents", {"a.bc"}));
}

TEST_F(BuiltinsTest, CaseConversion) {
  EXPECT_EQ(Call("upper", {"ab12"}), "AB12");
  EXPECT_EQ(Call("lower", {"TOOLS"}), "tools");
}

TEST_F(BuiltinsTest, SqftToSqm) {
  EXPECT_EQ(Call("sqft_to_sqm", {"1800"}), "167");
  EXPECT_EQ(Call("sqft_to_sqm", {"0"}), "0");
  EXPECT_TRUE(Fails("sqft_to_sqm", {"big"}));
}

TEST_F(BuiltinsTest, FunctionsAreDeterministic) {
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Call("add", {"7", "8"}), "15");
    EXPECT_EQ(Call("concat_ws", {"a", "b"}), "a b");
  }
}

}  // namespace
}  // namespace tupelo
