#include "fira/builtin_functions.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "common/text.h"

namespace tupelo {
namespace {

// Reads what IsInteger accepts (a leading '+' included) over the whole
// int64_t range; a value outside it is an error, not a saturated one.
Result<int64_t> ToInt(const std::string& s) {
  if (!IsInteger(s)) {
    return Status::InvalidArgument("not an integer: '" + s + "'");
  }
  std::string_view digits = s;
  if (digits.front() == '+') digits.remove_prefix(1);
  int64_t value = 0;
  if (!ParseNumber(digits, value)) {
    return Status::InvalidArgument("integer out of range: '" + s + "'");
  }
  return value;
}

Status IntegerOverflow() {
  return Status::InvalidArgument("integer result out of range");
}

Result<double> ToNumber(const std::string& s) {
  if (!IsNumber(s)) {
    return Status::InvalidArgument("not a number: '" + s + "'");
  }
  return std::strtod(s.c_str(), nullptr);
}

using Args = std::vector<std::string>;

ComplexFunction Fn(std::string name, size_t arity,
                   std::function<Result<std::string>(const Args&)> impl,
                   std::string description) {
  ComplexFunction f;
  f.name = std::move(name);
  f.arity = arity;
  f.impl = std::move(impl);
  f.description = std::move(description);
  return f;
}

}  // namespace

Status RegisterBuiltinFunctions(FunctionRegistry* registry) {
  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "concat", 2, [](const Args& a) -> Result<std::string> {
        return a[0] + a[1];
      },
      "string concatenation a+b")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "concat_ws", 2, [](const Args& a) -> Result<std::string> {
        return a[0] + " " + a[1];
      },
      "space-separated concatenation")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "full_name", 2, [](const Args& a) -> Result<std::string> {
        return a[1] + " " + a[0];
      },
      "(last, first) -> 'First Last' (paper Example 5, f2)")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "add", 2, [](const Args& a) -> Result<std::string> {
        TUPELO_ASSIGN_OR_RETURN(int64_t x, ToInt(a[0]));
        TUPELO_ASSIGN_OR_RETURN(int64_t y, ToInt(a[1]));
        int64_t r = 0;
        if (__builtin_add_overflow(x, y, &r)) return IntegerOverflow();
        return std::to_string(r);
      },
      "integer sum (paper Example 5, f3 shape)")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "sub", 2, [](const Args& a) -> Result<std::string> {
        TUPELO_ASSIGN_OR_RETURN(int64_t x, ToInt(a[0]));
        TUPELO_ASSIGN_OR_RETURN(int64_t y, ToInt(a[1]));
        int64_t r = 0;
        if (__builtin_sub_overflow(x, y, &r)) return IntegerOverflow();
        return std::to_string(r);
      },
      "integer difference")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "mul", 2, [](const Args& a) -> Result<std::string> {
        TUPELO_ASSIGN_OR_RETURN(int64_t x, ToInt(a[0]));
        TUPELO_ASSIGN_OR_RETURN(int64_t y, ToInt(a[1]));
        int64_t r = 0;
        if (__builtin_mul_overflow(x, y, &r)) return IntegerOverflow();
        return std::to_string(r);
      },
      "integer product")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "scale_pct", 2, [](const Args& a) -> Result<std::string> {
        TUPELO_ASSIGN_OR_RETURN(double x, ToNumber(a[0]));
        TUPELO_ASSIGN_OR_RETURN(double pct, ToNumber(a[1]));
        return std::to_string(
            static_cast<int64_t>(std::llround(x * pct / 100.0)));
      },
      "round(a * pct / 100)")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "date_us_to_iso", 1, [](const Args& a) -> Result<std::string> {
        std::vector<std::string> parts = Split(a[0], '/');
        if (parts.size() != 3 || parts[0].size() != 2 ||
            parts[1].size() != 2 || parts[2].size() != 4 ||
            !IsInteger(parts[0]) || !IsInteger(parts[1]) ||
            !IsInteger(parts[2])) {
          return Status::InvalidArgument("not MM/DD/YYYY: '" + a[0] + "'");
        }
        return parts[2] + "-" + parts[0] + "-" + parts[1];
      },
      "MM/DD/YYYY -> YYYY-MM-DD")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "usd_to_cents", 1, [](const Args& a) -> Result<std::string> {
        std::vector<std::string> parts = Split(a[0], '.');
        auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
        if (parts.size() != 2 || parts[1].size() != 2 ||
            !IsInteger(parts[0]) || !is_digit(parts[1][0]) ||
            !is_digit(parts[1][1])) {
          return Status::InvalidArgument("not D.CC dollars: '" + a[0] + "'");
        }
        TUPELO_ASSIGN_OR_RETURN(int64_t dollars, ToInt(parts[0]));
        const int64_t cents = (parts[1][0] - '0') * 10 + (parts[1][1] - '0');
        // The dollars' sign is the amount's: "-1.50" and "-0.50" are
        // -150 and -50.
        const bool negative = parts[0].front() == '-';
        int64_t r = 0;
        if (__builtin_mul_overflow(dollars, 100, &r) ||
            (negative ? __builtin_sub_overflow(r, cents, &r)
                      : __builtin_add_overflow(r, cents, &r))) {
          return IntegerOverflow();
        }
        return std::to_string(r);
      },
      "'12.34' -> '1234'")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "upper", 1, [](const Args& a) -> Result<std::string> {
        std::string out = a[0];
        for (char& c : out) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        return out;
      },
      "ASCII uppercase")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "lower", 1, [](const Args& a) -> Result<std::string> {
        return AsciiToLower(a[0]);
      },
      "ASCII lowercase")));

  TUPELO_RETURN_IF_ERROR(registry->Register(Fn(
      "sqft_to_sqm", 1, [](const Args& a) -> Result<std::string> {
        TUPELO_ASSIGN_OR_RETURN(double sqft, ToNumber(a[0]));
        return std::to_string(
            static_cast<int64_t>(std::llround(sqft / 10.7639)));
      },
      "integer square feet -> square meters")));

  return Status::OK();
}

}  // namespace tupelo
