#ifndef TUPELO_COMMON_STRING_UTIL_H_
#define TUPELO_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace tupelo {

// Splits `input` on `sep`, keeping empty fields. Splitting "" yields {""}.
std::vector<std::string> Split(std::string_view input, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Removes ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view s);

// True if `s` consists of an optional sign followed by one or more digits.
bool IsInteger(std::string_view s);

// True if `s` parses as a decimal number (integer or with a fraction part).
bool IsNumber(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// Lowercases ASCII characters.
std::string AsciiToLower(std::string_view s);

}  // namespace tupelo

#endif  // TUPELO_COMMON_STRING_UTIL_H_
