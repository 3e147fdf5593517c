#ifndef TUPELO_COMMON_TEXT_H_
#define TUPELO_COMMON_TEXT_H_

#include <charconv>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tupelo {

// The one text layer under every persisted format: critical instances
// (.tdb), mapping-expression scripts, stored mappings (.tmap) and
// checkpoints (.tck). It is the only place where atoms become text and
// text becomes atoms again.
//
// Lexical rules shared by all formats: whitespace separates tokens, '#'
// starts a comment to end of line, and an atom is either a bare word or
// a double-quoted string with the escapes \\ \" \n \t. A bare word is a
// run of characters that are not whitespace, '"', '#' or one of the
// format's delimiters:

inline constexpr std::string_view kTdbDelims = "(){},";
inline constexpr std::string_view kScriptDelims = "()[],";
inline constexpr std::string_view kTmapDelims = "[],";

// Backslash-escapes '\\', '"', '\n' and '\t'; Quote() also wraps the
// result in double quotes.
std::string Escape(std::string_view s);
std::string Quote(std::string_view s);

// Appends `atom` to `out` bare when it reads back as one bare word that
// is none of `keywords`, and quoted otherwise (the empty string included).
void AppendAtom(std::string& out, std::string_view atom,
                std::string_view delims,
                std::initializer_list<std::string_view> keywords = {});

// A cursor over the tokens of one format's text. It allocates nothing
// per token beyond an atom's own text. Errors are ParseErrors that name
// the line the offending token starts on.
class Scanner {
 public:
  Scanner(std::string_view text, std::string_view delims,
          size_t first_line = 1)
      : text_(text), delims_(delims), line_(first_line) {}

  // Skips whitespace and comments; true when no token remains.
  bool AtEnd();
  // The line the next token starts on (after a skip).
  size_t line() const { return line_; }

  // True when the next token is the delimiter `c`; Consume() also takes it.
  bool PeekIs(char c);
  bool Consume(char c);
  // Consume(c), or a ParseError naming `c` and what came instead.
  Status Expect(char c);
  // Takes the bare word `word`, or fails naming it.
  Status ExpectWord(std::string_view word);

  // One atom. `*quoted` (when given) tells a quoted string from a bare
  // word, so a format can give bare keywords such as `null` a meaning.
  Result<std::string> Atom(bool* quoted = nullptr);
  // `[` atom (`,` atom)* `]`, or `[]`.
  Result<std::vector<std::string>> NameList();

  // A ParseError "<what> at line N".
  Status Error(const std::string& what) const;

 private:
  bool IsBare(char c) const;
  // "'x'" for the next token (a delimiter, a quote or a whole bare word),
  // or "end of input".
  std::string Found();
  Result<std::string> Quoted();

  std::string_view text_;
  std::string_view delims_;
  size_t pos_ = 0;
  size_t line_;
};

// A cursor over the lines of a line-framed format (.tmap, .tck), which
// embed .tdb and script text in sections:
//
//   begin <name>
//   ...body...
//   end <name>
//
// Bodies are passed through untouched; no .tdb or script line is ever
// `end <name>`, so the framing is unambiguous. Lines and bodies are views
// into the text, which must outlive them.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  bool done() const { return pos_ >= text_.size(); }
  // The number (from 1) of the line Next() returns.
  size_t line() const { return line_; }
  // The next line, without its '\n'.
  std::string_view Next();

  // Reads a section whose next line is `begin <name>`.
  Result<std::string_view> Section(std::string_view name,
                                   size_t* first_line = nullptr);
  // Reads the body after a `begin <name>` line already read, through
  // the `end <name>` line, which it consumes. The body keeps its
  // newlines. Both framing lines may carry surrounding whitespace.
  // `*first_line` (when given) is the number of the body's first line,
  // for a parser of the body to count from.
  Result<std::string_view> SectionBody(std::string_view name,
                                       size_t* first_line = nullptr);

 private:
  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

// Appends a `begin <name>` ... `end <name>` section holding `body`,
// newline-terminated.
void AppendSection(std::string& out, std::string_view name,
                   std::string_view body);

// Parses all of `text` as a T (an integer type or double) with
// std::from_chars: decimal digits, a leading '-' only where T is signed,
// no '+' and no whitespace. False on an empty or partial parse, a value
// outside T's range or below `min`, or a non-finite double.
template <typename T>
bool ParseNumber(std::string_view text, T& out,
                 std::type_identity_t<T> min = std::numeric_limits<T>::lowest()) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

// The whole file at `path`: NotFound when it cannot be opened, Internal
// when reading it fails.
Result<std::string> ReadFile(const std::string& path);

// Writes `contents` to `path` by writing `<path>.tmp` and renaming it
// over `path`, so an interrupted write never leaves a torn file: readers
// see the previous contents or the new ones. Every saver goes through
// here. A short write removes the temporary.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

}  // namespace tupelo

#endif  // TUPELO_COMMON_TEXT_H_
