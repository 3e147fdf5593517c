#include "common/text.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace tupelo {
namespace {

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }

bool IsBareChar(char c, std::string_view delims) {
  return !IsSpace(c) && c != '"' && c != '#' &&
         delims.find(c) == std::string_view::npos;
}

}  // namespace

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string Quote(std::string_view s) { return "\"" + Escape(s) + "\""; }

void AppendAtom(std::string& out, std::string_view atom,
                std::string_view delims,
                std::initializer_list<std::string_view> keywords) {
  bool bare = !atom.empty();
  for (char c : atom) bare = bare && IsBareChar(c, delims);
  for (std::string_view keyword : keywords) bare = bare && atom != keyword;
  if (bare) {
    out += atom;
  } else {
    out += '"';
    out += Escape(atom);
    out += '"';
  }
}

bool Scanner::AtEnd() {
  while (pos_ < text_.size()) {
    char c = text_[pos_];
    if (c == '#') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
    } else if (IsSpace(c)) {
      if (c == '\n') ++line_;
      ++pos_;
    } else {
      return false;
    }
  }
  return true;
}

bool Scanner::IsBare(char c) const { return IsBareChar(c, delims_); }

bool Scanner::PeekIs(char c) { return !AtEnd() && text_[pos_] == c; }

bool Scanner::Consume(char c) {
  if (!PeekIs(c)) return false;
  ++pos_;
  return true;
}

Status Scanner::Expect(char c) {
  if (Consume(c)) return Status::OK();
  return Error("expected '" + std::string(1, c) + "', got " + Found());
}

Status Scanner::ExpectWord(std::string_view word) {
  AtEnd();
  size_t end = pos_;
  while (end < text_.size() && IsBare(text_[end])) ++end;
  if (text_.substr(pos_, end - pos_) != word) {
    return Error("expected '" + std::string(word) + "', got " + Found());
  }
  pos_ = end;
  return Status::OK();
}

Result<std::string> Scanner::Atom(bool* quoted) {
  if (AtEnd() || !(text_[pos_] == '"' || IsBare(text_[pos_]))) {
    return Error("expected name, got " + Found());
  }
  if (quoted != nullptr) *quoted = text_[pos_] == '"';
  if (text_[pos_] == '"') return Quoted();
  size_t start = pos_;
  while (pos_ < text_.size() && IsBare(text_[pos_])) ++pos_;
  return std::string(text_.substr(start, pos_ - start));
}

Result<std::string> Scanner::Quoted() {
  const size_t start_line = line_;
  ++pos_;  // opening quote
  std::string out;
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') return out;
    if (c == '\n') ++line_;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) break;
    switch (char e = text_[pos_++]) {
      case '\\':
      case '"':
        out += e;
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      default:
        return Error("bad escape '\\" + std::string(1, e) + "'");
    }
  }
  return Status::ParseError("unterminated string starting at line " +
                            std::to_string(start_line));
}

Result<std::vector<std::string>> Scanner::NameList() {
  TUPELO_RETURN_IF_ERROR(Expect('['));
  std::vector<std::string> names;
  if (Consume(']')) return names;
  do {
    TUPELO_ASSIGN_OR_RETURN(std::string name, Atom());
    names.push_back(std::move(name));
  } while (Consume(','));
  TUPELO_RETURN_IF_ERROR(Expect(']'));
  return names;
}

Status Scanner::Error(const std::string& what) const {
  return Status::ParseError(what + " at line " + std::to_string(line_));
}

std::string Scanner::Found() {
  if (AtEnd()) return "end of input";
  size_t end = pos_ + 1;
  if (IsBare(text_[pos_])) {
    while (end < text_.size() && IsBare(text_[end])) ++end;
  }
  return "'" + std::string(text_.substr(pos_, end - pos_)) + "'";
}

std::string_view LineCursor::Next() {
  size_t end = text_.find('\n', pos_);
  if (end == std::string_view::npos) end = text_.size();
  std::string_view line = text_.substr(pos_, end - pos_);
  pos_ = std::min(text_.size(), end + 1);
  ++line_;
  return line;
}

namespace {

// True when `line`, stripped of surrounding whitespace, reads
// `<keyword> <name>`.
bool IsFrame(std::string_view line, std::string_view keyword,
             std::string_view name) {
  while (!line.empty() && IsSpace(line.front())) line.remove_prefix(1);
  while (!line.empty() && IsSpace(line.back())) line.remove_suffix(1);
  return line.size() == keyword.size() + 1 + name.size() &&
         line.starts_with(keyword) && line[keyword.size()] == ' ' &&
         line.ends_with(name);
}

}  // namespace

Result<std::string_view> LineCursor::Section(std::string_view name,
                                              size_t* first_line) {
  const size_t begin_line = line_;
  if (done() || !IsFrame(Next(), "begin", name)) {
    return Status::ParseError("expected 'begin " + std::string(name) +
                              "' at line " + std::to_string(begin_line));
  }
  return SectionBody(name, first_line);
}

Result<std::string_view> LineCursor::SectionBody(std::string_view name,
                                                  size_t* first_line) {
  const size_t start = pos_;
  const size_t begin_line = line_ - 1;
  if (first_line != nullptr) *first_line = line_;
  while (!done()) {
    const size_t line_start = pos_;
    if (IsFrame(Next(), "end", name)) {
      return text_.substr(start, line_start - start);
    }
  }
  return Status::ParseError("unterminated section '" + std::string(name) +
                            "' begun at line " + std::to_string(begin_line));
}

void AppendSection(std::string& out, std::string_view name,
                   std::string_view body) {
  out += "begin ";
  out += name;
  out += '\n';
  out += body;
  if (!body.empty() && body.back() != '\n') out += '\n';
  out += "end ";
  out += name;
  out += '\n';
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::string text{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  if (in.bad()) return Status::Internal("read failed for file: " + path);
  return text;
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write file: " + tmp);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    // Short write (ENOSPC, I/O error): typed, and the torn temporary is
    // removed rather than left behind to shadow a later write.
    out.close();
    std::remove(tmp.c_str());
    return Status::ResourceExhausted("short write for file: " + tmp);
  }
  // close() is where buffered data reaches the filesystem; an error here
  // (ENOSPC at flush-on-close) would otherwise vanish in the destructor.
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    return Status::ResourceExhausted("close failed for file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace tupelo
