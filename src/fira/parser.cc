#include "fira/parser.h"

#include <cctype>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

namespace tupelo {
namespace {

// One argument of an op: either a single name or a bracketed name list.
struct Arg {
  bool is_list = false;
  std::string name;                // when !is_list
  std::vector<std::string> names;  // when is_list
};

class ExprParser {
 public:
  explicit ExprParser(std::string_view text) : text_(text) {}

  Result<MappingExpression> ParseScript() {
    MappingExpression expr;
    SkipSpace();
    while (pos_ < text_.size()) {
      TUPELO_ASSIGN_OR_RETURN(Op op, ParseOneOp());
      expr.Append(std::move(op));
      SkipSpace();
    }
    return expr;
  }

  Result<Op> ParseSingle() {
    SkipSpace();
    TUPELO_ASSIGN_OR_RETURN(Op op, ParseOneOp());
    SkipSpace();
    if (pos_ < text_.size()) {
      return Status::ParseError("trailing input after operator at line " +
                                std::to_string(line_));
    }
    return op;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status ExpectChar(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::ParseError("expected '" + std::string(1, c) +
                                "' at line " + std::to_string(line_));
    }
    ++pos_;
    return Status::OK();
  }

  bool PeekChar(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  static bool IsNameChar(char c) {
    return !std::isspace(static_cast<unsigned char>(c)) && c != '(' &&
           c != ')' && c != '[' && c != ']' && c != ',' && c != '"' &&
           c != '#';
  }

  Result<std::string> ParseName() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::ParseError("expected name at line " +
                                std::to_string(line_) +
                                ", got end of input");
    }
    if (text_[pos_] == '"') return ParseQuoted();
    size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    if (pos_ == start) {
      return Status::ParseError("expected name at line " +
                                std::to_string(line_));
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<std::string> ParseQuoted() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') ++line_;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '\\':
            out += '\\';
            break;
          case '"':
            out += '"';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            return Status::ParseError("bad escape '\\" + std::string(1, e) +
                                      "' at line " + std::to_string(line_));
        }
      } else {
        out += c;
      }
    }
    return Status::ParseError("unterminated string at line " +
                              std::to_string(line_));
  }

  Result<Arg> ParseArg() {
    SkipSpace();
    Arg arg;
    if (PeekChar('[')) {
      ++pos_;
      arg.is_list = true;
      if (!PeekChar(']')) {
        while (true) {
          TUPELO_ASSIGN_OR_RETURN(std::string name, ParseName());
          arg.names.push_back(std::move(name));
          if (PeekChar(',')) {
            ++pos_;
            continue;
          }
          break;
        }
      }
      TUPELO_RETURN_IF_ERROR(ExpectChar(']'));
      return arg;
    }
    TUPELO_ASSIGN_OR_RETURN(arg.name, ParseName());
    return arg;
  }

  Result<Op> ParseOneOp() {
    SkipSpace();
    const std::string at_line = " at line " + std::to_string(line_);
    TUPELO_ASSIGN_OR_RETURN(std::string opname, ParseName());
    TUPELO_RETURN_IF_ERROR(ExpectChar('('));
    std::vector<Arg> args;
    if (!PeekChar(')')) {
      while (true) {
        TUPELO_ASSIGN_OR_RETURN(Arg arg, ParseArg());
        args.push_back(std::move(arg));
        if (PeekChar(',')) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    TUPELO_RETURN_IF_ERROR(ExpectChar(')'));
    return BuildOp(opname, args, at_line);
  }

  // Moves `arg` into `field` when the two have the same shape.
  static bool Assign(Arg& arg, std::string& field) {
    if (arg.is_list) return false;
    field = std::move(arg.name);
    return true;
  }
  static bool Assign(Arg& arg, std::vector<std::string>& field) {
    if (!arg.is_list) return false;
    field = std::move(arg.names);
    return true;
  }

  // Builds the Op alternative whose kName is `opname`, matching `args`
  // against its Fields() in order. Errors end with `at_line`.
  template <size_t I = 0>
  static Result<Op> BuildOp(const std::string& opname, std::vector<Arg>& args,
                            const std::string& at_line) {
    if constexpr (I == std::variant_size_v<Op>) {
      return Status::ParseError("unknown operator '" + opname + "'" +
                                at_line);
    } else {
      using T = std::variant_alternative_t<I, Op>;
      if (opname != T::kName) return BuildOp<I + 1>(opname, args, at_line);
      T op;
      constexpr size_t kArity = std::tuple_size_v<decltype(op.Fields())>;
      if (args.size() != kArity) {
        return Status::ParseError(
            opname + " expects " + std::to_string(kArity) +
            (kArity == 1 ? " argument, got " : " arguments, got ") +
            std::to_string(args.size()) + at_line);
      }
      size_t i = 0;
      const bool shapes_match = std::apply(
          [&](auto&... fields) { return (Assign(args[i++], fields) && ...); },
          op.Fields());
      if (!shapes_match) {
        return Status::ParseError(
            opname + " expects a " + (args[i - 1].is_list ? "name" : "[list]") +
            " as argument " + std::to_string(i) + at_line);
      }
      return Op(std::move(op));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

}  // namespace

Result<MappingExpression> ParseExpression(std::string_view script) {
  return ExprParser(script).ParseScript();
}

Result<Op> ParseOp(std::string_view text) {
  return ExprParser(text).ParseSingle();
}

}  // namespace tupelo
