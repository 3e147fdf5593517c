#include "fira/parser.h"

#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/text.h"

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
  explicit ExprParser(std::string_view text, size_t first_line = 1)
      : in_(text, kScriptDelims, first_line) {}

  Result<MappingExpression> ParseScript() {
    MappingExpression expr;
    while (!in_.AtEnd()) {
      TUPELO_ASSIGN_OR_RETURN(Op op, ParseOneOp());
      expr.Append(std::move(op));
    }
    return expr;
  }

  Result<Op> ParseSingle() {
    TUPELO_ASSIGN_OR_RETURN(Op op, ParseOneOp());
    if (!in_.AtEnd()) return in_.Error("trailing input after operator");
    return op;
  }

 private:
  Result<Arg> ParseArg() {
    Arg arg;
    if (in_.PeekIs('[')) {
      arg.is_list = true;
      TUPELO_ASSIGN_OR_RETURN(arg.names, in_.NameList());
    } else {
      TUPELO_ASSIGN_OR_RETURN(arg.name, in_.Atom());
    }
    return arg;
  }

  Result<Op> ParseOneOp() {
    in_.AtEnd();
    const std::string at_line = " at line " + std::to_string(in_.line());
    TUPELO_ASSIGN_OR_RETURN(std::string opname, in_.Atom());
    TUPELO_RETURN_IF_ERROR(in_.Expect('('));
    std::vector<Arg> args;
    if (!in_.Consume(')')) {
      do {
        TUPELO_ASSIGN_OR_RETURN(Arg arg, ParseArg());
        args.push_back(std::move(arg));
      } while (in_.Consume(','));
      TUPELO_RETURN_IF_ERROR(in_.Expect(')'));
    }
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

  Scanner in_;
};

}  // namespace

Result<MappingExpression> ParseExpression(std::string_view script,
                                          size_t first_line) {
  return ExprParser(script, first_line).ParseScript();
}

Result<Op> ParseOp(std::string_view text) {
  return ExprParser(text).ParseSingle();
}

}  // namespace tupelo
