#include "fira/operators.h"

#include "common/text.h"

namespace tupelo {
namespace {

// Appends one script argument: an atom, or λ's input list `[a, b]`.
void AppendArg(std::string& out, const std::string& name) {
  AppendAtom(out, name, kScriptDelims);
}
void AppendArg(std::string& out, const std::vector<std::string>& names) {
  out += '[';
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    AppendArg(out, names[i]);
  }
  out += ']';
}

struct PrettyPrinter {
  std::string operator()(const DereferenceOp& op) const {
    return "→^" + op.out + "_" + op.pointer + "(" + op.rel + ")";
  }
  std::string operator()(const PromoteOp& op) const {
    return "↑^" + op.name_attr + "_" + op.value_attr + "(" + op.rel + ")";
  }
  std::string operator()(const DemoteOp& op) const {
    return "↓(" + op.rel + ")";
  }
  std::string operator()(const PartitionOp& op) const {
    return "℘_" + op.attr + "(" + op.rel + ")";
  }
  std::string operator()(const ProductOp& op) const {
    return "×(" + op.left + ", " + op.right + ")";
  }
  std::string operator()(const DropOp& op) const {
    return "π̄_" + op.attr + "(" + op.rel + ")";
  }
  std::string operator()(const MergeOp& op) const {
    return "µ_" + op.attr + "(" + op.rel + ")";
  }
  std::string operator()(const RenameAttrOp& op) const {
    return "ρatt_" + op.from + "→" + op.to + "(" + op.rel + ")";
  }
  std::string operator()(const RenameRelOp& op) const {
    return "ρrel_" + op.from + "→" + op.to;
  }
  std::string operator()(const ApplyFunctionOp& op) const {
    std::string inputs;
    for (size_t i = 0; i < op.inputs.size(); ++i) {
      if (i > 0) inputs += ",";
      inputs += op.inputs[i];
    }
    return "λ^" + op.out + "_" + op.function + "," + inputs + "(" + op.rel +
           ")";
  }
};

}  // namespace

std::string OpToScript(const Op& op) {
  return std::visit(
      [](const auto& o) {
        std::string out(o.kName);
        out += '(';
        std::apply(
            [&out](const auto&... args) {
              const char* sep = "";
              ((out += sep, AppendArg(out, args), sep = ", "), ...);
            },
            o.Fields());
        out += ')';
        return out;
      },
      op);
}

std::string OpToPretty(const Op& op) { return std::visit(PrettyPrinter{}, op); }

std::string_view OpName(const Op& op) {
  return std::visit([](const auto& o) { return o.kName; }, op);
}

const std::string& OpTargetRelation(const Op& op) {
  return std::visit(
      [](const auto& o) -> const std::string& {
        return std::get<0>(o.Fields());
      },
      op);
}

std::string ProductResultName(const ProductOp& op) {
  return op.left + "*" + op.right;
}

}  // namespace tupelo
